"""Build normalized pure diagrams from degree sequences.

A strictly increasing degree sequence determines a pure resolution up to
scale; normalizing the leftmost betti number to 1 gives a table with exactly
one entry per column and a rational multiplicity.  This walkthrough builds a
few diagrams, shows where rational entries appear, and checks the closed
forms of the two named families.
"""

from bettikit import (DegreeSequence, family_deq, family_tilde, hk_diagram, kappa_max,
                      kappa_next_max, multiplicity)

print("=== a pure diagram with integer entries ===")
d = DegreeSequence((0, 3, 4, 5))
print(f"degree sequence {d}  (length {d.length})")
print(hk_diagram(d).to_text(), end="")
print(f"multiplicity: {multiplicity(d)}\n")

print("=== rational entries are the rule, not the exception ===")
d = DegreeSequence((0, 2, 4, 5))
diagram = hk_diagram(d)
print(diagram.to_text(), end="")
print(f"multiplicity: {multiplicity(d)}")
cleared, scale = diagram.cleared()
print(f"after clearing denominators (times {scale}):")
print(cleared.to_text())

print("=== the extremal family (0, q+1, ..., q+e) ===")
for e, q in [(2, 2), (3, 1), (4, 2)]:
    d = family_deq(e, q)
    row = [int(hk_diagram(d).entry(p, q)) for p in range(1, e + 1)]
    bounds = [kappa_max(p, q, e) for p in range(1, e + 1)]
    assert row == bounds
    print(f"e={e} q={q}: strand row {row} equals the bound values, "
          f"multiplicity {multiplicity(d)}")

print("\n=== the almost-extremal family (0, 2, ..., e, e+2) ===")
for e in range(2, 6):
    d = family_tilde(e, 1)
    diagram = hk_diagram(d)
    row = [int(diagram.entry(p, 1)) for p in range(1, e)]
    bounds = [kappa_next_max(p, e) for p in range(1, e)]
    assert row == bounds
    print(f"e={e}: row 1 is {row}, corner entry {diagram.entry(e, 2)}, "
          f"multiplicity {multiplicity(d)}")
