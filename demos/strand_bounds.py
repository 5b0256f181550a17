"""Check betti tables against the first-strand bound and its refinements.

The bound compares row q of a table against C(p+q-1, q) * C(e+q, p+q) column
by column.  The hypotheses behind it are geometric and cannot be read off the
table, so they are passed in as assertions; the interesting outputs are the
verdicts.  Two classical counterexamples show why the hypotheses matter.
"""

from bettikit import (Assumptions, BettiTable, check_Ndm, check_first_strand,
                      check_next_to_max, degree_bounds, first_nontrivial_strand)

def show(report):
    print(f"  strand q = {report.q_strand}")
    for c in report.per_p:
        marker = "EXCEEDS" if c.observed > c.bound else ("max" if c.attains_max else "")
        print(f"    p={c.p}: observed {c.observed}, bound {c.bound} {marker}")
    tag = report.verdict if report.verdict_p is None else f"{report.verdict}(p={report.verdict_p})"
    print(f"  verdict: {tag}")
    if report.degree_predicted is not None:
        print(f"  predicted degree: {report.degree_predicted}")
    for note in report.notes:
        print(f"  note: {note}")
    print()


print("=== a minimal-degree surface saturates every column ===")
veronese = BettiTable({(0, 0): 1, (1, 1): 6, (2, 1): 8, (3, 1): 3})
show(check_first_strand(veronese, Assumptions(codim_e=3), first_nontrivial_strand(veronese)))

print("=== the projected Veronese breaks the bound at every column ===")
projected = BettiTable({(0, 0): 1, (1, 2): 7, (2, 2): 10, (3, 2): 5, (4, 2): 1})
show(check_first_strand(projected, Assumptions(codim_e=2, nd_q=True),
                        first_nontrivial_strand(projected)))

print("=== next-to-maximal bound needs general position ===")
union = BettiTable({(0, 0): 1, (1, 1): 5, (2, 1): 6, (3, 1): 2,
                    (1, 2): 1, (2, 2): 2, (3, 2): 1})
show(check_next_to_max(union, Assumptions(codim_e=3)))

print("=== vanishing patterns and degree bounds ===")
print(f"projected Veronese satisfies N_(3,4): {check_Ndm(projected, 3, 4)}")
print(f"union satisfies N_(2,3): {check_Ndm(union, 2, 3)}")
bound = degree_bounds(2, 2)
print(f"for codimension 2, strand 2: degree >= {bound} under the vanishing "
      f"hypothesis, <= {bound} under the N_(3,2) pattern")
