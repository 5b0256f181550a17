"""Trace the greedy peeling that decomposes a betti table into pure diagrams.

The two tables below are classical: the projection of the Veronese surface to
four-space (a non-Cohen-Macaulay coordinate ring whose strand lengths drop
while peeling) and the union of a plane nodal cubic with a conic (where the
decomposition mixes strands of both rows).  Every coefficient is an exact
rational and the sum of the peeled diagrams reconstructs the table cell for
cell.
"""

from bettikit import BettiTable, bs_decompose, multiplicity_from_decomposition


def trace(name, table, codim):
    print(f"=== {name} ===")
    print(table.to_text(), end="")
    decomposition = bs_decompose(table)
    for step, (coefficient, d) in enumerate(decomposition.terms, start=1):
        print(f"  step {step}: peel {coefficient} * pi({d})")
    assert decomposition.reconstruct() == table
    degree = multiplicity_from_decomposition(decomposition, codim)
    print(f"  multiplicity of the length-{codim} part: {degree}\n")


trace("projected Veronese surface",
      BettiTable({(0, 0): 1, (1, 2): 7, (2, 2): 10, (3, 2): 5, (4, 2): 1}),
      codim=2)

trace("plane cubic union conic",
      BettiTable({(0, 0): 1, (1, 1): 5, (2, 1): 6, (3, 1): 2,
                  (1, 2): 1, (2, 2): 2, (3, 2): 1}),
      codim=3)

print("free modules are the degenerate case: a table with only a (0,0) entry")
single = bs_decompose(BettiTable({(0, 0): 3}))
print(f"  {single.terms[0][0]} * pi({single.terms[0][1]})")
