"""`betti_table` on monomial ideals against Hochster's formula (`oracles.hochster_table`).

The oracle reads the betti numbers off the reduced homology of restrictions
of a simplicial complex, by the dense elimination `oracles.dense_rref`; it
shares no code with the Koszul engine, its pieces, its cut or its ranks.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bettikit.koszul import betti_table
from bettikit.polyring import Ideal
from bettikit.tables import BettiTable
from oracles import hochster_table


def monomial_ideal(num_vars, generators, char_p):
    return Ideal(num_vars=num_vars, generators=tuple({g: Fraction(1)} for g in generators),
                 char_p=char_p)


@st.composite
def monomial_generators(draw):
    num_vars = draw(st.integers(2, 5))
    exponents = st.lists(st.integers(0, 2), min_size=num_vars, max_size=num_vars).filter(
        lambda e: 1 <= sum(e) <= 3)
    return num_vars, [tuple(e) for e in draw(st.lists(exponents, min_size=1, max_size=4))]


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(ideal=monomial_generators(), char_p=st.sampled_from((None, 32003, 2)),
       q_max=st.integers(1, 3))
@example(ideal=(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]), char_p=None, q_max=2)   # no regular variable
@example(ideal=(2, [(2, 0), (1, 1)]), char_p=2, q_max=3)                        # depth 0
@example(ideal=(4, [(1, 1, 0, 0), (0, 0, 1, 1)]), char_p=32003, q_max=3)        # two quadrics, a CI
@example(ideal=(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]), char_p=2, q_max=3)       # Artinian
@example(ideal=(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)]), char_p=2, q_max=2)  # I_1 of dim 2
def test_betti_table_matches_hochster_formula(ideal, char_p, q_max):
    num_vars, generators = ideal
    table, _ = betti_table(monomial_ideal(num_vars, generators, char_p), q_max)
    assert table == hochster_table(num_vars, generators, char_p, q_max)


def rp2_generators():
    """The Stanley-Reisner ideal of the 6-vertex triangulation of the real projective plane.

    Its 10 triangles leave 10 of the 20 triples as minimal non-faces; every
    edge lies in two triangles.
    """
    triangles = {frozenset(t) for t in ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                                        (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5))}
    return [tuple(int(v in triple) for v in range(6))
            for triple in map(frozenset, combinations(range(6), 3)) if triple not in triangles]


RP2_QQ = BettiTable({(0, 0): 1, (1, 2): 10, (2, 2): 15, (3, 2): 6})
# H~_1 and H~_2 of RP^2 are GF(2) on all six vertices: beta_{4,6} and beta_{3,6}
RP2_GF2 = BettiTable({(0, 0): 1, (1, 2): 10, (2, 2): 15, (3, 2): 6, (4, 2): 1, (3, 3): 1})


def test_rp2_tables_depend_on_the_characteristic():
    generators = rp2_generators()
    assert len(generators) == 10
    for char_p, expected in ((None, RP2_QQ), (32003, RP2_QQ), (2, RP2_GF2)):
        table, _ = betti_table(monomial_ideal(6, generators, char_p), 4)
        assert table == hochster_table(6, generators, char_p, 4) == expected, char_p
