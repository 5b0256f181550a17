"""Every sweep of `bettikit selftest` can fail.

Each case breaks the function a sweep checks, inside `bettikit.selftest`
only, runs the sweep on a small range and reads its first failure, which must
name the identity that was broken: it ends with the expected text, after
the ideal it names where there is one.  A sweep whose failure line never
runs proves nothing, so each failure a sweep can yield has a case here.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from bettikit import selftest
from bettikit.linalg import SparseMatrix
from bettikit.tables import BettiTable


def shifted(name, by):
    """Replace selftest's `name` by the same function plus `by`."""
    def patch(monkeypatch):
        real = getattr(selftest, name)
        monkeypatch.setattr(selftest, name, lambda *args: real(*args) + by)
    return patch


def wrapped(name, change):
    """Replace selftest's `name` by `change(real, *args)`."""
    def patch(monkeypatch):
        real = getattr(selftest, name)
        monkeypatch.setattr(selftest, name, lambda *args: change(real, *args))
    return patch


def row_two_doubled(real, d):
    table = real(d)
    return BettiTable({(p, q): v * 2 if q == 2 else v for (p, q), v in table.entries.items()})


def column_one_at_its_bound(real, d):
    """pi(d) with its column-1 cell raised to kappa_max, in the row where d puts it."""
    e, q = d.length, d.degrees[1] - 1
    return BettiTable({**real(d).entries, (1, q): Fraction(selftest.kappa_max(1, q, e))})


def last_column_halved(real, d):
    return BettiTable({(p, q): v / 2 if p == d.length else v
                       for (p, q), v in real(d).entries.items()})


def first_entry_negated(real, ideal, p, q, pieces):
    matrix = real(ideal, p, q, pieces)
    rows = [dict(row) for row in matrix.rows]
    for row in rows:
        if row:
            col = min(row)
            row[col] = -row[col]
            break
    return SparseMatrix(matrix.nrows, matrix.ncols, rows)


def zero_matrix(real, ideal, p, q, pieces):
    matrix = real(ideal, p, q, pieces)
    return SparseMatrix(matrix.nrows, matrix.ncols)


def extra_cell(real, ideal, q_max):
    table, certified = real(ideal, q_max)
    return BettiTable({**table.entries, (1, q_max): table.entry(1, q_max) + 1}), certified


def always_certified(real, ideal, q_max):
    return real(ideal, q_max)[0], True


def last_term_dropped(real, table):
    return SimpleNamespace(terms=real(table).terms[:-1])


def wrong_reconstruction(real, table):
    terms = real(table).terms
    return SimpleNamespace(terms=terms, reconstruct=lambda: BettiTable({(0, 0): Fraction(1)}))


CASES = {
    "deq entry": (selftest.sweep_deq_closed_forms, {"e_max": 1, "q_max": 1},
                  shifted("kappa_max", 1), "e=1 q=1 p=1: entry 1 != 2"),
    "deq multiplicity": (selftest.sweep_deq_closed_forms, {"e_max": 1, "q_max": 1},
                         shifted("multiplicity", 1), "e=1 q=1: multiplicity 3 != C(e+q,q)"),
    "tilde entry": (selftest.sweep_tilde_closed_forms, {"e_max": 2},
                    shifted("kappa_next_max", 1), "e=2 p=1: entry 2 != 3"),
    "tilde corner": (selftest.sweep_tilde_closed_forms, {"e_max": 2},
                     wrapped("hk_diagram", row_two_doubled), "e=2: corner entry 2 != 1"),
    "tilde multiplicity": (selftest.sweep_tilde_closed_forms, {"e_max": 2},
                           shifted("multiplicity", 1), "e=2: multiplicity 5 != 4"),
    "lemma entry": (selftest.sweep_strand_bound_lemma, {"e_max": 1, "q_max": 1, "slack": 1},
                    shifted("kappa_max", -1), "d=0,2: entry at p=1 is 1 > 0"),
    "lemma multiplicity": (selftest.sweep_strand_bound_lemma,
                           {"e_max": 1, "q_max": 1, "slack": 1},
                           shifted("multiplicity", -1), "d=0,2: multiplicity 1 < 2"),
    "lemma all columns": (selftest.sweep_strand_bound_lemma,
                          {"e_max": 1, "q_max": 1, "slack": 1},
                          wrapped("hk_diagram", last_column_halved),
                          "d=0,2: all-columns equality mismatch"),
    "lemma some column": (selftest.sweep_strand_bound_lemma,
                          {"e_max": 2, "q_max": 1, "slack": 1},
                          wrapped("hk_diagram", column_one_at_its_bound),
                          "d=0,2,4: some-column equality mismatch"),
    "lemma multiplicity equality": (selftest.sweep_strand_bound_lemma,
                                    {"e_max": 1, "q_max": 1, "slack": 1},
                                    shifted("multiplicity", 1),
                                    "d=0,2: multiplicity equality mismatch"),
    "dual multiplicity": (selftest.sweep_dual_multiplicity, {"e_max": 1, "q_max": 1},
                          shifted("multiplicity", 1), "d=0,2: multiplicity 3 > 2"),
    "comparison order": (selftest.sweep_bound_comparison, {"e_max": 2, "q_max": 1},
                         wrapped("kappa_next_max", lambda real, p, e: selftest.kappa_max(p, 1, e)),
                         "e=2 p=1: next-to-max not below max"),
    "comparison positive": (selftest.sweep_bound_comparison, {"e_max": 2, "q_max": 2},
                            wrapped("kappa_max", lambda real, p, q, e: real(p, q, e) if q == 1
                                    else 0),
                            "e=1 q=2 p=1: bound not positive"),
    "hilbert divisibility": (selftest.sweep_hilbert_divisibility,
                             {"e_max": 1, "q_max": 1, "slack": 0},
                             wrapped("hk_diagram", last_column_halved),
                             "d=0,2: numerator not divisible by (1-t)^length"),
    "square zero": (selftest.sweep_square_zero, {"trials": 1, "q_max": 1},
                    wrapped("koszul_differential", first_entry_negated),
                    "ideal on 4 vars: delta^2 != 0 at (p=2, q=0)"),
    "row zero rank": (selftest.sweep_row_zero_rank, {"trials": 1},
                      wrapped("koszul_differential", zero_matrix),
                      "char_p=None): rank 0 at p=1, not C(4,1) - C(1,1)"),
    "delta_2 rank": (selftest.sweep_delta2_rank, {"trials": 1}, shifted("_delta2_rank", 1),
                     "char_p=None): uncut rank 2 read at q=0, but 1 built"),
    "cut agrees": (selftest.sweep_cut_agrees_with_uncut, {"trials": 1, "q_max": 1},
                   wrapped("betti_table", extra_cell),
                   "char_p=None): cut table BettiTable({(0,0): 1, (1,0): 1, (1,1): 1}) "
                   "!= uncut BettiTable({(0,0): 1, (1,0): 1})"),
    "certificate": (selftest.sweep_cut_agrees_with_uncut, {"trials": 1, "q_max": 1},
                    wrapped("betti_table", always_certified),
                    "char_p=None): certified at q_max 1, but the uncut table has row 2"),
    "cone terms": (selftest.sweep_cone_round_trip, {"trials": 1},
                   wrapped("bs_decompose", last_term_dropped),
                   "terms [(0, 2, 3, 4), (0, 2, 3, 5)] came back as [(0, 2, 3, 4)]"),
    "cone reconstruction": (selftest.sweep_cone_round_trip, {"trials": 1},
                            wrapped("bs_decompose", wrong_reconstruction),
                            "reconstruction mismatch for terms [(0, 2, 3, 4), (0, 2, 3, 5)]"),
}


@pytest.mark.parametrize("case", CASES)
def test_each_sweep_fails_on_the_identity_it_checks(case, monkeypatch):
    sweep, kwargs, patch, expected = CASES[case]
    assert selftest.tally(sweep(**kwargs))[1] == []
    patch(monkeypatch)
    failures = selftest.tally(sweep(**kwargs))[1]
    assert failures and failures[0].endswith(expected), failures[:1]


def test_divide_by_one_minus_t():
    assert selftest._divide_by_one_minus_t([1, -2, 1]) == [1, -1]
    assert selftest._divide_by_one_minus_t([1, -1, 0, 0]) == [1]
    assert selftest._divide_by_one_minus_t([1, 1]) is None
