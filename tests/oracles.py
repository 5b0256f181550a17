"""Reference helpers that only the tests use, kept apart from the library.

pytest collects only `test_*.py`, so nothing here runs as a test by itself.
"""

from fractions import Fraction
from itertools import combinations

from bettikit.linalg import field, reduced_echelon
from bettikit.polyring import Ideal, poly_to_str
from bettikit.pure import hk_diagram
from bettikit.tables import BettiTable


def normal_form(piece, poly, char_p):
    """Reduce a degree-q polynomial modulo I_q, in the standard monomials of `piece`."""
    F = field(char_p)
    out = {}
    for mono, raw in poly.items():
        coeff = F.coeff(Fraction(raw))
        for target, factor in piece.rewrite.get(mono, {mono: F.one}).items():
            out[target] = out.get(target, 0) + coeff * factor
    return {m: c for m, v in out.items() if (c := F.coeff(v))}


def cut_ideal(ideal, *path):
    """I + (x_v) / (x_v) as an ideal of the ring without x_v, for each v of `path` in turn.

    Each v is indexed in the ring it is cut from, as in a cut path of
    `koszul._cut_regular_variables`.
    """
    for var in path:
        generators = []
        for g in ideal.generators:
            cut = {mono[:var] + mono[var + 1:]: coeff for mono, coeff in g.items()
                   if not mono[var]}
            if cut:
                generators.append(cut)
        ideal = Ideal(ideal.num_vars - 1, tuple(generators), ideal.char_p)
    return ideal


def rref(rows, char_p=None):
    """`reduced_echelon` of any rows over the rationals or GF(char_p)."""
    F = field(char_p)
    return reduced_echelon(map(F.row, rows), F)


def chain_check(decomposition):
    """True iff consecutive terms have non-increasing length and compare termwise."""
    terms = decomposition.terms
    for (_, a), (_, b) in zip(terms, terms[1:]):
        if a.length < b.length:
            return False
        if any(a[k] > b[k] for k in range(len(b))):
            return False
    return True


def reconstruct(decomposition):
    """Sum of c * pi(d) over the terms, cell by cell in Fractions on a plain dict."""
    total = {}
    for coefficient, d in decomposition.terms:
        for cell, value in hk_diagram(d).entries.items():
            total[cell] = total.get(cell, 0) + coefficient * value
    return BettiTable(total)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def power(poly, exponent):
    """poly ** exponent, for a polynomial in three variables."""
    out = {(0, 0, 0): 1}
    for _ in range(exponent):
        product = {}
        for ma, ca in out.items():
            for mb, cb in poly.items():
                mono = mono_mul(ma, mb)
                product[mono] = product.get(mono, 0) + ca * cb
        out = product
    return {m: Fraction(c) for m, c in out.items() if c}


def linear(a, b, c):
    return {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}


def ideal_to_str(ideal):
    """The ideal in the file format `parse_ideal` reads."""
    lines = [f"vars {ideal.num_vars}", f"field {ideal.field_label()}"]
    lines.extend(poly_to_str(g) for g in ideal.generators)
    return "\n".join(lines) + "\n"


def _rank(matrix, char_p):
    """Rank of an integer matrix (a list of equal-length rows) over QQ or GF(char_p).

    Plain dense Gaussian elimination, sharing nothing with `bettikit.linalg`.
    """
    rows = [[Fraction(v) if char_p is None else v % char_p for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inverse = 1 / top[col] if char_p is None else pow(top[col], -1, char_p)
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] * inverse
                rows[r] = [a - factor * b for a, b in zip(rows[r], top)]
                if char_p is not None:
                    rows[r] = [a % char_p for a in rows[r]]
        rank += 1
    return rank


def _reduced_homology(faces_by_size, size, char_p):
    """dim H~_{size-1} of a simplicial complex, given its faces as sorted tuples by size."""
    def boundary_rank(s):
        rows, cols = faces_by_size.get(s, []), faces_by_size.get(s - 1, [])
        if s == 0 or not rows or not cols:
            return 0
        index = {face: j for j, face in enumerate(cols)}
        matrix = []
        for face in rows:
            row = [0] * len(cols)
            for k in range(len(face)):
                row[index[face[:k] + face[k + 1:]]] = (-1) ** k
            matrix.append(row)
        return _rank(matrix, char_p)
    return len(faces_by_size.get(size, [])) - boundary_rank(size) - boundary_rank(size + 1)


def hochster_table(num_vars, generators, char_p, q_max):
    """Rows 0..q_max of the betti table of S/I, for I generated by the monomials `generators`.

    Independent of the Koszul engine.  I is first polarized: x_v^a becomes
    y_{v,0} * ... * y_{v,a-1}, which keeps every graded betti number, so I
    is the Stanley-Reisner ideal of a complex Delta on the vertices (v, k).
    Hochster's formula gives beta_{i,W}(S/I) = dim H~_{|W|-i-1}(Delta|_W; k)
    for each squarefree degree W, and beta_{i,W} = 0 unless W is in the lcm
    lattice, the unions of sets of generators (the empty union included).
    A face of Delta|_W of size s = q counts at (p, q) = (|W| - s, s), so only
    faces of size <= q_max + 1 are listed.
    """
    gens = [frozenset((v, k) for v in range(num_vars) for k in range(mono[v]))
            for mono in generators]
    lattice = {frozenset()}
    for g in gens:
        lattice |= {w | g for w in lattice}
    entries = {}
    for w in lattice:
        faces_by_size = {s: [face for face in combinations(sorted(w), s)
                             if not any(g <= set(face) for g in gens)]
                         for s in range(min(len(w), q_max + 1) + 1)}
        for q in range(min(len(w), q_max) + 1):
            kappa = _reduced_homology(faces_by_size, q, char_p)
            if kappa:
                cell = (len(w) - q, q)
                entries[cell] = entries.get(cell, 0) + kappa
    return BettiTable(entries)
