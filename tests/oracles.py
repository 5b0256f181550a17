"""Reference helpers and shared inputs that only the tests use, kept apart from the library.

pytest collects only `test_*.py`, so nothing here runs as a test by itself.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from bettikit.linalg import field, reduced_echelon
from bettikit.polyring import Ideal, monomials_of_degree, parse_polynomial, poly_to_str
from bettikit.pure import hk_diagram
from bettikit.tables import BettiTable


# the paper's example tables: the projected Veronese surface, the union of a
# cubic and a conic, and the twisted cubic curve
PROJECTED_VERONESE = BettiTable(
    {(0, 0): 1, (1, 2): 7, (2, 2): 10, (3, 2): 5, (4, 2): 1})
CUBIC_CONIC = BettiTable(
    {(0, 0): 1, (1, 1): 5, (2, 1): 6, (3, 1): 2, (1, 2): 1, (2, 2): 2, (3, 2): 1})
TWISTED_CUBIC_TABLE = BettiTable({(0, 0): 1, (1, 1): 3, (2, 1): 2})


def ideal_from(num_vars, lines, char_p=None):
    gens = tuple(parse_polynomial(line, num_vars) for line in lines)
    return Ideal(num_vars=num_vars, generators=gens, char_p=char_p)


def dense_rref(rows, ncols, char_p):
    """Dense Gauss-Jordan elimination of sparse rows {column: value}: {pivot column: its row}.

    Fractions over the rationals, residues over GF(char_p); each row monic.
    It shares nothing with `bettikit.linalg`, and its length is the rank.
    """
    if char_p is None:
        matrix = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    else:
        matrix = [[row.get(j, 0) % char_p for j in range(ncols)] for row in rows]
    leads = []
    for col in range(ncols):
        top = len(leads)
        found = next((i for i in range(top, len(matrix)) if matrix[i][col]), None)
        if found is None:
            continue
        matrix[top], matrix[found] = matrix[found], matrix[top]
        if char_p is None:
            inv = 1 / matrix[top][col]
            matrix[top] = [v * inv for v in matrix[top]]
        else:
            inv = pow(matrix[top][col], -1, char_p)
            matrix[top] = [v * inv % char_p for v in matrix[top]]
        for i, row in enumerate(matrix):
            factor = row[col]
            if i != top and factor:
                matrix[i] = [a - factor * b for a, b in zip(row, matrix[top])]
                if char_p is not None:
                    matrix[i] = [v % char_p for v in matrix[i]]
        leads.append(col)
    return {col: {j: v for j, v in enumerate(matrix[k]) if v} for k, col in enumerate(leads)}


def eliminate_columns(row, pivots, cols, char_p):
    """A new `row` with each column c of `cols` cleared by pivots[c], one column at a time.

    The step the kernel's one-pass `F.eliminate` must equal, value and sign,
    written in plain dict arithmetic: over the rationals the primitive
    multiple of a * row - row[c] * pivot, for the pivot's lead a (so the sign
    of a carries over), mod p the residues of row - row[c] * pivot.
    """
    for c in cols:
        pivot, out = pivots[c], {}
        if char_p is None:
            g = gcd(pivot[c], row[c])
            ra, rb = pivot[c] // g, row[c] // g
            for j in {*row, *pivot}:
                out[j] = ra * row.get(j, 0) - rb * pivot.get(j, 0)
            content = gcd(*out.values())
            row = {j: v // content for j, v in out.items() if v}
        else:
            for j in {*row, *pivot}:
                out[j] = (row.get(j, 0) - row[c] * pivot.get(j, 0)) % char_p
            row = {j: v for j, v in out.items() if v}
    return row


def forward_echelon(rows, char_p, pivots=None):
    """`linalg._echelon` step by `eliminate_columns`: {lead: its row}, in place on `pivots`.

    Rows are taken shortest first and each pivot row is stored in the
    field's form: as it is over the rationals, monic mod p.
    """
    pivots = {} if pivots is None else pivots
    for row in sorted(rows, key=len):
        while row and min(row) in pivots:
            row = eliminate_columns(row, pivots, [min(row)], char_p)
        if row:
            lead = min(row)
            if char_p is not None:
                inv = pow(row[lead], -1, char_p)
                row = {j: v * inv % char_p for j, v in row.items()}
            pivots[lead] = row
    return pivots


def normal_form(piece, poly, char_p):
    """Reduce a degree-q polynomial modulo I_q, in the standard monomials of `piece`."""
    F = field(char_p)
    out = {}
    for mono, raw in poly.items():
        coeff = F.coeff(Fraction(raw))
        for target, factor in piece.rewrite.get(mono, {mono: 1}).items():
            out[target] = out.get(target, 0) + coeff * factor
    return {m: c for m, v in out.items() if (c := F.coeff(v))}


def minimal_generators(ideal, q):
    """rank I_q - rank S_1 * I_{q-1}: the minimal generators of degree q, by `dense_rref`.

    I_q is spanned by every m * g of degree q, and S_1 * I_{q-1} by those
    with deg g < q.
    """
    basis = monomials_of_degree(ideal.num_vars, q)
    index = {mono: i for i, mono in enumerate(basis)}
    coeff = field(ideal.char_p).coeff
    below, own = [], []
    for g in ideal.generators:
        dg = sum(next(iter(g)))
        for multiplier in monomials_of_degree(ideal.num_vars, q - dg) if dg <= q else ():
            row = {index[mono_mul(multiplier, mono)]: coeff(value) for mono, value in g.items()}
            (below if dg < q else own).append(row)
    return (len(dense_rref(below + own, len(basis), ideal.char_p))
            - len(dense_rref(below, len(basis), ideal.char_p)))


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
    """`reduced_echelon` of any rows over the rationals or GF(char_p), each row made monic.

    Over the rationals the kernel keeps primitive integer rows, read here as
    Fractions over their lead; mod p its rows are monic already.
    """
    F = field(char_p)
    return monic(reduced_echelon(map(F.row, rows), F), char_p)


def monic(pivots, char_p):
    """Kept echelon rows, {lead: row}, each divided by its lead."""
    if char_p is not None:
        return pivots
    return {lead: {col: Fraction(value, row[lead]) for col, value in row.items()}
            for lead, row in pivots.items()}


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


def _reduced_homology(faces_by_size, size, char_p):
    """dim H~_{size-1} of a simplicial complex, given its faces as sorted tuples by size."""
    def boundary_rank(s):
        rows, cols = faces_by_size.get(s, []), faces_by_size.get(s - 1, [])
        index = {face: j for j, face in enumerate(cols)}
        matrix = [{index[face[:k] + face[k + 1:]]: (-1) ** k for k in range(len(face))}
                  for face in rows]
        return len(dense_rref(matrix, len(cols), char_p))
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
    faces of size <= q_max + 1 are listed.  The ranks of the boundary maps
    are read off the shared dense elimination `dense_rref`.
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
