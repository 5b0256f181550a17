"""Graded betti numbers of S/I as Koszul cohomology, by exact linear algebra.

For the quotient M = S/I of the polynomial ring by a homogeneous ideal, the
betti number at (p, q) is the dimension of the middle cohomology of

    wedge^{p+1} V (x) M_{q-1}  -->  wedge^p V (x) M_q  -->  wedge^{p-1} V (x) M_{q+1}

with the differential

    delta(e_{i_1} ^ ... ^ e_{i_p} (x) f)
        = sum_j (-1)^{j+1} e_{i_1} ^ ... e-hat_{i_j} ... ^ e_{i_p} (x) (x_{i_j} * f mod I).

Each graded piece M_q is realized concretely: the monomials of degree q,
the fully reduced row echelon of I_q among them, and the non-pivot
("standard") monomials as a basis of M_q.  Pieces are built in increasing
degree, each from the one below it: I_{q+1} is spanned by x_v times the pivot
rows of I_q and the generators of degree q + 1 (see `_next_piece`).  A
product x_v * r_m is skipped when m / x_w is a lead of I_{q-1} for some
w < v: it is then x_w * r_{x_v m / x_w} plus products with smaller leads, so
the rows kept span the same I_{q+1}.
Everything is exact; the field is the rationals or GF(p) as recorded on the
ideal, and no float appears anywhere.  Generators keep the ideal's rational
coefficients: `_next_piece` maps each into the field where it reads it, so a
generator that vanishes there adds nothing.

Wedge basis vectors are strictly increasing index tuples in lex order; the
M_q basis is the standard monomials in descending graded-lex order.  This
fixes every matrix reproducibly.

`betti_table` computes the table on the ring cut by variables certified to
be regular in low degrees (see `_cut_regular_variables`), so the
differentials it builds live in fewer variables, and it stops at the
regularity.  The certificate is Bayer and Stillman's criterion (Invent.
Math. 87 (1987), Thm 1.10, direction (b) => (a), which needs no genericity
and so holds over GF(p) too): if every generator of I has degree <= m, each
cut form h_i satisfies ((I, h_<i) : h_i)_m = (I, h_<i)_m, and
(I, h_1, ..., h_j)_m = S_m, then I is m-regular.  The colon condition is
injectivity of h_i from degree m to m + 1 on the ring cut so far, and the
last condition says the cut ring's piece m is 0.  Each cut is checked by the
rank of multiplication by h_i on the ring cut so far, before the cut ring is
built.  Rows q <= m - 1 of S/I and of the cut ring agree by the
truncation triangle, and rows q >= m vanish on both sides: for S/I by
m-regularity, for the cut ring because its pieces vanish from degree m on.
So when the certificate fires the table is exact in every row and `complete`
is true.  `graded_piece`, `koszul_differential` and `selftest.uncut_table`
never cut.

All that differs between QQ and GF(p) is the field object `linalg.field`.
A piece is a plain value: only the chain `graded_pieces` steps degrees, and
it hands each step the rewrite rules of the piece two below.  A `_Ring`,
local to the computation that makes it, holds an ideal's pieces by degree;
`_multiplication` reads x_v: M_q -> M_{q+1} for both `koszul_differential`
and `_injective`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Container, Iterator, Mapping, Sequence

from .linalg import PrimeField, Rationals, Row, SparseMatrix, field, reduced_echelon
from .polyring import Ideal, Monomial, mono_degree, mono_times_var, monomials_of_degree
from .tables import BettiTable


@dataclass(frozen=True)
class GradedPiece:
    """The degree-q slice M_q = S_q / I_q with a reduction rule into it.

    `standard` is the non-pivot monomials of S_q, a basis of M_q, and
    `rewrite` sends each pivot monomial, a lead of I_q, to its normal form (a
    combination of standard monomials).  dim M_q = dim S_q - rank I_q.
    """

    q: int
    standard: tuple[Monomial, ...]
    rewrite: dict[Monomial, dict[Monomial, Fraction | int]]

    @property
    def dim(self) -> int:
        return len(self.standard)

    @property
    def ideal_dim(self) -> int:
        return len(self.rewrite)


def _next_piece(ideal: Ideal, below: GradedPiece,
                leads_below: Container[Monomial]) -> GradedPiece:
    """The piece of degree q + 1, given the piece `below` of degree q.

    Its rows are the generators of degree exactly q + 1 and the products
    x_v * r_m, where r_m = m - sum(rule) is a rewrite rule of `below` with
    lead m, for v <= w(m): the smallest w with x_w | m and m / x_w in
    in(I_{q-1}) (`leads_below`, any container of those leads), or n - 1 when
    there is none.

    All products x_v * r_m and the generators of degree q + 1 span I_{q+1},
    because I_{q+1} = S_1 * I_q + k * {generators of degree q + 1}: for
    deg g <= q, S_{q+1-deg g} * g = S_1 * S_{q-deg g} * g lies in S_1 * I_q,
    and the rules of `below` are a basis of I_q.  The skipped products add
    nothing.  The column order is lex, so lead(x_v * f) = x_v * lead(f), and
    an element of I_q whose lead lies below m is a combination of rules with
    leads below m.  Let W be the span of the kept rows, and show x_v * r_m in
    W by induction on the pair (t, v), t = x_v * m, first on t in column
    order, then on v.  A kept product is in W.  Otherwise w = w(m) < v and
    u = m / x_w lies in in(I_{q-1}), so x_v * u lies in in(I_q), and

        x_w * r_u = r_m + (rules of I_q with leads below m),
        x_v * r_u = r_{x_v u} + (rules of I_q with leads below x_v * u).

    Multiplying the first by x_v and the second by x_w, x_v * r_m equals
    x_w * r_{x_v u} plus products whose leads lie below t, which are in W by
    induction on t; and x_w * r_{x_v u} has lead t and w < v, so it is in W
    by induction on v.  This is the product criterion of Gebauer and Moller
    (J. Symb. Comput. 6, 1988) read degree by degree, the trivial-syzygy rule
    of Faugere's F5.  A subset of in(I_{q-1}) only raises w(m), so the
    piece is still correct, with more rows.

    The fully reduced echelon of a fixed span in a fixed column order is
    unique, so `standard` and `rewrite` are the same, value for value, as
    from row-reducing every m * g of degree q + 1.  The rows are
    also short: each has at most 1 + dim M_q terms, and above the socle
    every row is a single monomial.

    Each rule and each generator is normalized by the field once (over the
    rationals, to a primitive integer vector) and then shifted by the
    variables, so `reduced_echelon` takes the rows as they are.
    """
    q = below.q + 1
    n = ideal.num_vars
    F = field(ideal.char_p)
    basis = monomials_of_degree(n, q)
    index = {mono: i for i, mono in enumerate(basis)}
    rows = []
    for lead, rule in below.rewrite.items():
        terms = F.row({lead: F.one, **{mono: -value for mono, value in rule.items()}})
        last = next((w for w in range(n) if lead[w]
                     and lead[:w] + (lead[w] - 1,) + lead[w + 1:] in leads_below), n - 1)
        for var in range(last + 1):
            rows.append({index[mono_times_var(mono, var)]: value
                         for mono, value in terms.items()})
    for g in ideal.generators:
        if mono_degree(next(iter(g))) == q:
            rows.append({index[mono]: value for mono, value in F.row(g).items()})
    pivots = reduced_echelon(rows, F)
    standard = tuple(m for i, m in enumerate(basis) if i not in pivots)
    rewrite = {basis[lead]: {basis[col]: F.coeff(-value)
                             for col, value in row.items() if col != lead}
               for lead, row in pivots.items()}
    return GradedPiece(q=q, standard=standard, rewrite=rewrite)


def graded_pieces(ideal: Ideal) -> Iterator[GradedPiece]:
    """M_0, M_1, M_2, ... of S/I, each stepped up from the one below.

    The first step starts from S_{-1} = 0.  Each step is given the rewrite
    rules of the piece two below, whose leads are in(I_{q-1}), so every step
    applies the product criterion.
    """
    piece = below = GradedPiece(q=-1, standard=(), rewrite={})
    while True:
        piece, below = _next_piece(ideal, piece, below.rewrite), piece
        yield piece


class _Ring:
    """One ideal's pieces by degree: `ring[q]` is M_q, the chain stepped up to q as needed."""

    def __init__(self, ideal: Ideal):
        self.ideal = ideal
        self.chain = graded_pieces(ideal)
        self.pieces: list[GradedPiece] = []

    def __getitem__(self, q: int) -> GradedPiece:
        while len(self.pieces) <= q:
            self.pieces.append(next(self.chain))
        return self.pieces[q]


def graded_piece(ideal: Ideal, q: int) -> GradedPiece:
    """Row-reduce I_q inside S_q and package the quotient basis."""
    if q < 0:
        raise ValueError(f"degree must be nonnegative, got {q}")
    return _Ring(ideal)[q]


def _multiplication(source: GradedPiece, target: GradedPiece, var: int,
                   F: Rationals | PrimeField) -> list[Row]:
    """The rows of x_var: M_q -> M_{q+1}, one per standard monomial m of M_q.

    Row i reads x_var * m from the rewrite rules of `target`, or as itself when standard.
    """
    index = {mono: i for i, mono in enumerate(target.standard)}
    rows = []
    for mono in source.standard:
        product = mono_times_var(mono, var)
        rows.append({index[m]: v for m, v in target.rewrite.get(product, {product: F.one}).items()})
    return rows


def koszul_differential(ideal: Ideal, p: int, q: int,
                        pieces: Sequence[GradedPiece] | Mapping[int, GradedPiece]) -> SparseMatrix:
    """Matrix of wedge^p V (x) M_q -> wedge^{p-1} V (x) M_{q+1}, rows = domain basis.

    M_q and M_{q+1} are read as `pieces[q]` and `pieces[q + 1]`, from
    anything that holds the pieces of `ideal` by degree: a list, a dict or,
    inside the engine, a `_Ring`.  The images of x_v are read by `_multiplication`.  For a fixed
    wedge the j-th terms land in distinct codomain wedges, so no two terms of
    a row share a column and nothing cancels.
    """
    if p < 0 or q < 0:
        raise ValueError(f"need p >= 0 and q >= 0, got p={p}, q={q}")
    n = ideal.num_vars
    source, target = pieces[q], pieces[q + 1]
    domain_wedges = list(combinations(range(n), p))
    codomain_wedges = list(combinations(range(n), p - 1)) if p >= 1 else []
    nrows = len(domain_wedges) * source.dim
    ncols = len(codomain_wedges) * target.dim
    if nrows == 0 or ncols == 0:
        return SparseMatrix(nrows, ncols)
    F = field(ideal.char_p)
    wedge_index = {w: i for i, w in enumerate(codomain_wedges)}
    # images[j % 2][var][i]: (-1)^j times the image of x_var times the i-th monomial of M_q
    plus = [_multiplication(source, target, var, F) for var in range(n)]
    images = (plus, [[{col: F.coeff(-v) for col, v in row.items()} for row in rows]
                     for rows in plus])
    rows = []
    for wedge in domain_wedges:
        bases = [wedge_index[wedge[:j] + wedge[j + 1:]] * target.dim for j in range(p)]
        for i in range(source.dim):
            row: Row = {}
            for j, var in enumerate(wedge):
                for col, value in images[j % 2][var][i].items():
                    row[bases[j] + col] = value
            rows.append(row)
    return SparseMatrix(nrows, ncols, rows)


def _betti_entries(ideal: Ideal, pieces: Sequence[GradedPiece] | _Ring,
                   q_max: int) -> BettiTable:
    """Rows 0..q_max of the betti table of `ideal` in all its variables.

    `pieces` holds M_0 through M_{q_max+1} by degree.  Each of the
    (n+1)(q_max+1) differentials is built once: a cell (p, q) also needs the
    rank at (p+1, q-1), which lies in the grid or is zero.
    """
    n = ideal.num_vars
    ranks = {(p, q): koszul_differential(ideal, p, q, pieces).rank(ideal.char_p)
             for q in range(q_max + 1) for p in range(n + 1)}
    entries = {}
    for (p, q), rank in ranks.items():
        kappa = comb(n, p) * pieces[q].dim - rank - ranks.get((p + 1, q - 1), 0)
        if kappa < 0:
            raise RuntimeError(f"negative cohomology dimension at (p={p}, q={q})")
        if kappa:
            entries[(p, q)] = Fraction(kappa)
    return BettiTable(entries)


def _cut(ideal: Ideal, var: int) -> Ideal:
    """I + (x_var) / (x_var), as an ideal of the ring without x_var."""
    generators = []
    for g in ideal.generators:
        cut = {mono[:var] + mono[var + 1:]: coeff for mono, coeff in g.items() if not mono[var]}
        if cut:
            generators.append(cut)
    return Ideal(ideal.num_vars - 1, tuple(generators), ideal.char_p)


def _injective(ring: _Ring, var: int, j: int) -> bool:
    """Whether x_var: M_{j-1} -> M_j on `ring` has full rank dim M_{j-1}, for j >= 1."""
    source, target = ring[j - 1], ring[j]
    rows = _multiplication(source, target, var, field(ring.ideal.char_p))
    return SparseMatrix(source.dim, target.dim, rows).rank(ring.ideal.char_p) == source.dim


def _cut_regular_variables(ideal: Ideal, q_max: int) -> tuple[Ideal, list[GradedPiece], bool]:
    """Cut by variables injective on M = S/I through degree m + 1, raising m until certified.

    Returns the cut ideal, its graded pieces M'_0 .. M'_m, and whether the
    Bayer-Stillman certificate fired.  Rows q <= m - 1 of the cut ring's
    betti table equal those of `ideal`; when certified, every row of `ideal`
    from m on is zero, and otherwise m = q_max + 1.  At least one variable
    always remains.

    Why rows q <= m - 1 agree.  Let l = x_v be injective M_{j-1} -> M_j for
    every 1 <= j <= D, let S' = S/(l), and M' = M/lM = S'/I', where I' is I
    with x_v set to zero.  Let L = ker(l: M(-1) -> M), so L_j = 0 for j <= D.
    The Koszul complex K(l; M) = [M(-1) -> M] contains L[1] (L placed in
    homological degree 1), and the quotient [M(-1)/L -> M] is injective with
    cokernel M'.  This gives the truncation triangle L[1] -> K(l; M) -> M'.
    Tensor it with the Koszul complex K' of S' on the other variables, which
    is free.  The middle term K'(K(l; M)) = K(x; M) computes Tor^S(M, k), the
    right one computes Tor^{S'}(M', k), and in internal degree p + q the long
    exact sequence reads

        H_{p-1}(K'(L))_{p+q} -> Tor^S_p(M)_{p+q} -> Tor^{S'}_p(M')_{p+q}
                             -> H_{p-2}(K'(L))_{p+q}.

    The outer terms are subquotients of wedge^{p-1} V' (x) L_{q+1} and
    wedge^{p-2} V' (x) L_{q+2}, which vanish for q <= D - 2.  So kappa_{p,q}
    is unchanged in every row q <= m - 1 when D = m + 1, and each further cut
    is certified the same way on the ring already cut.  D = m does not
    suffice: for I = (x0^2, x1*x2^2 - x0*x1^2) at m = 3, x2 is injective
    through degree 3, but cutting it adds kappa_{2,2} = 1.

    Injectivity in degree j is a rank on the ring below: the matrix of x_v
    from M_{j-1} to M_j has full rank dim M_{j-1} (`_injective`).  The sequence

        M_{j-1} --x_v--> M_j --> M'_j --> 0

    is exact, so dim M'_j = dim M_j - rank(x_v), and full rank is the same
    test as the Hilbert function identity dim M'_j = dim M_j - dim M_{j-1} of
    the cut ring, without building it.  Degree 0 needs no check: no generator
    has degree 0, so M_0 = k on every ring.

    The walk.  m starts at the top degree of a generator nonzero in the field
    (at least 1; reading them all into the field rejects a denominator the
    characteristic divides at any q_max), capped at q_max + 1.  At each m the
    chain is walked afresh from S/I: on each ring, the first variable in index
    order that is injective in every degree 1 <= j <= m + 1 is cut, and the
    walk stops on a ring whose piece m is 0, that has one variable, or on
    which no variable passes.  No variable can pass when dim M_{j-1} > dim M_j
    for some j <= m + 1, and then none is tried.  So the chain at m is a
    function of m alone.  Rings are remembered by their cut path, the tuple of
    variables cut in order, each a `_Ring` with the pieces stepped so far: a
    ring is a function of its path, and whether a variable passes on it in
    degree j never changes.  A ring is built only for a variable that has
    passed, so the memo holds only rings on some chain.  A variable is tested
    by ranks on pieces of the ring below, which the gate has already stepped
    through m + 1; a cut that passed at an earlier m is tested again through
    the new degree m + 1, and when it fails there the next variable that
    passes takes its place.  A ring inside the chain never has piece m zero,
    since the variable cut from it injects M_0 = k into piece m.

    The certificate fires when the last ring's piece m is 0, or when its one
    variable is injective through m + 1: cutting that leaves the field k,
    whose piece m is 0, and rows q <= m - 1 of k and of k[x]/(x^d),
    d >= m + 2, are both (0, 0) alone.  It also needs m at least the top
    generator degree.  Otherwise m is raised; at m = q_max + 1 the cut is
    certified through q_max + 2, rows 0..q_max agree, and the certificate is
    left unknown.
    """
    F = field(ideal.char_p)
    top = max((mono_degree(next(iter(g))) for g in ideal.generators if F.row(g)), default=0)
    rings = {(): _Ring(ideal)}
    for m in range(min(max(1, top), q_max + 1), q_max + 2):
        path, last = (), rings[()]
        while (last.ideal.num_vars > 1 and last[m].dim
               and all(last[j - 1].dim <= last[j].dim for j in range(1, m + 2))):
            for var in range(last.ideal.num_vars):
                if all(_injective(last, var, j) for j in range(1, m + 2)):
                    path += (var,)
                    if path not in rings:
                        rings[path] = _Ring(_cut(last.ideal, var))
                    last = rings[path]
                    break
            else:
                break
        zero = not last[m].dim or last.ideal.num_vars == 1 and last[m + 1].dim == 1
        if zero:
            break
    return last.ideal, last.pieces[:m + 1], zero and m >= top


def betti_table(ideal: Ideal, q_max: int) -> tuple[BettiTable, bool]:
    """All kappa_{p,q} for p <= num_vars, q <= q_max, and whether the table is certified complete.

    Coefficients are mapped into the field where the engine reads them; a
    denominator the characteristic divides raises ValueError whatever q_max
    is.  The table is computed on the ideal cut by certified regular
    variables (see `_cut_regular_variables`), which has the same rows.

    The flag is True exactly when the Bayer-Stillman certificate fired at
    some m <= q_max + 1: the generators have degree <= m, each cut form h_i
    is injective on S/(I, h_<i) from degree m to m + 1 (the colon condition
    ((I, h_<i) : h_i)_m = (I, h_<i)_m), and (I, h_1, ..., h_j)_m = S_m.
    Then I is m-regular, so S/I has no row from m on, and the table is
    complete: rows up to m - 1 agree with the cut ring's, and rows from m on
    vanish for S/I by regularity and for the cut ring because its pieces
    vanish from degree m on.  False means unknown, not incomplete; the rows
    through q_max are exact either way.
    """
    if q_max < 1:
        raise ValueError(f"need q_max >= 1, got {q_max}")
    ideal, pieces, certified = _cut_regular_variables(ideal, q_max)
    return _betti_entries(ideal, pieces, len(pieces) - 2), certified


def hilbert_consistency(ideal: Ideal, table: BettiTable, q_max: int) -> bool:
    """Euler-characteristic cross-check of a computed table.

    Compares the alternating sum over the table with the numerator series
    (1 - t)^{num_vars} * sum_q dim M_q t^q, coefficient by coefficient through
    degree q_max.
    """
    lhs = BettiTable({(p, q): value for (p, q), value in table.entries.items()
                      if p + q <= q_max}).hilbert_numerator()
    lhs += [0] * (q_max + 1 - len(lhs))
    ring, n = _Ring(ideal), ideal.num_vars
    rhs = []
    for j in range(q_max + 1):
        total = 0
        for i in range(min(j, n) + 1):
            total += (-1 if i % 2 else 1) * comb(n, i) * ring[j - i].dim
        rhs.append(total)
    return lhs == rhs
