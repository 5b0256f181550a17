"""Graded betti numbers of S/I as Koszul cohomology, by exact linear algebra.

For the quotient M = S/I of the polynomial ring by a homogeneous ideal, the
betti number at (p, q) is the dimension of the middle cohomology of

    wedge^{p+1} V (x) M_{q-1}  -->  wedge^p V (x) M_q  -->  wedge^{p-1} V (x) M_{q+1}

with the differential

    delta(e_{i_1} ^ ... ^ e_{i_p} (x) f)
        = sum_j (-1)^{j+1} e_{i_1} ^ ... e-hat_{i_j} ... ^ e_{i_p} (x) (x_{i_j} * f mod I).

Each graded piece M_q is realized concretely: the monomials of degree q,
the fully reduced row echelon of I_q among them, and the non-pivot
("standard") monomials as a basis of M_q.  A piece keeps the echelon in basis
coordinates, as the elimination kernel leaves it: each row keyed by column
indices into `monomials_of_degree(n, q)` and held in the field's own form (a
primitive integer vector over the rationals, monic residues mod p), as the
index-based Macaulay matrices of Faugere's F4 (J. Pure Appl. Algebra 139,
1999) are.  Every row the engine builds is keyed the same way, by the
monomial's column in S_q: the rules, the images of x_var, their echelons
and the differentials, whose columns are the free columns of a piece.  Only
`koszul_differential` reads a free column's place among them, the
coordinate in M_q, to lay out its matrix.  The monomials and Fractions of
a piece, `standard` and `rewrite`, are read off its kept rows only when
asked for.  A `_Ring` steps its pieces in
increasing degree from the pieces it already holds: for S/I by `_next_piece`,
which shifts the kept rows of M_{q-1} by the index maps x_v: S_{q-1} -> S_q
(`polyring.index_maps`, built once per number of variables and degree) and
skips the products the product criterion explains, and for a ring cut by a
variable by `_cut_piece`, which reads M_q / x_v * M_{q-1} off the ring below
and row-reduces no Macaulay matrix.  Each step's docstring proves its piece
equal, value for value, to the fully reduced echelon of I_q.  Everything is
exact; the field is the rationals or GF(p) as recorded on the ideal, and no
float appears anywhere.  All that differs between them is the field object
`linalg.field`, which the ring of S/I makes once and every ring cut from it
shares, ranks included.  Generators keep the ideal's rational coefficients
until the ring of S/I reads each into that field, once, keyed by its degree;
a generator that vanishes there is dropped.

Wedge basis vectors are strictly increasing index tuples in lex order; the
M_q basis is the standard monomials in descending graded-lex order.  This
fixes every matrix reproducibly.

`betti_table` computes the table on the ring cut by variables certified to
be regular in low degrees, so the differentials it builds live in fewer
variables, and it stops at the regularity.  Why the rows agree, and when
Bayer and Stillman's criterion certifies the table complete, is proved in
`_cut_regular_variables`.  `graded_piece`, `koszul_differential` and
`selftest.uncut_table` never cut.

The layer from the pieces to the ranks stays in the field's own integers:
the images of x_var are made from the kept rows they read, a rule per lead
read and none for the others (`_multiplication`), and every row handed to
elimination is made in the field's form in one step (`F.combine`).
Which differentials are built, why the others are read off dimensions and,
for delta_2, off the number of minimal generators of each degree, which
`_next_piece` counts as the pivots the generators add, and why each is
built only on the rows that the image of the differential below does not
lead, is in `_betti_entries`.  No row is eliminated here:
every row operation is `linalg`'s, `_echelon`, `reduced_echelon`, `leads`
or `substitute`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Container, Mapping, Sequence

from .linalg import (PrimeField, Rationals, Row, Rule, SparseMatrix, _echelon, field, leads,
                     reduced_echelon, substitute)
from .polyring import Ideal, Monomial, index_maps, mono_degree, monomials_of_degree
from .tables import BettiTable


class GradedPiece:
    """The degree-q slice M_q = S_q / I_q with a reduction rule into it.

    `rows` is the fully reduced echelon of I_q as `linalg.reduced_echelon`
    leaves it, {lead: row}: every lead and column is an index into `basis`,
    `monomials_of_degree(num_vars, q)`, and every row is in the form of the
    field `F`, a primitive integer vector over the rationals or monic
    residues mod p.  `free` is the non-pivot columns in order.  `dim`, their
    number, is dim M_q = dim S_q - rank I_q, and `ideal_dim` is rank I_q, the
    number of rows; both are set when the piece is made.  The piece's value,
    the one `==` compares, is q and two views of the rows: `standard`, the
    monomials of `free`, a basis of M_q, and `rewrite`, which sends each
    pivot monomial, a lead of I_q, to its normal form (a combination of
    standard monomials).  Both are read off the rows when first asked for;
    the engine reads the rows instead, and makes the rule of a lead
    (`F.rule`), keyed by the free columns of `basis`, only where it reads it.
    """

    def __init__(self, q: int, num_vars: int, F: Rationals | PrimeField, rows: dict[int, dict]):
        self.q, self.num_vars, self.F, self.rows = q, num_vars, F, rows
        self.basis = monomials_of_degree(num_vars, q) if q >= 0 else ()
        self.free = [col for col in range(len(self.basis)) if col not in rows]
        self.dim, self.ideal_dim = len(self.free), len(rows)

    @cached_property
    def standard(self) -> tuple[Monomial, ...]:
        return tuple(self.basis[col] for col in self.free)

    @cached_property
    def rewrite(self) -> dict[Monomial, dict[Monomial, Fraction | int]]:
        basis, coeff, rewrite = self.basis, self.F.coeff, {}
        for lead, row in self.rows.items():
            den, nums = self.F.rule(row, lead)
            rewrite[basis[lead]] = {basis[j]: coeff(Fraction(v, den)) for j, v in nums.items()}
        return rewrite

    def __eq__(self, other):
        if not isinstance(other, GradedPiece):
            return NotImplemented
        return (self.q, self.standard, self.rewrite) == (other.q, other.standard, other.rewrite)

    def __repr__(self):
        return f"GradedPiece(q={self.q}, standard={self.standard!r}, rewrite={self.rewrite!r})"


def _next_piece(ring: _Ring, q: int) -> GradedPiece:
    """Piece q of the ring of S/I, stepped up from its pieces q - 1 and q - 2.

    Its rows are the generators of degree exactly q and the products
    x_v * r_m, where r_m = m - sum(rule) is a rewrite rule of M_{q-1} with
    lead m, for v <= w(m): the smallest w with x_w | m and m / x_w in
    in(I_{q-2}), the leads of the rules of piece q - 2, or n - 1 when there
    is none.

    All products x_v * r_m and the generators of degree q span I_q, because
    I_q = S_1 * I_{q-1} + k * {generators of degree q}: for deg g < q,
    S_{q-deg g} * g = S_1 * S_{q-1-deg g} * g lies in S_1 * I_{q-1}, and the
    rules of M_{q-1} are a basis of I_{q-1}.  The skipped products add
    nothing.  The column order is lex, so lead(x_v * f) = x_v * lead(f), and
    an element of I_{q-1} whose lead lies below m is a combination of rules
    with leads below m.  Let W be the span of the kept products, and show
    x_v * r_m in W by induction on the pair (t, v), t = x_v * m, first on t
    in column order, then on v.  A kept product is in W.  Otherwise
    w = w(m) < v and u = m / x_w lies in in(I_{q-2}), so x_v * u lies in
    in(I_{q-1}), and

        x_w * r_u = r_m + (rules of I_{q-1} with leads below m),
        x_v * r_u = r_{x_v u} + (rules of I_{q-1} with leads below x_v * u).

    Multiplying the first by x_v and the second by x_w, x_v * r_m equals
    x_w * r_{x_v u} plus products whose leads lie below t, which are in W by
    induction on t; and x_w * r_{x_v u} has lead t and w < v, so it is in W
    by induction on v.  This is the product criterion of Gebauer and Moller
    (J. Symb. Comput. 6, 1988) read degree by degree, the trivial-syzygy rule
    of Faugere's F5.

    The induction uses products alone, so the kept products by themselves
    span S_1 * I_{q-1}.  The forward pass runs on them first (`_echelon`)
    and then continues on the generators of degree q (`reduced_echelon` from
    those pivots), so the pivots the generators add number
    rank I_q - rank S_1 * I_{q-1} = dim (I / S_+ * I)_q, for S_+ the ideal
    of the variables: beta_{1,q}, the number of minimal generators of I in
    degree q, which the ring records as `minimal[q]`.  A generator that lies
    in S_1 * I_{q-1}, repeats another, or vanishes in the field (and so was
    dropped when read) adds no pivot.

    The fully reduced echelon of a fixed span in a fixed column order is
    unique, so `standard` and `rewrite` are the same, value for value, as
    from row-reducing every m * g of degree q at once.  The rows are also
    short: each has at most 1 + dim M_{q-1} terms, and above the socle every
    row is a single monomial.

    Everything is read in basis coordinates, as in Faugere's F4 (J. Pure
    Appl. Algebra 139, 1999): x_v * r_m is the kept row of r_m with its
    columns sent through the index map x_v: S_{q-1} -> S_q, and w(m) is read
    off the leads of piece q - 2 sent through x_w: S_{q-2} -> S_{q-1}, the
    smallest w written last.  The generators of degree q, read into the
    field when the ring was made and kept by monomial, are put into basis
    coordinates here by the index of `monomials_of_degree(n, q)`, so no
    degree is listed that no piece reaches.  All rows are in the field's
    form, so `reduced_echelon` takes them as they are.
    """
    n, F = ring.num_vars, ring.F
    up, shift = index_maps(n, q - 2), index_maps(n, q - 1)
    first = {up[w][u]: w for w in range(n - 1, -1, -1) for u in ring[q - 2].rows}
    rows = []
    for lead, row in ring[q - 1].rows.items():
        for image in shift[:first.get(lead, n - 1) + 1]:
            rows.append({image[col]: value for col, value in row.items()})
    pivots = _echelon(rows, F)
    products, generators = len(pivots), []
    if q in ring.generators:
        index = {mono: i for i, mono in enumerate(monomials_of_degree(n, q))}
        generators = [{index[mono]: value for mono, value in row.items()}
                      for row in ring.generators[q]]
    rows = reduced_echelon(generators, F, pivots)
    ring.minimal[q] = len(rows) - products
    return GradedPiece(q, n, F, rows)


class _Ring:
    """One ring, stepped by itself: `ring[q]` is M_q, and 0 for q < 0.

    `_Ring(ideal)` is S/I.  It makes the field `F` and reads each generator
    into it once, as `generators`, its nonzero rows by degree, keyed by
    monomial, and steps piece q by `_next_piece`, which records in
    `minimal[q]` the number of minimal generators of I in degree q.
    `_Ring(below, var)` is the cut ring below / x_var * below, in the
    variables but x_var, whose piece q is `_cut_piece`, read off `source`,
    the ring below, and whose field and `minimal` are the ring below's, so
    those of `root`, the ring of S/I at the root of the cut chain (why a cut
    ring may read them is in `_betti_entries`); the root of S/I is itself.
    Stepping a cut ring's piece q steps piece q of every ring below it, so
    `minimal[q]` is recorded once `ring[q]` is read on any ring of the chain.
    Each step takes the ring and q and reads all else off the ring.  A ring
    makes `image(var, q)`, the rows of x_var: M_q -> M_{q+1} in the field's
    form, each made from the kept row of piece q + 1 it reads, and
    `echelon(var, q)`, the fully reduced echelon of the images of
    x_var: M_{q-1} -> M_q, each at most once.
    """

    def __init__(self, source: Ideal | _Ring, var: int | None = None):
        self.num_vars, self.source, self.var = source.num_vars - (var is not None), source, var
        self.pieces, self.images, self.echelons = [], {}, {}
        if var is None:
            self.root, self.F, self.generators, self.minimal = self, field(source.char_p), {}, {}
            for row in filter(None, map(self.F.row, source.generators)):
                self.generators.setdefault(mono_degree(next(iter(row))), []).append(row)
        else:
            self.root, self.F, self.minimal = source.root, source.F, source.minimal

    def __getitem__(self, q: int) -> GradedPiece:
        # each turn appends a piece, so it turns q + 1 - len(pieces) times at most
        while len(self.pieces) <= q:
            step = _next_piece if self.var is None else _cut_piece
            self.pieces.append(step(self, len(self.pieces)))
        return self.pieces[q] if q >= 0 else GradedPiece(q, self.num_vars, self.F, {})

    def image(self, var: int, q: int) -> list[Rule]:
        """The rows of x_var: M_q -> M_{q+1}, in the field's form (`_multiplication`), made once."""
        if (var, q) not in self.images:
            self.images[var, q] = _multiplication(self[q], self[q + 1], var)
        return self.images[var, q]

    def echelon(self, var: int, q: int) -> dict[int, dict]:
        """The fully reduced echelon of x_var: M_{q-1} -> M_q, keyed by the free columns of S_q."""
        if (var, q) not in self.echelons:
            rows = [self.F.combine(((0, 0),), (rule,)) for rule in self.image(var, q - 1)]
            self.echelons[var, q] = reduced_echelon(rows, self.F)
        return self.echelons[var, q]


def _cut_piece(ring: _Ring, q: int) -> GradedPiece:
    """Piece q of the cut ring M' = M / x_var * M, for M = `ring.source` and var = `ring.var`.

    M'_q = M_q / x_var * M_{q-1} is read off M_q and E = `M.echelon(var, q)`,
    the fully reduced echelon of the rows of x_var: M_{q-1} -> M_q
    (`_multiplication`), whose columns are the free columns of M_q, each
    keyed by its index in S_q as the kept rows of M_q are, so E is read as
    it is.  The standard monomials of M'_q are those of M_q that are not
    pivots of E.  Each kept row of M_q and each row of E whose lead has no
    x_var gives a kept row of M'_q, reduced against E by
    `linalg.substitute`, whose one pass suffices since E's tails avoid its
    pivots; a lead with x_var is dropped, and the columns kept are renamed
    into the cut ring's basis, the one renaming a row goes through.

    These are, value for value, the pieces of I + (x_var) / (x_var).  In
    degree q the cut ring's ideal, with x_var kept, is
    W = I_q + x_var * S_{q-1}.  Let NF be the normal form modulo I_q.  NF(W)
    is the span of E's rows, since x_var * I_{q-1} lies in I_q, and it lies
    in W, since I_q does; so W = I_q + NF(W), a direct sum, and
    in(W) = in(I_q) + in(NF(W)), disjoint: both lie in in(W), a normal form
    keeps a standard lead, so in(NF(W)), the pivots of E, are standard, and
    the sizes add up to dim W.  Every monomial with x_var lies in W, so no
    standard monomial of W has x_var.  The cut ideal's piece q is the part of
    W without x_var, so a lead without x_var has the same rule there as in W:
    the rule, lead minus normal form, lies in W and has no x_var.  Deleting
    x_var keeps the lex column order among the monomials without it, so the
    k-th monomial of S_q without x_var is the k-th of the cut ring's basis,
    and the fully reduced echelon of a fixed span is unique.  Elimination
    keeps each row in the field's form.
    """
    below, var, F = ring.source, ring.var, ring.F
    target, cuts = below[q], below.echelon(var, q)
    rename = {col: k for k, col in enumerate(
        col for col, mono in enumerate(target.basis) if not mono[var])}
    rows = {}
    for lead, row in (*target.rows.items(), *cuts.items()):
        if lead in rename:
            row = substitute(row, lead, cuts, F)
            rows[rename[lead]] = {rename[col]: value for col, value in row.items()}
    return GradedPiece(q, ring.num_vars, F, rows)


def graded_piece(ideal: Ideal, q: int) -> GradedPiece:
    """Row-reduce I_q inside S_q and package the quotient basis."""
    if q < 0:
        raise ValueError(f"degree must be nonnegative, got {q}")
    return _Ring(ideal)[q]


def _multiplication(source: GradedPiece, target: GradedPiece, var: int) -> list[Rule]:
    """The rows of x_var: M_q -> M_{q+1}, one per standard monomial m of M_q, in the field's form.

    The row of m, the k-th free column of M_q, is the k-th, and it is x_var * m
    in M_{q+1}, keyed by the free columns of S_{q+1}: the rule of the column
    t that x_var sends m to, made straight from its kept row (`F.rule`), or
    (1, {t: 1}) when t is free.  Only the leads the image reads get a rule,
    as the index-based Macaulay rows of Faugere's F4 are made on demand:
    x_var * standard(M_q) meets few of the leads of I_{q+1}.
    """
    image = index_maps(source.num_vars, source.q)[var]
    rows, rule = target.rows, target.F.rule
    return [rule(rows[t], t) if (t := image[col]) in rows else (1, {t: 1})
            for col in source.free]


def _wedge_rows(p: int, source: GradedPiece, target: GradedPiece, images: Sequence[list[Rule]],
                combine, skip: Container[int] = ()) -> list[Row]:
    """The rows of wedge^p V (x) M_q -> wedge^{p-1} V (x) M_{q+1}, p >= 1, but those in `skip`.

    `source` is M_q, `target` is M_{q+1}, and `images[v]` is
    x_v: M_q -> M_{q+1} (`_multiplication`) for each of the n = len(images)
    variables.  Rows and columns are keyed by S_q and S_{q+1}, as the images
    are: rows are the domain wedges in lex order, each with a row per free
    column of M_q, so the row of the i-th wedge and the free column c has
    index j = i * dim S_q + c, and the rules of the i-th codomain wedge land
    at i * dim S_{q+1} + their columns.  A row whose index is in `skip` is not
    built.  For a fixed wedge the j-th terms land in distinct codomain
    wedges, so no two terms of a row share a column and nothing cancels.
    `combine(places, rules)` makes each row in one step from its terms, each
    rule placed at its codomain wedge's (base, odd), negated at odd j:
    `F.combine` for a row in the field's form, or a read of the entries'
    values.
    """
    n, height, width = len(images), len(source.basis), len(target.basis)
    codomain = {wedge: i * width for i, wedge in enumerate(combinations(range(n), p - 1))}
    rows = []
    for i, wedge in enumerate(combinations(range(n), p)):
        places = [(codomain[wedge[:j] + wedge[j + 1:]], j % 2) for j in range(p)]
        base = i * height
        rows += [combine(places, rules) for col, rules in
                 zip(source.free, zip(*[images[var] for var in wedge])) if base + col not in skip]
    return rows


def koszul_differential(ideal: Ideal | _Ring, p: int, q: int,
                        pieces: Sequence[GradedPiece] | Mapping[int, GradedPiece]) -> SparseMatrix:
    """Matrix of wedge^p V (x) M_q -> wedge^{p-1} V (x) M_{q+1}, rows = domain basis.

    Of `ideal` only the number of variables is read.  M_q and M_{q+1} are
    read as `pieces[q]` and `pieces[q + 1]`, from anything that holds the
    pieces by degree: a list, a dict or a `_Ring`, and the images of x_v are
    built from them by `_multiplication`, in the pieces' field, as the
    engine's are.  The entries are read out as values of the field:
    Fractions over the rationals, residues mod p.  This is the one reader
    of M's own coordinates: `_wedge_rows` keys the rules of the i-th
    codomain wedge at i * dim S_{q+1} + their free columns, and each is
    put at i * dim M_{q+1} + its place among the free columns of M_{q+1}.
    The rows come in the order of the domain basis, so they need no
    renaming.  The engine builds its differentials by `_differential`
    instead, in the field's form, from images its ring holds, and keeps
    the columns of S_{q+1}.
    """
    if p < 0 or q < 0:
        raise ValueError(f"need p >= 0 and q >= 0, got p={p}, q={q}")
    n = ideal.num_vars
    source, target = pieces[q], pieces[q + 1]
    nrows = comb(n, p) * source.dim
    ncols = comb(n, p - 1) * target.dim if p >= 1 else 0
    if nrows == 0 or ncols == 0:
        return SparseMatrix(nrows, ncols)
    coeff, width, dim = target.F.coeff, len(target.basis), target.dim
    place = {col: k for k, col in enumerate(target.free)}

    def entries(places, rules):
        return {base // width * dim + place[col]: coeff(Fraction(-v if odd else v, den))
                for (base, odd), (den, nums) in zip(places, rules) for col, v in nums.items()}

    images = [_multiplication(source, target, var) for var in range(n)]
    return SparseMatrix(nrows, ncols, _wedge_rows(p, source, target, images, entries))


def _differential(ring: _Ring, p: int, q: int, skip: Container[int]) -> list[Row]:
    """The rows of `koszul_differential(ring, p, q, ring)`, p >= 2, but those in `skip`.

    They are built from the ring's images of x_v, and each spans the line
    of that matrix's row as `F.combine` makes it: a primitive integer vector
    over the rationals, residues mod p, with its columns keyed by S_{q+1} as
    `_wedge_rows` keys them.  A row whose index, j = i * dim S_q + c, is in
    `skip` is not built, and no row is built when the matrix has no row or
    no column.
    """
    if not (ring[q].dim and ring[q + 1].dim):
        return []
    images = [ring.image(var, q) for var in range(ring.num_vars)]
    return _wedge_rows(p, ring[q], ring[q + 1], images, ring.F.combine, skip)


def _delta2_rank(ring: _Ring, q: int) -> int:
    """The rank of delta_2: wedge^2 V (x) M_q -> V (x) M_{q+1}, read off the pieces, not built.

    It is n * dim M_{q+1} - dim M_{q+2} - beta_{1,q+2}, the count
    `ring.minimal[q + 2]`, and 0 when dim M_{q+1} = 0, with no further piece
    stepped.  Why, and on which rows of a cut ring, is in `_betti_entries`.
    """
    width = ring[q + 1].dim
    return width and ring.num_vars * width - ring[q + 2].dim - ring.minimal[q + 2]


def _betti_entries(ring: _Ring, q_max: int) -> BettiTable:
    """Rows 0..q_max of the betti table of `ring` in all its variables.

    The ring's pieces M_0 through M_{q_max+1} are read, and M_{q_max+2} when
    M_{q_max+1} is not 0.  A cell (p, q) needs the ranks at (p, q) and
    (p+1, q-1), which lie in the grid or are zero.  Column 0 above row 0
    needs none: for q >= 1, delta_0 has no column and
    delta_1: V (x) M_{q-1} -> M_q is onto (below), so
    kappa_{0,q} = dim M_q - dim M_q = 0, and no p = 0 rank is kept above
    row 0.  Three families of ranks are fixed by the complex and read, not
    built.

    The rank of delta_1: V (x) M_q -> M_{q+1} is dim M_{q+1}, since it is
    onto: it sends e_v (x) f to x_v * f, and S_1 * M_q = M_{q+1} for any
    quotient M = S/I, which is generated in degree 0.

    The rank of delta_p: wedge^p V (x) M_0 -> wedge^{p-1} V (x) M_1 is
    C(n, p) - C(n - dim M_1, p), for every p.  M_0 = k, since no generator
    has degree 0 (`Ideal` admits none, and a cut ring keeps M_0), and
    M_1 = V / W with W = I_1, of dimension n - dim M_1.  Write V = W (+) U,
    so U maps isomorphically onto M_1; the differential does not depend on
    the basis of V.  Multiplication by an element of W is 0 from M_0 to M_1,
    so on wedge^a W (x) wedge^b U, a + b = p, delta_p is +-1 on wedge^a W
    tensored with the Koszul map wedge^b U -> wedge^{b-1} U (x) U of Sym U
    in degree b, and distinct (a, b) land in distinct summands.  That map is
    injective for b >= 1 over any field: the Koszul complex of Sym U is
    exact away from (0, 0), and nothing maps into wedge^b U (x) Sym^0 U.  So
    the kernel is wedge^p W, in any characteristic, and
    kappa_{p,0} = C(dim I_1, p).  This covers p = 0 and p = 1 as well.

    The rank of delta_2: wedge^2 V (x) M_q -> V (x) M_{q+1} is
    n * dim M_{q+1} - dim M_{q+2} - beta_{1,q+2} (`_delta2_rank`).  The cell
    (1, q + 1) is kappa_{1,q+1} = n * dim M_{q+1} - rank delta_{1,q+1}
    - rank delta_{2,q}, with rank delta_{1,q+1} = dim M_{q+2} as above, and
    kappa_{1,q+1} = dim Tor_1(M, k)_{q+2} = beta_{1,q+2}, the number of
    minimal generators of I in degree q + 2, since Tor_1(S/I, k) = I / S_+ I.
    `_next_piece` counts it as `minimal[q + 2]`, from the pivots the
    generators add.  When dim M_{q+1} = 0, delta_{2,q} has no column and its
    rank is 0, and no piece past M_{q+1} is stepped for it.  A cut ring reads
    the counts of the ring of S/I at the root of its chain, and they are its
    own in every row it is asked for.  At p = 1 the exact sequence of
    `_cut_regular_variables`'s truncation triangle, in internal degree
    q + 1, is

        H_0(K'(L))_{q+1} -> Tor^S_1(M)_{q+1} -> Tor^{S'}_1(M')_{q+1} -> H_{-1}(K'(L))_{q+1} = 0,

    and its left term is a subquotient of wedge^0 V' (x) L_{q+1} = L_{q+1},
    which is 0 for q + 1 <= D = m + 1.  So each cut keeps kappa_{1,q} through
    row m, that is beta_{1,j} for j <= m + 1, and so does the whole chain,
    each cut certified at the same m.  Rows q <= m - 1, all that
    `betti_table` reads, use counts of degree q + 2 <= m + 1.  Reading
    `ring[q + 2]` steps piece q + 2 of every ring below it, so the count is
    recorded; when the walk has cut a variable it has stepped every ring of
    the chain through m + 1 already.

    So only the differentials with p >= 3 and q >= 1 are built, each once,
    from the images of x_v: M_q -> M_{q+1} the ring makes once per variable
    and degree, in the field's form, and ranked in the ring's field.

    Each is built only on the rows that no boundary leads.  Let
    W = wedge^p V (x) M_q, whose basis vector e_j, j = i * dim S_q + c for
    the i-th wedge in lex order and the free column c of S_q, is row j of
    delta_p = delta_{p,q} and column j of delta_{p+1} = delta_{p+1,q-1}: both
    are keyed by S_q's columns (`_wedge_rows`), and j rises with (i, c).  Let
    B = im delta_{p+1} in W and in(B) the least columns of B's nonzero
    elements, which are the leads of any echelon of rows spanning B
    (`linalg.leads`).  Then W = B (+) U for U = span{e_j : j not in in(B)}:
    a nonzero element of B has its least column in in(B), and so does not
    lie in U, and dim B = |in(B)|, so the dimensions add up to dim W.  Since
    delta_p sends B to 0 (delta_p delta_{p+1} = 0), delta_p(W) = delta_p(U),
    so rank delta_p is the rank of its rows e_j, j not in in(B), over any
    field.  Of those dim W - rank delta_{p+1} rows, exactly kappa_{p,q}
    reduce to zero.  Row q is computed after row q - 1, and in(B) is kept
    from there as a set, the leads of delta_{p+1,q-1}'s forward echelon, for
    row q alone.  That echelon was itself built on kept rows only, but they
    span the same image B, by the same argument one row down, so its leads
    are in(B).  At q = 1 every row is kept, since delta_{p+1,0} is read off
    dim M_1 and not built, and at p = n nothing is skipped, since
    wedge^{n+1} V = 0.
    """
    n, F = ring.num_vars, ring.F
    ranks = {(p, 0): comb(n, p) - comb(n - ring[1].dim, p) for p in range(n + 1)}
    below: dict[int, set[int]] = {}
    for q in range(1, q_max + 1):
        ranks[1, q], ranks[2, q] = ring[q + 1].dim, _delta2_rank(ring, q)
        below = {p: leads(_differential(ring, p, q, below.get(p + 1, ())), F)
                 for p in range(3, n + 1)}
        ranks.update({(p, q): len(lead) for p, lead in below.items()})
    entries = {}
    for (p, q), r in ranks.items():
        kappa = comb(n, p) * ring[q].dim - r - ranks.get((p + 1, q - 1), 0)
        if kappa < 0:
            raise RuntimeError(f"negative cohomology dimension at (p={p}, q={q})")
        if kappa:
            entries[(p, q)] = kappa
    return BettiTable(entries)


def _cut_regular_variables(ideal: Ideal, q_max: int) -> tuple[tuple[int, ...], _Ring, int, bool]:
    """Cut by variables injective on M = S/I through degree m + 1, raising m until certified.

    Returns the cut path (the variables cut, in order, each indexed in the
    ring it is cut from), the cut ring, the degree m, and whether the
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

    Injectivity in degree j is a rank on the ring below: the echelon of x_v
    from M_{j-1} to M_j, `ring.echelon(v, j)`, has dim M_{j-1} rows.  The
    ring makes it once and reads it again for the cut ring's piece j, so the
    rows of x_v are eliminated once per ring, variable and degree.  The sequence

        M_{j-1} --x_v--> M_j --> M'_j --> 0

    is exact, so dim M'_j = dim M_j - rank(x_v), and full rank is the same
    test as the Hilbert function identity dim M'_j = dim M_j - dim M_{j-1} of
    the cut ring, without building it.  Degree 0 needs no check: no generator
    has degree 0, so M_0 = k on every ring.

    The walk.  m starts at the top degree of a generator nonzero in the field
    (at least 1), read off the generators of the ring of S/I, which reads them
    all into the field when it is made and so rejects a denominator the
    characteristic divides at any q_max; m is capped at q_max + 1.  At each m the
    chain is walked afresh from S/I: on each ring, the first variable in index
    order that is injective in every degree 1 <= j <= m + 1 is cut, and the
    walk stops on a ring whose piece m is 0, that has one variable, or on
    which no variable passes.  No variable can pass when dim M_{j-1} > dim M_j
    for some j <= m + 1, and then none is tried.  Each turn of the walk
    either stops or cuts a variable, so it turns at most n - 1 times at each
    m, for n the number of variables of S.  So the chain at m is a
    function of m alone.  Rings are remembered by their cut path, the tuple of
    variables cut in order, each a `_Ring` with the pieces stepped so far: a
    ring is a function of its path, and whether a variable passes on it in
    degree j never changes.  A ring is built only for a variable that has
    passed, so the memo holds only rings on some chain.  A variable is tested
    by the echelons of the ring below, on pieces the gate has already stepped
    through m + 1, each echelon made once and kept by that ring; a cut that
    passed at an earlier m is tested again, with new work only in the new
    degree m + 1, and when it fails there the next variable that passes takes
    its place.  A ring inside the chain never has piece m zero, since the
    variable cut from it injects M_0 = k into piece m.  A cut ring
    is made from the ring below and the variable, not from an ideal: its
    piece q is M_q / x_v * M_{q-1} of the ring below, the cut ideal's piece
    value for value (`_cut_piece`).  The gate has already stepped
    the ring below through m + 1, and the test has made the echelons of x_v
    through m + 1, so reading the cut ring's pieces 0..m + 1 steps no further
    piece below and eliminates nothing again.

    The certificate is Bayer and Stillman's criterion (Invent. Math. 87
    (1987), Thm 1.10, direction (b) => (a), which needs no genericity and so
    holds over GF(p) too): if every generator of I has degree <= m, each cut
    form h_i satisfies ((I, h_<i) : h_i)_m = (I, h_<i)_m, and
    (I, h_1, ..., h_j)_m = S_m, then I is m-regular.  The colon condition is
    injectivity of h_i from degree m to m + 1 on the ring cut so far, which
    the walk has checked, and the last condition says the last ring's piece m
    is 0.  The certificate also fires when the last ring's one variable is
    injective through m + 1: cutting that leaves the field k, whose piece m
    is 0, and rows q <= m - 1 of k and of k[x]/(x^d), d >= m + 2, are both
    (0, 0) alone.  When it fires, rows q <= m - 1 of S/I are the cut ring's,
    and rows q >= m vanish on both sides: for S/I by m-regularity, for the
    cut ring because its pieces vanish from degree m on.  So the table is
    exact in every row.  Otherwise m is raised; at m = q_max + 1 the cut is
    certified through q_max + 2, rows 0..q_max agree, and the certificate is
    left unknown.
    """
    rings = {(): _Ring(ideal)}
    top = max(rings[()].generators, default=0)
    for m in range(min(max(1, top), q_max + 1), q_max + 2):
        path, last = (), rings[()]
        while (last.num_vars > 1 and last[m].dim
               and all(last[j - 1].dim <= last[j].dim for j in range(1, m + 2))):
            for var in range(last.num_vars):
                if all(len(last.echelon(var, j)) == last[j - 1].dim for j in range(1, m + 2)):
                    path += (var,)
                    if path not in rings:
                        rings[path] = _Ring(last, var)
                    last = rings[path]
                    break
            else:
                break
        zero = not last[m].dim or last.num_vars == 1 and last[m + 1].dim == 1
        if zero:
            break
    return path, last, m, zero and m >= top


def betti_table(ideal: Ideal, q_max: int) -> tuple[BettiTable, bool]:
    """All kappa_{p,q} for p <= num_vars, q <= q_max, and whether the table is certified complete.

    Coefficients are mapped into the field where the engine reads them; a
    denominator the characteristic divides raises ValueError whatever q_max
    is.  The table is computed on the ideal cut by certified regular
    variables (see `_cut_regular_variables`), which has the same rows.

    The flag is True exactly when the Bayer-Stillman certificate of
    `_cut_regular_variables` fired at some m <= q_max + 1; then I is
    m-regular and the table is complete.  False means unknown, not
    incomplete; the rows through q_max are exact either way.
    """
    return _betti(ideal, q_max)[:2]


def _betti(ideal: Ideal, q_max: int) -> tuple[BettiTable, bool, _Ring]:
    """`betti_table`'s table and flag, and the walk's ring of S/I, with the pieces it stepped."""
    if q_max < 1:
        raise ValueError(f"need q_max >= 1, got {q_max}")
    _, ring, m, certified = _cut_regular_variables(ideal, q_max)
    return _betti_entries(ring, m - 1), certified, ring.root


def hilbert_consistency(ideal: Ideal, table: BettiTable, q_max: int) -> bool:
    """Euler-characteristic cross-check of a computed table.

    Compares the alternating sum over the table with the numerator series
    (1 - t)^{num_vars} * sum_q dim M_q t^q, coefficient by coefficient through
    degree q_max.
    """
    return _hilbert_matches(_Ring(ideal), table, q_max)


def _hilbert_matches(ring: _Ring, table: BettiTable, q_max: int) -> bool:
    """`hilbert_consistency` on `ring`, a ring of S/I, which may hold pieces stepped already.

    Piece q of a ring of S/I depends on the ideal and q alone, so a ring
    `_betti` returns reads the same dimensions a fresh `_Ring(ideal)` does,
    and the check stays independent of the table.
    """
    lhs = BettiTable({(p, q): value for (p, q), value in table.entries.items()
                      if p + q <= q_max}).hilbert_numerator()
    lhs += [0] * (q_max + 1 - len(lhs))
    n = ring.num_vars
    return lhs == [sum((-1) ** i * comb(n, i) * ring[j - i].dim for i in range(min(j, n) + 1))
                   for j in range(q_max + 1)]
