"""The benchmark's four workloads: seeded inputs, one pass, and the exact gate.

Each workload is built from a freshly imported bettikit (`load_bettikit`) and a
seed, and offers three things:

* `run_pass(tracer, clock)` calls bettikit's public functions once on every
  input, timing them in `clock` segments, and returns the raw outputs (an
  exception raised by a call is kept as its output);
* `check(outputs)` compares every output exactly with a closed form or with the
  fixture's own expectation, outside any timed region, and returns
  (outputs attempted, problems);
* `probe(tracer, outputs)` is the traced run's extra work: it rebuilds each
  Koszul table from `graded_piece`, `koszul_differential` and
  `SparseMatrix.rank`, records the work counters on the spans, and returns
  (outputs compared, problems), a problem being a rebuilt table that differs
  from `betti_table`'s.

Every problem string stands for one wrong or raised output.

Nothing here imports bettikit at module level, so a pass always uses the
modules of the most recent set-up.
"""

from __future__ import annotations

import importlib
import os
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("bounds", "decompose", "fixtures", "koszul", "polyring", "selftest", "tables")
PRIME = 32003
FIELDS = (("gf", f"gf {PRIME}"), ("qq", "rational"))


def load_bettikit() -> SimpleNamespace:
    """Import bettikit afresh from the checkout's `src`, dropping any earlier import."""
    if not (SRC / "bettikit" / "__init__.py").is_file():
        raise ImportError(f"no bettikit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "bettikit" or m.startswith("bettikit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {name: importlib.import_module(f"bettikit.{name}") for name in MODULES}
    if Path(modules["koszul"].__file__).resolve().parent != SRC / "bettikit":
        raise ImportError(f"bettikit was imported from {modules['koszul'].__file__}, not {SRC}")
    return SimpleNamespace(**modules)


def entries_of(table) -> dict:
    return dict(table.entries)


# --------------------------------------------------------------------------
# Polynomials as ideal-file text.  The benchmark writes ideals as text so that
# set-up pays for `polyring.parse_ideal`, as a user of the CLI does.

def _poly_text(poly: dict[tuple[int, ...], int]) -> str:
    parts = []
    for mono in sorted(poly, reverse=True):
        coeff = poly[mono]
        factors = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(mono) if e]
        body = "*".join(([str(abs(coeff))] if abs(coeff) != 1 else []) + factors)
        if parts:
            parts.append(f"{'-' if coeff < 0 else '+'} {body}")
        else:
            parts.append(f"-{body}" if coeff < 0 else body)
    return " ".join(parts)


def _ideal_text(num_vars: int, field_line: str, generators) -> str:
    lines = [f"vars {num_vars}", f"field {field_line}"]
    lines.extend(_poly_text(g) for g in generators)
    return "\n".join(lines) + "\n"


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _unit(num_vars: int, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(num_vars))


# --------------------------------------------------------------------------
# Koszul workloads: betti_table over GF(32003) and over QQ.

@dataclass
class KoszulCase:
    label: str
    field: str                 # "gf" or "qq"
    ideal: object
    qmax: int
    expected: dict             # {(p, q): int}, the closed-form table


class KoszulWorkload:
    """Shared pass, gate and probe of `koszul-rnc` and `pieces-ci`."""

    def __init__(self, bk: SimpleNamespace):
        self.bk = bk
        self.cases: list[KoszulCase] = []

    def _add(self, label: str, num_vars: int, generators, qmax: int, expected: dict):
        for field, field_line in FIELDS:
            ideal = self.bk.polyring.parse_ideal(_ideal_text(num_vars, field_line, generators))
            self.cases.append(KoszulCase(f"{label} {field}", field, ideal, qmax, expected))

    def run_pass(self, tracer, clock) -> list:
        outputs = []
        for case in self.cases:
            with clock.segment(), tracer.span("koszul.betti_table", case=case.label,
                                               field=case.field):
                try:
                    table, _complete = self.bk.koszul.betti_table(case.ideal, case.qmax)
                except Exception as exc:  # counted as a failed output by check()
                    table = exc
            outputs.append(table)
        return outputs

    def check(self, outputs) -> tuple[int, list[str]]:
        # Only the table is compared: the advisory `complete` flag can be wrong.
        problems = []
        for case, out in zip(self.cases, outputs, strict=True):
            if isinstance(out, Exception):
                problems.append(f"{case.label}: raised {out!r}")
            elif entries_of(out) != case.expected:
                problems.append(f"{case.label}: got {out!r}, expected {case.expected}")
        return len(outputs), problems

    def probe(self, tracer, outputs) -> tuple[int, list[str]]:
        problems = []
        for case, out in zip(self.cases, outputs, strict=True):
            rebuilt = rebuild_table(self.bk, tracer, case.label, case.ideal, case.qmax)
            if isinstance(out, Exception) or rebuilt != entries_of(out):
                problems.append(f"{case.label}: rebuilt {rebuilt} differs from {out!r}")
        return len(outputs), problems


def rebuild_table(bk, tracer, label: str, ideal, qmax: int) -> dict:
    """kappa_{p,q} = C(n,p) dim M_q - rank(p,q) - rank(p+1,q-1) from the layer calls.

    The same graded pieces, differentials and ranks `betti_table` needs, each
    call in its own span carrying its exact work counters.
    """
    n = ideal.num_vars
    degrees = [max(sum(m) for m in g) for g in ideal.generators]
    with tracer.span("koszul.rebuild", case=label):
        pieces = {}
        for q in range(qmax + 2):
            with tracer.span("koszul.graded_piece", q=q) as attrs:
                piece = bk.koszul.graded_piece(ideal, q)
            attrs.update(rows=sum(comb(q - d + n - 1, n - 1) for d in degrees if d <= q),
                         ideal_dim=piece.ideal_dim, piece_dim=piece.dim)
            pieces[q] = piece
        ranks = {}
        for q in range(qmax + 1):
            for p in range(n + 1):
                with tracer.span("koszul.differential", p=p, q=q) as attrs:
                    matrix = bk.koszul.koszul_differential(ideal, p, q, pieces)
                attrs.update(nnz=sum(len(row) for row in matrix.rows),
                             cells=matrix.nrows * matrix.ncols)
                with tracer.span("linalg.rank", p=p, q=q) as attrs:
                    rank = matrix.rank(ideal.char_p)
                attrs.update(rows=matrix.nrows, rank=rank)
                ranks[(p, q)] = rank
    table = {}
    for q in range(qmax + 1):
        for p in range(n + 1):
            kappa = comb(n, p) * pieces[q].dim - ranks[(p, q)] - ranks.get((p + 1, q - 1), 0)
            if kappa:
                table[(p, q)] = kappa
    return table


class KoszulRNC(KoszulWorkload):
    """Rational normal curves, checked against the extremal family kappa_max(p, 1, e).

    The seed picks a sign for every variable (x_i -> +-x_i) and the order of
    the 2x2 minors.  Neither changes a graded piece's dimension, a matrix's
    shape, nnz or rank, so the work counters repeat exactly across seeds.
    """

    name = "koszul-rnc"
    fixed_shape = True

    def __init__(self, bk, seed: int, tiny: bool = False):
        super().__init__(bk)
        rng = random.Random(seed)
        self.codims = range(1, 3) if tiny else range(4, 8)
        self.qmax = 2 if tiny else 3
        for e in self.codims:
            n = e + 2
            signs = [rng.choice((-1, 1)) for _ in range(n)]
            minors = []
            for i, j in combinations(range(n - 1), 2):
                a = tuple(x + y for x, y in zip(_unit(n, i), _unit(n, j + 1)))
                b = tuple(x + y for x, y in zip(_unit(n, i + 1), _unit(n, j)))
                minors.append({a: signs[i] * signs[j + 1], b: -signs[i + 1] * signs[j]})
            rng.shuffle(minors)
            expected = {(0, 0): 1}
            expected.update({(p, 1): comb(p, 1) * comb(e + 1, p + 1) for p in range(1, e + 1)})
            self._add(f"rnc e={e}", n, minors, self.qmax, expected)

    def sizes(self) -> str:
        return (f"rational normal curves e={self.codims.start}..{self.codims.stop - 1} "
                f"({self.codims.start + 2}-{self.codims.stop + 1} vars), qmax={self.qmax}, "
                f"GF({PRIME}) and QQ, {len(self.cases)} tables")


class PiecesCI(KoszulWorkload):
    """Artinian complete intersections l_1^a, l_2^b, l_3^c in 3 variables.

    The linear forms are the rows of A = L U, L unit lower and U unit upper
    triangular with every entry below or above the diagonal a sign, so
    det A = 1 and the ideal is a complete intersection over QQ and over every
    GF(p).  The seed picks a sign s_i per variable and sets L_ij = s_i s_j and
    U_ij = s_i s_j; A is then the dense Pascal matrix up to x_i -> s_i x_i,
    which keeps every coefficient's size and every matrix's shape and nnz, so
    the work counters repeat exactly across seeds.  The table is the Koszul
    complex: beta_{p, j} counts the p-subsets of the degrees summing to j.
    """

    name = "pieces-ci"
    fixed_shape = True

    def __init__(self, bk, seed: int, tiny: bool = False):
        super().__init__(bk)
        rng = random.Random(seed)
        self.degree_sets = ((2, 2, 2), (2, 2, 3)) if tiny else ((3, 4, 5), (4, 4, 5))
        for degrees in self.degree_sets:
            n = len(degrees)
            signs = [rng.choice((-1, 1)) for _ in range(n)]
            lower = [[signs[i] * signs[j] if j <= i else 0 for j in range(n)] for i in range(n)]
            upper = [[signs[i] * signs[j] if j >= i else 0 for j in range(n)] for i in range(n)]
            forms = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
                     for i in range(n)]
            generators = []
            for row, degree in zip(forms, degrees):
                linear = {_unit(n, j): c for j, c in enumerate(row) if c}
                power = {(0,) * n: 1}
                for _ in range(degree):
                    power = _poly_mul(power, linear)
                generators.append(power)
            expected: dict = {}
            for p in range(n + 1):
                for subset in combinations(degrees, p):
                    cell = (p, sum(subset) - p)
                    expected[cell] = expected.get(cell, 0) + 1
            socle = sum(degrees) - n
            self._add(f"ci {degrees}", n, generators, socle + 2, expected)

    def sizes(self) -> str:
        return (f"complete intersections of degrees {list(self.degree_sets)} in 3 vars, "
                f"qmax=socle+2, GF({PRIME}) and QQ, {len(self.cases)} tables")


# --------------------------------------------------------------------------
# Peeling, reconstruction, multiplicity and strand bounds on chain tables.

CHAIN = dict(max_terms=16, max_length=10, max_entry=60, max_denominator=100)
# Tables are drawn until the pure diagrams of their generating terms total this
# many cells (sum of len(d)), which is what the peeling, reconstruction and
# multiplicity work grows with, so every seed asks for about the same work.
CHAIN_CELLS = 5600


@dataclass
class ChainCase:
    table: object
    terms: dict                # {degrees: coefficient}, the generating chain
    codim: int                 # shortest length: the multiplicity's codimension
    width: int                 # longest length: the strand check's e
    strand: int
    multiplicity: Fraction
    columns: list              # [(p, observed, bound)] of the strand check
    verdict: str


def strand_verdict(entries: dict, e: int, q: int) -> tuple[list, str]:
    """The first-strand comparison from the closed form C(p+q-1, q) C(e+q, p+q)."""
    width = max(e, max(p for p, _ in entries))
    columns = [(p, entries.get((p, q), 0), comb(p + q - 1, q) * comb(e + q, p + q))
               for p in range(1, width + 1)]
    if any(observed > bound for _, observed, bound in columns):
        return columns, "Violation"
    hits = sum(1 for p, observed, bound in columns if p <= e and observed == bound)
    return columns, "AllMax" if hits == e else "NoneMax" if hits == 0 else "MixedMaxInconsistent"


class TablePipeline:
    """Seeded chain tables through bs_decompose, reconstruct, multiplicity and bounds."""

    name = "table-pipeline"
    fixed_shape = False

    def __init__(self, bk, seed: int, tiny: bool = False):
        self.bk = bk
        rng = random.Random(seed)
        self.params = {} if tiny else CHAIN
        self.cases = []
        diagram_cells = 0
        while diagram_cells < (30 if tiny else CHAIN_CELLS):
            table, terms = bk.selftest.random_chain_table(rng, **self.params)
            entries = entries_of(table)
            # The shortest sequence may have length 0 (a free summand); the
            # strand check needs e >= 1, so it is given the table's width.
            codim = min(d.length for _, d in terms)
            width = max(d.length for _, d in terms)
            strand = max(1, min(q for p, q in entries if p == 1))
            mult = sum(c * _multiplicity(d.degrees) for c, d in terms if d.length == codim)
            columns, verdict = strand_verdict(entries, width, strand)
            self.cases.append(ChainCase(table, {d.degrees: c for c, d in terms}, codim,
                                        width, strand, mult, columns, verdict))
            diagram_cells += sum(len(d) for _, d in terms)

    def sizes(self) -> str:
        cells = sum(len(case.table.entries) for case in self.cases)
        terms = sum(len(case.terms) for case in self.cases)
        diagram_cells = sum(len(d) for case in self.cases for d in case.terms)
        return (f"{len(self.cases)} chain tables ({cells} cells, {terms} generating terms "
                f"with {diagram_cells} pure-diagram cells), "
                f"random_chain_table({', '.join(f'{k}={v}' for k, v in self.params.items())})")

    def run_pass(self, tracer, clock) -> list:
        outputs = []
        with clock.segment():
            for case in self.cases:
                outputs.append(self._pipeline(tracer, case))
        return outputs

    def _pipeline(self, tracer, case):
        bk = self.bk
        try:
            with tracer.span("decompose.bs_decompose") as attrs:
                decomposition = bk.decompose.bs_decompose(case.table)
            attrs["passes"] = len(decomposition.terms)
            with tracer.span("decompose.reconstruct"):
                rebuilt = decomposition.reconstruct()
            with tracer.span("decompose.multiplicity"):
                mult = bk.decompose.multiplicity_from_decomposition(decomposition, case.codim)
            with tracer.span("bounds.check"):
                report = bk.bounds.check_first_strand(
                    case.table, bk.bounds.Assumptions(codim_e=case.width), case.strand)
        except Exception as exc:  # counted as a failed output by check()
            return exc
        return decomposition, rebuilt, mult, report

    def check(self, outputs) -> tuple[int, list[str]]:
        problems = []
        for i, (case, out) in enumerate(zip(self.cases, outputs, strict=True)):
            if isinstance(out, Exception):
                problems.append(f"table {i}: raised {out!r}")
                continue
            decomposition, rebuilt, mult, report = out
            got = {d.degrees: c for c, d in decomposition.terms}
            columns = [(c.p, c.observed, c.bound) for c in report.per_p]
            wrong = []
            if got != case.terms:
                wrong.append(f"terms {sorted(got)} != {sorted(case.terms)}")
            if entries_of(rebuilt) != entries_of(case.table):
                wrong.append("reconstruction differs")
            if mult != case.multiplicity:
                wrong.append(f"multiplicity {mult} != {case.multiplicity}")
            if columns != case.columns or report.verdict != case.verdict:
                wrong.append(f"verdict {report.verdict} != {case.verdict}")
            if wrong:
                problems.append(f"table {i}: {'; '.join(wrong)}")
        return len(outputs), problems

    def probe(self, tracer, outputs) -> tuple[int, list[str]]:
        return 0, []


def _multiplicity(degrees: tuple[int, ...]) -> Fraction:
    """e(d) = (1/l!) prod_{k >= 1} (d_k - d_0)."""
    product = 1
    for d in degrees[1:]:
        product *= d - degrees[0]
    return Fraction(product, factorial(len(degrees) - 1))


# --------------------------------------------------------------------------
# The bundled fixture corpus.

class FixturesCorpus:
    """`fixtures.run_all()`, gated by its own empty problem lists.

    The corpus is bundled with the package, so the seed changes no input.
    """

    name = "fixtures-corpus"
    fixed_shape = True

    def __init__(self, bk, seed: int, tiny: bool = False):
        os.environ.pop(bk.fixtures.ENV_DIR, None)  # always the bundled corpus
        self.bk = bk
        self.texts = {e.name: bk.fixtures.load_text(e.filename) for e in bk.fixtures.FIXTURES}
        self.ideals = {e.name: bk.polyring.parse_ideal(self.texts[e.name])
                       for e in bk.fixtures.FIXTURES if e.is_ideal()}

    def sizes(self) -> str:
        return (f"{len(self.texts)} fixtures ({len(self.ideals)} ideals computed over both "
                f"fields, {len(self.texts) - len(self.ideals)} tables)")

    def run_pass(self, tracer, clock) -> list:
        try:
            with clock.segment(), tracer.span("fixtures.run_all"):
                return self.bk.fixtures.run_all()
        except Exception as exc:  # counted as a failed output by check()
            return [(entry, [f"run_all raised {exc!r}"]) for entry in self.bk.fixtures.FIXTURES]

    def check(self, outputs) -> tuple[int, list[str]]:
        problems = [f"{entry.name}: {'; '.join(found)}" for entry, found in outputs if found]
        names = [entry.name for entry, _ in outputs]
        if names != [entry.name for entry in self.bk.fixtures.FIXTURES]:
            problems.append(f"run_all covered {names}")
        return len(outputs), problems

    def probe(self, tracer, outputs) -> tuple[int, list[str]]:
        """Each fixture alone, its layers in both fields, and each Koszul table rebuilt."""
        bk = self.bk
        problems = []
        for entry in bk.fixtures.FIXTURES:
            with tracer.span("fixtures.run_fixture", fixture=entry.name):
                wrong = bk.fixtures.run_fixture(entry)
            if not entry.is_ideal():
                with tracer.span("tables.from_text", fixture=entry.name):
                    bk.tables.BettiTable.from_text(self.texts[entry.name])
            else:
                for field, char_p in (("gf", PRIME), ("qq", None)):
                    ideal = replace(self.ideals[entry.name], char_p=char_p)
                    label = f"{entry.name} {field}"
                    with tracer.span("koszul.betti_table", case=label, field=field):
                        table, _complete = bk.koszul.betti_table(ideal, entry.qmax)
                    with tracer.span("koszul.hilbert_consistency", case=label):
                        consistent = bk.koszul.hilbert_consistency(ideal, table, entry.qmax)
                    if not consistent:
                        wrong.append(f"{field}: hilbert consistency failed")
                    rebuilt = rebuild_table(bk, tracer, label, ideal, entry.qmax)
                    if rebuilt != entries_of(table):
                        wrong.append(f"{field}: rebuilt {rebuilt} differs from {table!r}")
            if wrong:
                problems.append(f"{entry.name}: {'; '.join(wrong)}")
        return len(bk.fixtures.FIXTURES), problems


WORKLOADS = {w.name: w for w in (KoszulRNC, PiecesCI, TablePipeline, FixturesCorpus)}
