"""Command-line interface.

Subcommands: pure, decompose, betti, check, fixtures, selftest.  JSON output
(--out json / --format json) is the machine contract, text is for humans.
Exit codes: 0 success / no violation, 1 malformed input or failed run,
2 bound violation, 64 usage error.

Errors take one path: a command raises ValueError (or OSError) and `main`
prints it as one line and returns 1.  Input files are read through
`tables.load`, so their errors read `path:line:column: message`; any other
error reads `error: message`.  Integers on the command line and in files have
the one syntax of `tables.integer`, and `--field` the one grammar of
`polyring.parse_field`.  `check` reaches the bounds only through
`bounds.check_strand`, which picks the check for the table's strand and
refuses a codimension whose report cannot print.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .bounds import Assumptions, check_Ndm, check_strand, degree_bounds
from .decompose import bs_decompose, multiplicity_from_decomposition
from .fixtures import run_all as run_fixtures
from .koszul import betti_table
from .polyring import parse_field, parse_ideal
from .pure import hk_diagram, multiplicity
from .selftest import run_all as run_sweeps
from .tables import BettiTable, DegreeSequence, ParseError, integer, json_payload, load

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_table(text: str) -> tuple[BettiTable, bool]:
    """The table and whether it is complete: false only where JSON from `betti` says so."""
    if not text.lstrip().startswith("{"):
        return BettiTable.from_text(text), True
    payload = json_payload(text)
    table = BettiTable.from_json_dict(payload)
    complete = payload.get("complete", True)
    if not isinstance(complete, bool):
        raise ValueError(f"'complete' in the JSON table is {complete!r}, not true or false")
    return table, complete


def _load_table(path: str) -> tuple[BettiTable, bool]:
    table, complete = load(path, _parse_table)
    # shift rows so the minimum generator degree (column 0) sits at (0, 0)
    shift = min((q for p, q in table.entries if p == 0), default=0)
    if shift <= 0 or any(q < shift for _, q in table.entries):
        return table, complete
    print(f"note: rows shifted down by {shift} so the first generator sits at (0, 0)",
          file=sys.stderr)
    return BettiTable({(p, q - shift): v for (p, q), v in table.entries.items()}), complete


def cmd_pure(args) -> int:
    d = DegreeSequence.parse(args.degrees)
    table = hk_diagram(d)
    scale = None
    if args.clear_denominators:
        table, scale = table.cleared()
    if args.out == "json":
        payload = table.to_json_dict()
        payload["degrees"] = list(d.degrees)
        payload["multiplicity"] = str(multiplicity(d))
        if scale is not None:
            payload["cleared_by"] = scale
        print(json.dumps(payload))
    else:
        if scale is not None:
            print(f"cleared by: {scale}")
        sys.stdout.write(table.to_text())
        print(f"multiplicity: {multiplicity(d)}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    """Decompose a table; one marked incomplete gets no multiplicity and no short-term warning.

    Its missing rows could lengthen the terms and change the multiplicity.
    """
    table, complete = _load_table(args.table_file)
    decomposition = bs_decompose(table)
    degree = (None if args.codim is None
              else multiplicity_from_decomposition(decomposition, args.codim))
    terms = decomposition.sorted_terms()
    if args.codim is not None and complete:
        short = [d for _, d in terms if d.length < args.codim]
        if short:
            print(f"warning: {len(short)} term(s) shorter than codimension {args.codim}",
                  file=sys.stderr)
    if args.format == "json":
        payload = {"terms": [{"coefficient": str(c), "degrees": list(d.degrees)}
                             for c, d in terms]}
        if degree is not None and complete:
            payload["multiplicity"] = str(degree)
        if not complete:
            payload["complete"] = False
        print(json.dumps(payload))
    else:
        for coefficient, d in terms:
            print(f"{coefficient}  {d}")
        if degree is not None and complete:
            print(f"multiplicity (length {args.codim} part): {degree}")
        if not complete:
            print("note: the table is marked incomplete, so rows past its qmax may hold "
                  "entries: the decomposition is of the rows given, and no multiplicity is stated")
    return EXIT_OK


def cmd_betti(args) -> int:
    ideal = load(args.ideal_file, parse_ideal)
    if args.field is not None:
        ideal = replace(ideal, char_p=parse_field(args.field))
    if args.qmax < 1:
        raise ValueError(f"--qmax must be at least 1, got {args.qmax}")
    table, complete = betti_table(ideal, args.qmax)
    if args.out == "json":
        payload = table.to_json_dict()
        payload["field"] = ideal.field_label()
        payload["qmax"] = args.qmax
        payload["complete"] = complete
        print(json.dumps(payload))
    else:
        print(f"field: {ideal.field_label()}")
        print(f"complete: {'certified' if complete else 'unknown'}")
        sys.stdout.write(table.to_text())
    return EXIT_OK


def cmd_check(args) -> int:
    """Check a table against the strand bounds, stating nothing its missing rows could change.

    Its rows through qmax are exact, so a verdict, a predicted degree and a
    failing pattern or shape stand.  The degree upper bound, the degree of
    the decomposition, N_{d,m} holding and the pure resolution shape holding
    need every row, and are dropped.
    """
    table, complete = _load_table(args.table_file)
    assumptions = Assumptions(codim_e=args.codim, nd_q=args.assert_nd, lgp=args.assert_lgp)
    ndm_holds = None if args.ndm is None else check_Ndm(table, *args.ndm)
    report = check_strand(table, assumptions, args.next_to_max, complete)
    lines = []
    payload: dict = {"codim": args.codim, "nd_q": args.assert_nd, "lgp": args.assert_lgp}
    if report is None:
        lines.append("no nontrivial strand: nothing to check")
    else:
        strand = report.q_strand
        lines.append(f"first nontrivial strand: q = {strand}")
        lines.append(f"assumptions: codim e = {args.codim}, "
                     f"nd(q) {'asserted' if args.assert_nd else 'not asserted'}, "
                     f"lgp {'asserted' if args.assert_lgp else 'not asserted'}")
        lines.append("  p   observed   bound   attains-max")
        for c in report.per_p:
            flag = "yes" if c.attains_max else ("EXCEEDS" if c.observed > c.bound else "no")
            lines.append(f"  {c.p:<3} {str(c.observed):<10} {c.bound:<7} {flag}")
        verdict = report.verdict if report.verdict_p is None else (
            f"{report.verdict}(p={report.verdict_p})")
        lines.append(f"verdict: {verdict}")
        if report.degree_predicted is not None:
            lines.append(f"predicted degree: {report.degree_predicted}")
        if report.shape_ok is not None:
            lines.append(f"pure resolution shape: {'holds' if report.shape_ok else 'fails'}")
        for note in report.notes:
            lines.append(f"note: {note}")
        payload["report"] = report.to_json_dict()
        bound = degree_bounds(args.codim, strand)
        if args.assert_nd:
            lines.append(f"degree >= {bound} (asserted vanishing hypothesis)")
            payload["degree_lower"] = bound
        if complete and check_Ndm(table, strand + 1, args.codim):
            lines.append(f"degree <= {bound} (table satisfies the N_{{{strand + 1},{args.codim}}} "
                         "vanishing pattern)")
            payload["degree_upper"] = bound
    if args.ndm is not None and (complete or not ndm_holds):
        d, m = args.ndm
        lines.append(f"property N_{{{d},{m}}}: {'holds' if ndm_holds else 'fails'}")
        payload[f"ndm_{d}_{m}"] = ndm_holds
    if not complete:
        lines.append("note: the table is marked incomplete, so rows past its qmax may hold "
                     "entries: the degree upper bound, the degree of its decomposition, and "
                     "N_{d,m} and the pure resolution shape holding are not stated")
        payload["complete"] = False
    if args.out == "json":
        print(json.dumps(payload))
    else:
        print("\n".join(lines))
    if report is not None and report.has_violation():
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_fixtures(args) -> int:
    results, failures = run_fixtures(), 0
    for entry, problems in results:
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {entry.name} [{entry.filename}]")
        for problem in problems:
            print(f"     {problem}")
    print(f"{len(results) - failures}/{len(results)} fixtures passed")
    return EXIT_OK if failures == 0 else EXIT_INPUT


def cmd_selftest(args) -> int:
    failed = 0
    for name, cases, failures in run_sweeps():
        failed += bool(failures)
        print(f"FAIL {name} ({cases} cases): {failures[0]}" if failures
              else f"PASS {name} ({cases} cases)")
    return EXIT_OK if failed == 0 else EXIT_INPUT


def integer_pair(text: str) -> tuple[int, int]:
    """'D,M' as two integers; a ValueError, which argparse reports, otherwise."""
    d, m = map(integer, text.split(","))
    return d, m


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bettikit",
                     description="Exact betti tables, pure diagrams, and strand bounds")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_pure = sub.add_parser("pure", help="print the normalized pure diagram of a degree sequence")
    p_pure.add_argument("degrees", help="comma-separated degree sequence, e.g. 0,3,4,5")
    p_pure.add_argument("--clear-denominators", action="store_true")
    p_pure.add_argument("--out", choices=["text", "json"], default="text")
    p_pure.set_defaults(func=cmd_pure)

    p_dec = sub.add_parser("decompose", help="decompose a betti table into pure diagrams")
    p_dec.add_argument("table_file")
    p_dec.add_argument("--format", "--out", dest="format", choices=["text", "json"],
                       default="text")
    p_dec.add_argument("--codim", type=integer, default=None,
                       help="minimal permitted length for the multiplicity sum")
    p_dec.set_defaults(func=cmd_decompose)

    p_betti = sub.add_parser("betti", help="betti table of an ideal's quotient ring")
    p_betti.add_argument("ideal_file")
    p_betti.add_argument("--qmax", type=integer, required=True)
    p_betti.add_argument("--field", default=None,
                         help="override the input file's field: 'rational', 'gf P' or 'gfP'")
    p_betti.add_argument("--out", choices=["text", "json"], default="text")
    p_betti.set_defaults(func=cmd_betti)

    p_check = sub.add_parser("check", help="check a table against the strand bounds")
    p_check.add_argument("table_file")
    p_check.add_argument("--codim", type=integer, required=True)
    p_check.add_argument("--assert-nd", action="store_true",
                         help="assert the vanishing-on-sections hypothesis")
    p_check.add_argument("--assert-lgp", action="store_true",
                         help="assert linearly general position of a general section")
    p_check.add_argument("--next-to-max", action="store_true",
                         help="check the next-to-maximal bound for row 1")
    p_check.add_argument("--ndm", type=integer_pair, default=None, metavar="D,M",
                         help="also report the N_{D,M} vanishing pattern")
    p_check.add_argument("--out", choices=["text", "json"], default="text")
    p_check.set_defaults(func=cmd_check)

    p_fix = sub.add_parser("fixtures", help="list and run the bundled fixture corpus")
    p_fix.set_defaults(func=cmd_fixtures)

    p_self = sub.add_parser("selftest", help="run the exhaustive small-range sweeps")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        located = isinstance(exc, ParseError) and exc.path is not None
        print(exc if located else f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
