"""Check that the working tree prints the same outputs as a git revision.

    python3 tools/same_outputs.py REV

REV's `src/` and `demos/` are extracted with `git archive` into a temporary
directory.  Each tree then runs, in subprocesses of its own whose PYTHONPATH
is that tree's `src`:

* a corpus through the public API, printed one case per line:
  - 2 seeds x 150 `selftest.random_ideal` ideals, each over the rationals,
    GF(32003) and GF(2), at q_max 1, 2 and 3 (2700 cases): the table and
    `complete` from `betti_table`, and the cut path and m from
    `koszul._cut_regular_variables`, the one private function read;
  - 300 `selftest.random_chain_table` tables, scaled to 1 at (0, 0): the
    first nontrivial strand, the terms of `bs_decompose` in order, the
    multiplicity at each length, and the reports of `check_first_strand`
    and `check_next_to_max` at each codimension up to the table's width
    plus one, complete and not;
* `bettikit fixtures`, `bettikit selftest`, and each demo under `demos/`.

The stdout and exit status of each are compared line by line.  The first
difference is printed and the exit status is 1; otherwise the number of
lines compared is printed and the exit status is 0.  Run from any directory
inside the repository; the working tree's files are read as they are, not
as committed.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def emit_corpus(tree: Path) -> None:
    """Print the corpus outputs of the bettikit found under `tree`/src, one case per line."""
    import bettikit
    from bettikit import BettiTable, bounds, decompose, koszul, selftest

    if Path(bettikit.__file__).resolve().parent != (tree / "src" / "bettikit").resolve():
        raise SystemExit(f"bettikit was imported from {bettikit.__file__}, not {tree / 'src'}")

    def attempt(call):
        try:
            return call()
        except Exception as exc:  # an exception is an output like any other
            return f"raised {exc!r}"

    def ideal_case(ideal, q_max):
        table, complete = koszul.betti_table(ideal, q_max)
        path, _, m, _ = koszul._cut_regular_variables(ideal, q_max)
        return sorted(table.entries.items()), complete, path, m

    for seed in (1, 2):
        rng = random.Random(seed)
        for i in range(150):
            ideal = selftest.random_ideal(rng)
            for char_p in (None, 32003, 2):
                field_ideal = replace(ideal, char_p=char_p)
                for q_max in (1, 2, 3):
                    print(f"ideal {seed}/{i} p={char_p} q_max={q_max}:",
                          attempt(lambda: ideal_case(field_ideal, q_max)))

    def report(check, *args):
        return json.dumps(check(*args).to_json_dict(), sort_keys=True)

    rng = random.Random(3)
    for i in range(300):
        table, terms = selftest.random_chain_table(rng)
        # scaled to 1 at (0, 0), so the strand checks get past column 0
        table = BettiTable({cell: v / table.entry(0, 0) for cell, v in table.entries.items()})
        print(f"chain {i} table:", sorted(table.entries.items()))
        decomposition = attempt(lambda: decompose.bs_decompose(table))
        if isinstance(decomposition, str):
            print(f"chain {i} terms:", decomposition)
        else:
            print(f"chain {i} terms:", [(str(c), d.degrees) for c, d in decomposition.terms])
        width = max(d.length for _, d in terms)
        strand = attempt(lambda: bounds.first_nontrivial_strand(table))
        print(f"chain {i} strand:", strand)
        for e in range(1, width + 2):
            if not isinstance(decomposition, str):
                print(f"chain {i} e={e} multiplicity:", attempt(
                    lambda: decompose.multiplicity_from_decomposition(decomposition, e)))
            for complete in (True, False):
                assumptions = bounds.Assumptions(codim_e=e)
                print(f"chain {i} e={e} complete={complete} first strand:", attempt(
                    lambda: report(bounds.check_first_strand, table, assumptions,
                                   strand if isinstance(strand, int) else 1, complete)))
                print(f"chain {i} e={e} complete={complete} next to max:", attempt(
                    lambda: report(bounds.check_next_to_max, table, assumptions, complete)))


def run(tree: Path, args: list[str]) -> list[str]:
    """The stdout lines of `python args` run in `tree` on its own `src`, then its exit status."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    return done.stdout.splitlines() + [f"exit status {done.returncode}"]


def outputs(tree: Path) -> dict[str, list[str]]:
    """Every compared output of one tree, by name."""
    found = {"corpus": run(tree, [__file__, "--emit", str(tree)]),
             "bettikit fixtures": run(tree, ["-m", "bettikit.cli", "fixtures"]),
             "bettikit selftest": run(tree, ["-m", "bettikit.cli", "selftest"])}
    for demo in sorted((tree / "demos").glob("*.py")):
        found[f"demos/{demo.name}"] = run(tree, [str(demo)])
    return found


def first_difference(old: dict[str, list[str]], new: dict[str, list[str]]) -> str | None:
    if sorted(old) != sorted(new):
        return f"outputs differ: {sorted(old)} against {sorted(new)}"
    for name in old:
        for k in range(max(len(old[name]), len(new[name]))):
            a = old[name][k] if k < len(old[name]) else "<end of output>"
            b = new[name][k] if k < len(new[name]) else "<end of output>"
            if a != b:
                return f"{name}, line {k + 1}:\n  revision:     {a}\n  working tree: {b}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        emit_corpus(Path(argv[1]))
        return 0
    if len(argv) != 1:
        print("usage: python3 tools/same_outputs.py REV", file=sys.stderr)
        return 64
    rev = argv[0]
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src", "demos"],
                             cwd=ROOT, capture_output=True)
    if archive.returncode:
        print(archive.stderr.decode().strip(), file=sys.stderr)
        return 64
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(tmp, filter="data")
            else:
                tar.extractall(tmp)
        old = outputs(Path(tmp))
    new = outputs(ROOT)
    difference = first_difference(old, new)
    if difference:
        print(f"{rev} and the working tree differ at {difference}")
        return 1
    print(f"same outputs as {rev}: {sum(map(len, new.values()))} lines in {len(new)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
