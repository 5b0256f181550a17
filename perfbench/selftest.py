"""Self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Checks, for every workload, that a timed and a traced run pass the exact gate
and report every metric, that the same seed builds the same inputs, and that
the gate flags a run whose expected output was deliberately corrupted.
Exits 1 if any check fails.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from run import END_TO_END, measure
from spans import LAYER_METRICS
from workloads import WORKLOADS, FixturesCorpus, KoszulWorkload, TablePipeline, load_bettikit


def corrupt_expected(workload):
    """Change one expected value, so that a correct program now fails the gate."""
    if isinstance(workload, KoszulWorkload):
        workload.cases[0].expected[(0, 0)] += 1
    elif isinstance(workload, TablePipeline):
        terms = workload.cases[0].terms
        first = next(iter(terms))
        terms[first] += 1
    elif isinstance(workload, FixturesCorpus):
        fixtures = workload.bk.fixtures
        entry = next(e for e in fixtures.FIXTURES if e.is_ideal())
        wrong = replace(entry, expected_table=entry.expected_table[:-1])
        fixtures.FIXTURES = tuple(wrong if e is entry else e for e in fixtures.FIXTURES)
    else:
        raise TypeError(f"no corruption defined for {type(workload).__name__}")


def inputs_of(workload) -> list:
    if isinstance(workload, KoszulWorkload):
        return [(case.label, case.ideal) for case in workload.cases]
    if isinstance(workload, TablePipeline):
        return [(case.table, case.terms) for case in workload.cases]
    return sorted(workload.texts.items())


def main() -> int:
    failures = []

    def expect(condition: bool, message: str):
        print(("ok   " if condition else "FAIL ") + message)
        if not condition:
            failures.append(message)

    for name, cls in WORKLOADS.items():
        timed = measure(name, seed=1, seconds=0.05, trace=False, tiny=True)["result"]
        expect(timed["correct"] and timed["failed"] == 0 and timed["attempted"] > 0,
               f"{name}: tiny timed run passes the gate")
        expect(timed["metrics"].keys() == END_TO_END.keys()
               and all(m["value"] > 0 for m in timed["metrics"].values()),
               f"{name}: every end-to-end metric is reported and nonzero")

        traced = measure(name, seed=1, seconds=0.05, trace=True, tiny=True)
        expect(traced["result"]["correct"],
               f"{name}: tiny traced run passes the gate, rebuilt tables equal betti_table's"
               + "".join(f"\n     {p}" for p in traced["problems"]))
        expect(traced["result"]["metrics"].keys() == LAYER_METRICS.keys(),
               f"{name}: every per-layer metric is reported")

        corrupted = measure(name, seed=1, seconds=0.05, trace=False, tiny=True,
                            prepare=corrupt_expected)["result"]
        expect(not corrupted["correct"] and corrupted["failed"] > 0,
               f"{name}: the gate flags a corrupted expected output "
               f"({corrupted['failed']} of {corrupted['attempted']} flagged)")

        bk = load_bettikit()
        same = inputs_of(cls(bk, 5)) == inputs_of(cls(bk, 5))
        other = inputs_of(cls(bk, 5)) != inputs_of(cls(bk, 6))
        expect(same, f"{name}: the same seed builds the same inputs")
        if cls is not FixturesCorpus:
            expect(other, f"{name}: another seed builds other inputs")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
