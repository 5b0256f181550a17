"""Exact-output benchmark for bettikit.

    python3 perfbench/run.py --workload koszul-rnc --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: bettikit is imported from its `src`.  The
run is single-process and single-threaded.

Timed run (`--trace 0`): set-up (import bettikit, build the seeded inputs) is
repeated and its median reported as `setup_s`.  Then one warm-up pass, then
passes until `--seconds` of measuring have elapsed, with a `gc.collect()`
before each and every output checked exactly after each, outside the timer.
`pass_s` is the median pass, in reference seconds (see reference.py).

Traced run (`--trace 1`): the same warm-up and untraced passes, then one
pass with a span around every public call, then the probe: each Koszul table
rebuilt from `graded_piece`, `koszul_differential` and `SparseMatrix.rank`
and compared with `betti_table`'s.  For the fixed-shape workloads the work
counters are checked to repeat exactly under the next seed.  Spans go to
`.perfbench_out/trace-<workload>-<seed>.json`.

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every output was exactly right.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from reference import REFERENCE_SECONDS, reference_seconds
from spans import LAYER_METRICS, WORK_SPANS, NullTracer, Tracer, layer_metrics
from workloads import WORKLOADS, load_bettikit

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 11
MAX_SHOWN = 20
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Clock:
    """Wall time of timed segments, and the same time in reference seconds.

    The reference loop is run at both ends of every segment, and the
    segment's host speed is taken as the mean of the two gauges, so it is
    measured next to the work it distorts (see reference.py).  Back-to-back
    segments share the gauge between them.
    """

    def __init__(self):
        self.walls: list[float] = []
        self.references: list[float] = []
        self._gauge: float | None = None

    @contextmanager
    def segment(self):
        before = self._gauge if self._gauge is not None else reference_seconds()
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self._gauge = reference_seconds()
            self.walls.append(elapsed)
            self.references.append(elapsed * REFERENCE_SECONDS * 2 / (before + self._gauge))


def set_up(name: str, seed: int, tiny: bool):
    clock = Clock()
    with clock.segment():
        workload = WORKLOADS[name](load_bettikit(), seed, tiny)
    return clock, workload


class Tally:
    """Outputs attempted and the problems found in them, across a run."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def add(self, result: tuple[int, list[str]]):
        self.attempted += result[0]
        self.problems.extend(result[1])


def untraced_passes(workload, seconds: float, tally: Tally) -> list[Clock]:
    tally.add(workload.check(workload.run_pass(NullTracer(), Clock())))  # warm-up
    clocks: list[Clock] = []
    start = perf_counter()
    while not clocks or perf_counter() - start < seconds:
        gc.collect()
        clocks.append(Clock())
        tally.add(workload.check(workload.run_pass(NullTracer(), clocks[-1])))
    return clocks


def traced_pass(workload, tally: Tally) -> tuple[Tracer, Clock]:
    gc.collect()
    tracer, clock = Tracer(), Clock()
    outputs = workload.run_pass(tracer, clock)
    tally.add(workload.check(outputs))
    tally.add(workload.probe(tracer, outputs))
    return tracer, clock


def median_of(clocks: list[Clock], attr: str) -> float:
    """Each segment's median over the clocks, summed over the segments.

    A pass times the same inputs in the same segments every time, so this is
    the pass of median inputs; it is steadier than the median of pass totals
    when one long segment drifts.
    """
    columns = zip(*(getattr(clock, attr) for clock in clocks), strict=True)
    return sum(statistics.median(column) for column in columns)


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, prepare=None) -> dict:
    """One run; `prepare(workload)` may alter the workload after set-up (self-test)."""
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        clock, workload = set_up(name, seed, tiny)
        setups.append(clock)
    if prepare is not None:
        prepare(workload)
    tally = Tally()
    passes = untraced_passes(workload, seconds, tally)
    info = {"workload": name, "seed": seed, "sizes": workload.sizes(),
            "passes": len(passes), "setups": len(setups),
            "pass_wall_s": median_of(passes, "walls"), "setup_wall_s": median_of(setups, "walls")}
    if not trace:
        metrics = {"pass_s": median_of(passes, "references"),
                   "setup_s": median_of(setups, "references"),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    else:
        tracer, clock = traced_pass(workload, tally)
        if workload.fixed_shape:
            _, other = set_up(name, seed + 1, tiny)
            other_tracer, _ = traced_pass(other, tally)
            tally.attempted += 1
            if tracer.counters(WORK_SPANS) != other_tracer.counters(WORK_SPANS):
                tally.problems.append(f"work counters differ between seeds {seed} and {seed + 1}")
        metrics = layer_metrics(tracer, sum(clock.walls) - info["pass_wall_s"])
        units = LAYER_METRICS
        tracer.write(OUT / f"trace-{name}-{seed}.json", info)
    return {"info": info, "problems": tally.problems,
            "result": {"correct": not tally.problems, "attempted": tally.attempted,
                       "failed": len(tally.problems),
                       "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import bettikit: {exc}", file=sys.stderr)
        return 2
    info, result = run["info"], run["result"]
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"{platform.system()}-{platform.machine()}")
    print(f"workload: {info['workload']} seed={info['seed']} -- {info['sizes']}")
    print(f"samples: {info['passes']} timed passes, {info['setups']} set-ups; median wall "
          f"seconds: pass {info['pass_wall_s']}, set-up {info['setup_wall_s']}")
    for problem in run["problems"][:MAX_SHOWN]:
        print(f"WRONG: {problem}")
    if len(run["problems"]) > MAX_SHOWN:
        print(f"WRONG: ... and {len(run['problems']) - MAX_SHOWN} more")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(f"error_rate = {result['failed'] / result['attempted']} "
          f"({result['failed']} of {result['attempted']} outputs)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
