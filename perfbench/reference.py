"""A fixed pure-Python loop that gauges how fast this host runs Python right now.

On a small shared virtual machine the speed of the same single-threaded
Python code drifts by up to 1.8x over minutes, as neighbours load the host,
and the drift moves a raw wall time far more than any bound a regression
check could use.  So every timed segment of the benchmark is preceded by one
run of this loop, and the segment's wall time w is also reported in
reference seconds, w * REFERENCE_SECONDS / r, where r is the loop's wall time
just measured.  The loop uses the operations bettikit's kernels spend their
time on (dict-of-row sparse elimination mod p, integer gcds, Fraction
arithmetic) but no bettikit code, so a change to bettikit moves the
reference-second figures exactly as it moves the wall times.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from time import perf_counter

# The loop's median wall time on the machine the first baselines were taken
# on (2 vCPUs, Python 3.11.7); one reference second there is one wall second.
REFERENCE_SECONDS = 0.05

_PRIME = 32003
_rng = random.Random(20250723)
_ROWS = [{_rng.randrange(48): _rng.randrange(1, _PRIME) for _ in range(5)} for _ in range(160)]
_PAIRS = [(_rng.randrange(1, 10**12), _rng.randrange(1, 10**12)) for _ in range(2000)]
del _rng


def _eliminate_mod_p() -> int:
    pivots: dict[int, dict[int, int]] = {}
    for original in _ROWS:
        row = dict(original)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(row[lead], _PRIME - 2, _PRIME)
                pivots[lead] = {j: v * inv % _PRIME for j, v in row.items()}
                break
            factor = row[lead]
            for j, v in pivot.items():
                w = (row.get(j, 0) - factor * v) % _PRIME
                if w:
                    row[j] = w
                else:
                    row.pop(j, None)
    return len(pivots)


def _rationals() -> Fraction:
    total = Fraction(0)
    for a, b in _PAIRS:
        g = gcd(a, b)
        total += Fraction(a // g % 97 + 1, b // g % 89 + 1)
    return total


def reference_seconds() -> float:
    """Wall seconds of one run of the reference loop."""
    start = perf_counter()
    for _ in range(2):
        _eliminate_mod_p()
        _rationals()
    return perf_counter() - start
