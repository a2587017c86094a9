"""Fixed pure-Python work that measures how fast the host runs right now.

    python3 perfbench/calibrate.py      # prints the seconds one pass took

The reference machine's speed swings by up to 2x within a minute, and CPU
time swings with it, so a raw operation time says more about the host than
about the code.  The benchmark times this pass next to every timed operation
and reports the operation time scaled to a host on which one pass takes
``run.REF_CALIBRATION_S``.  The pass does what ``cobord`` does most: sparse
products of dict polynomials with tuple exponents and int coefficients, and
``Fraction`` sums.  It imports nothing from ``cobord``, so a change to the
package does not move it.
"""

import random
import time
from fractions import Fraction

_RNG = random.Random(5)
_X, _Y = ({tuple(_RNG.randrange(4) for _ in range(6)): _RNG.randrange(-99, 99)
           for _ in range(160)} for _ in range(2))


def one_pass() -> float:
    """Seconds taken by one pass of the fixed work."""
    start = time.perf_counter()
    for _ in range(3):
        out = {}
        for kx, vx in _X.items():
            for ky, vy in _Y.items():
                key = tuple(a + b for a, b in zip(kx, ky))
                out[key] = out.get(key, 0) + vx * vy
    total = Fraction(0)
    for i in range(1, 2000):
        total += Fraction(1, i)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(one_pass())
