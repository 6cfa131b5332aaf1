"""A fixed loop whose time tracks how fast the machine runs right now.

On a shared machine other tenants slow every process down by up to a
factor of two, in phases that last from seconds to minutes, so two runs of
the same code can differ by half their time.  The benchmark therefore
times this loop next to the operations it measures and reports an
operation's time as (operation time / loop time) x NOMINAL_S: seconds on a
machine where the loop takes NOMINAL_S.  A slowdown that hits both cancels;
a slower program still shows in full.

The loop mixes the kinds of work the package does: pure-Python mpmath at
65 digits, Fraction arithmetic, numpy on arrays of a few elements, and
integer arithmetic.  It uses nothing from the package, so no change to the
package can move it.
"""

from fractions import Fraction
from time import perf_counter

import numpy as np
from mpmath import mp, mpf

NOMINAL_S = 0.01

_E = np.array([[1.0, 2.0], [3.0, 0.0], [0.0, 4.0], [2.0, 2.0]])
_V = np.array([0.3, 0.2])
_C = np.ones(4)
_STARTS = np.array([0, 2])


def loop_s() -> float:
    """Wall time of one pass of the fixed loop."""
    t0 = perf_counter()
    with mp.workdps(65):
        x = mpf(2)
        for _ in range(400):
            x = mp.sqrt((x * x + 3) / (x + 1))
    f = Fraction(1, 3)
    for _ in range(300):
        f = (f * f + Fraction(1, 7)) / (f + 1)
        if f.denominator > 10**30:
            f = Fraction(1, 3)
    for _ in range(300):
        np.add.reduceat(np.prod(_V[None, :] ** _E, axis=1) * _C, _STARTS)
    s = 0
    for i in range(20000):
        s += i * i
    return perf_counter() - t0
