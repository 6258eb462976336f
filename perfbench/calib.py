"""A fixed reference loop that measures how fast the machine runs right now.

On a shared virtual machine the speed of the same code changes by up to
about 1.7x for stretches of seconds to minutes, as other tenants come and
go.  A run cannot wait that out, so every timing is taken together with the
time of this loop just before and just after it, and ``scale`` turns the
timing into the time it would have taken on a machine where the loop takes
``REFERENCE_S``.  The loop uses nothing from ectorsion, so a change to the
program cannot move it; it does the kind of work the program does (small
objects with arithmetic operators, big-integer modular arithmetic, dict and
tuple traffic) so that a slowdown of the machine moves both alike.

Changing this loop or ``REFERENCE_S`` changes every reported time; compare
only runs made with the same file.
"""

import time

# Seconds one ``sample`` takes in a fast spell on a 2-vCPU x86-64 virtual
# machine with CPython 3.11; fixed, so that scaled times stay comparable.
REFERENCE_S = 40e-6

_P = 2**127 - 1


class _Elt:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % _P

    def __add__(self, other):
        return _Elt(self.v + other.v)

    def __mul__(self, other):
        return _Elt(self.v * other.v)

    def inverse(self):
        return _Elt(pow(self.v, -1, _P)) if self.v else _Elt(0)


# About 200 KB of fixed data, touched in a scattered order, as the program's
# curves, points and caches are.
_POOL = [_Elt(pow(7, i + 1000, 2**120)) for i in range(1024)]
_TABLE = {i * 7919: i for i in range(2048)}
_ORDER = [(i * 389 % 1024, i * 1237 % 2048 * 7919) for i in range(24)]


def _loop():
    acc, total = _Elt(1), 0
    for i, key in _ORDER:
        e = _POOL[i]
        acc = acc * e + e
        total += _TABLE[key]
    return acc.inverse().v + total


def sample(reps=2):
    """Seconds of the fastest of ``reps`` runs of the reference loop."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(reps):
        t0 = clock()
        _loop()
        best = min(best, clock() - t0)
    return best


def warm_up(seconds=0.05):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sample()


def scale(elapsed, before, after):
    """``elapsed`` seconds as they would read at reference speed, given the
    reference samples taken just before and just after the timing."""
    return elapsed * REFERENCE_S / ((before + after) / 2)
