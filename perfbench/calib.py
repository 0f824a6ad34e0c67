"""Machine-speed reference for calibrating wall times.

The benchmark divides every measured wall time by the duration of a fixed
pure-Python complex-arithmetic loop, timed in blocks interleaved with the
operations of the same run, and multiplies by ``NOMINAL_BLOCK_MS``.  On a
shared machine the processor's speed changes while the benchmark runs (on
the 2-CPU machine it was built on, between full and about half speed); the
loop slows down with the program, so the ratio is steadier than either.

This module must not import ``qconnect``: the reference has to stay the same
whatever the program under test does.  ``NOMINAL_BLOCK_MS`` is fixed once and
never changed, so calibrated figures stay comparable across versions.
"""

from __future__ import annotations

import statistics
import time

#: nominal duration of one :func:`ref_block`, in milliseconds (fixed forever)
NOMINAL_BLOCK_MS = 4.4

_REPEATS = 30


class _Base:
    __slots__ = ("q",)

    def __init__(self, q: complex) -> None:
        self.q = q


def _product(avals: tuple, base: _Base, eps: float = 1e-15, streak: int = 3) -> complex:
    prod = 1 + 0j
    qn = 1 + 0j
    small = 0
    while small < streak:
        mag = 0.0
        for a in avals:
            f = a * qn
            prod *= 1 - f
            mag = max(mag, abs(f))
        small = small + 1 if mag < eps else 0
        qn *= base.q
    return prod


def _series(x: complex, base: _Base, eps: float = 1e-15, streak: int = 3) -> complex:
    t = 1 + 0j
    total = 0j
    scale = 1.0
    small = 0
    qn = 1 + 0j
    while small < streak:
        total += t
        scale = max(scale, abs(total), abs(t))
        small = small + 1 if abs(t) <= eps * scale else 0
        t *= x / (1 - qn * base.q)
        qn *= base.q
    return total


def ref_block() -> float:
    """Run one block of the reference loop; return its wall time in seconds.

    The block evaluates a two-argument infinite product at base 0.8 and a
    q-exponential series at base 0.7, the shapes of loop the program spends
    its time in (complex multiply-add, ``abs``, ``max``, comparisons,
    attribute reads and calls).  A loop of that shape slows down under
    contention for the processor by the same factor as the workloads
    (measured: 1.81 against 1.73 to 1.82), where a bare arithmetic loop
    slows by 1.92.
    """
    t0 = time.perf_counter()
    prod_base, series_base = _Base(0.8 + 0j), _Base(0.7 + 0j)
    acc = 0j
    for i in range(_REPEATS):
        acc += _product((0.3 + 0.1j * i / _REPEATS, -1.2 + 0.5j), prod_base)
        acc += _series(0.5 + 0.3j * i / _REPEATS, series_base)
    if acc != acc:  # keeps the result live; never true
        raise RuntimeError("reference loop produced NaN")
    return time.perf_counter() - t0


class Calibrator:
    """Reference blocks interleaved with timed work, and the factors they give.

    The timed work is cut into segments, each between two blocks: segment k
    runs after block k and before block k + 1.  Its calibration factor is
    ``NOMINAL_BLOCK_MS`` over the median of the two blocks before it and the
    two after it, which follows the processor's speed as it changes while
    one preempted block moves it little.
    """

    def __init__(self) -> None:
        self.blocks: list[float] = []

    def block(self) -> int:
        """Time one reference block; return its index."""
        self.blocks.append(ref_block())
        return len(self.blocks) - 1

    def factor(self, k: int) -> float:
        """Calibration factor of the segment between blocks k and k + 1."""
        return NOMINAL_BLOCK_MS * 1e-3 / statistics.median(self.blocks[max(0, k - 1) : k + 3])

    def median_block_ms(self) -> float:
        return statistics.median(self.blocks) * 1e3
