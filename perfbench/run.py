"""Benchmark of qconnect: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (the program is imported from ``src/``).
One caller runs one operation at a time, each starting when the previous one
ends, until ``--seconds`` have passed and the current unit (the whole list of
the workload's operations) is complete.  Every output is checked; the mpmath
references are computed after the timed loop.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a separate traced run.

Every wall time is calibrated: divided by the duration of the reference loop
in ``calib.py``, timed in blocks between the operations, and multiplied by its
fixed nominal duration.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

from calib import NOMINAL_BLOCK_MS, Calibrator
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: in-process set-ups per run; setup_s is their median
SETUPS = 5
#: a reference block is timed after at least this much work
SEGMENT_S = 0.05

PER_LAYER_TIMES = (
    "qcore.qpochhammer_inf",
    "qcore.Spiral.nearest",
    "qcore.theta",
    "qcore.rphis",
)
PER_LAYER_WORK = {
    "qcore.qpochhammer_inf": "factors",
    "qcore.rphis": "terms",
    "special.ramanujan_Aq": "terms",
    "transforms.qlaplace_plus": "terms",
}


def fresh_import():
    """Import qconnect from ``src/`` anew, dropping any loaded copy."""
    for name in [m for m in sys.modules if m == "qconnect" or m.startswith("qconnect.")]:
        del sys.modules[name]
    qc = importlib.import_module("qconnect")
    importlib.import_module("qconnect.cli")
    if Path(qc.__file__).resolve().parent != SRC / "qconnect":
        raise ImportError(f"qconnect imported from {qc.__file__}, not from {SRC}")
    return qc


def setup(name: str, seed: int, cal: Calibrator):
    """Time SETUPS set-ups (import, inputs, one warm-up operation); keep the
    last.  Returns (workload, qconnect, calibrated median seconds)."""
    times = []
    for _ in range(SETUPS):
        b = cal.block()
        t0 = time.perf_counter()
        qc = fresh_import()
        wl = WORKLOADS[name](seed, ROOT)
        wl.bind(qc)
        wl.warmup()
        times.append((time.perf_counter() - t0, b))
    cal.block()
    cal.block()
    return wl, qc, statistics.median(dt * cal.factor(b) for dt, b in times)


def nearest_rank(sorted_values, p: float) -> float:
    """The p-quantile of sorted values by the nearest-rank rule."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


class Loop:
    """The closed loop: whole units until the deadline, failures counted."""

    def __init__(self, wl, cal: Calibrator, seconds: float) -> None:
        self.wl = wl
        self.cal = cal
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.units = 0

    def execute(self, op) -> float:
        """Run one operation; return its raw wall time."""
        t0 = time.perf_counter()
        try:
            out = self.wl.call(op)
        except Exception as exc:  # an operation that fails is counted, not fatal
            dt = time.perf_counter() - t0
            self.failed += 1
            if self.failed <= 3:
                print(f"operation {op!r} failed:", file=sys.stderr)
                traceback.print_exception(exc, file=sys.stderr)
            return dt
        dt = time.perf_counter() - t0
        self.wl.record(op, out)
        return dt

    def run(self, each_unit) -> None:
        deadline = time.perf_counter() + self.seconds
        self.segment = self.cal.block()
        self.last_block = time.perf_counter()
        while True:
            each_unit(self.wl.unit())
            self.units += 1
            if time.perf_counter() >= deadline:
                break
        self.cal.block()

    def tick(self) -> None:
        if time.perf_counter() - self.last_block >= SEGMENT_S:
            self.segment = self.cal.block()
            self.last_block = time.perf_counter()


def run_untraced(loop: Loop) -> dict:
    """End-to-end metrics.  Each operation of the unit is one sample: the
    median of its calibrated latencies over the units of the run."""
    lat = array("d")
    seg = array("i")

    def each_unit(ops) -> None:
        for op in ops:
            lat.append(loop.execute(op))
            seg.append(loop.segment)
            loop.attempted += 1
            loop.tick()

    loop.run(each_unit)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal = [lat[i] * loop.cal.factor(seg[i]) for i in range(len(lat))]
    n = len(loop.wl.unit())
    samples = sorted(statistics.median(cal[j::n]) for j in range(n))
    raw = sorted(statistics.median(lat[j::n]) for j in range(n))
    print(
        f"# {loop.wl.name}: {len(lat)} operations in {loop.units} whole units of {n}; "
        f"percentiles over {n} samples, {n - math.ceil(0.9 * n)} beyond p90"
    )
    for label, v in (("calibrated", samples), ("raw wall", raw)):
        print(
            f"# {label}: {n / sum(v):.6g} ops/s, p50 {nearest_rank(v, 0.5) * 1e3:.6g} ms, "
            f"p90 {nearest_rank(v, 0.9) * 1e3:.6g} ms"
        )
    print(
        f"# reference block: median {loop.cal.median_block_ms():.4f} ms, "
        f"nominal {NOMINAL_BLOCK_MS} ms"
    )
    return {
        "ops_per_s": (n / sum(samples), "1/s"),
        "op_p50_ms": (nearest_rank(samples, 0.5) * 1e3, "ms"),
        "op_p90_ms": (nearest_rank(samples, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run_traced(loop: Loop, qc) -> dict:
    """Every operation runs twice back to back, once traced and once not
    (alternating which goes first); spans come from the traced runs, and the
    difference of the two is the tracing overhead."""
    from spans import Tracer

    tracer = Tracer(qc)
    plain = [0.0]
    traced = [0.0]
    n_ops = [0]

    def each_unit(ops) -> None:
        for j, op in enumerate(ops):
            for with_trace in ((False, True) if j % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                    traced[0] += loop.execute(op)
                    tracer.uninstall()
                else:
                    plain[0] += loop.execute(op)
                loop.attempted += 1
            n_ops[0] += 1
            loop.tick()
        tracer.fold()

    loop.run(each_unit)
    scale = NOMINAL_BLOCK_MS / loop.cal.median_block_ms()
    n = n_ops[0]
    out = {}
    for name, t in tracer.totals.items():
        out[f"{name}.calls"] = (t.calls / n, "count")
        if name in PER_LAYER_WORK:
            out[f"{name}.{PER_LAYER_WORK[name]}"] = (t.work / n, "count")
        if name in ("transforms.qlaplace_minus", "transforms.contour_residue"):
            out[f"{name}.nodes"] = (t.nodes / n, "count")
        if name in PER_LAYER_TIMES:
            out[f"{name}.self_ms"] = (t.self_s * scale * 1e3 / n, "ms")
    special = sum(t.self_s for k, t in tracer.totals.items() if k.startswith("special."))
    out["special.self_ms"] = (special * scale * 1e3 / n, "ms")
    out["bench.ref_loop_ms"] = (loop.cal.median_block_ms(), "ms")
    out["trace.overhead_ms"] = ((traced[0] - plain[0]) * scale * 1e3 / n, "ms")
    print(f"# {loop.wl.name}: traced run, {n} operations each run traced and untraced")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "qconnect" / "__init__.py").is_file():
        print(f"error: no qconnect source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cal = Calibrator()
    t_start = time.perf_counter()
    wl, qc, setup_s = setup(args.workload, args.seed, cal)
    t_loop = time.perf_counter()
    loop = Loop(wl, cal, args.seconds)
    if args.trace:
        metrics = run_traced(loop, qc)
    else:
        metrics = run_untraced(loop)
        metrics["setup_s"] = (setup_s, "s")

    t_refs = time.perf_counter()
    digits = sorted(wl.finish())
    print(
        f"# wall: set-ups {t_loop - t_start:.2f} s, loop {t_refs - t_loop:.2f} s, "
        f"references and checks {time.perf_counter() - t_refs:.2f} s"
    )
    if not args.trace:
        metrics["digits_p05"] = (nearest_rank(digits, 0.05), "digits")
    for p in wl.problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not wl.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
