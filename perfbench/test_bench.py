"""Tests of the benchmark itself:  python3 -m pytest perfbench

They check that each workload's output check catches a small error, that the
reference loop stays independent of the program, that short runs of every
workload finish clean, and that counts repeat for a fixed seed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PERTURB = 1 + 1e-6
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def qc():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    return run.fresh_import()


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_ops(wl, ops) -> None:
    for op in ops:
        wl.record(op, wl.call(op))


@pytest.mark.parametrize("name", ["pointwise", "resum-infinity"])
def test_check_catches_one_perturbed_output(qc, name, tmp_path):
    wl = workloads.WORKLOADS[name](7, tmp_path)
    wl.bind(qc)
    _run_ops(wl, wl.unit())
    i = min(wl.first)
    clean = wl.finish()
    assert not wl.problems and len(clean) > 0
    value = wl.first[i]
    wl.first[i] = (value[0] * PERTURB, value[1]) if isinstance(value, tuple) else value * PERTURB
    wl.finish()
    assert len(wl.problems) == 1


def test_verify_check_catches_one_perturbed_lhs(qc, tmp_path):
    wl = workloads.Verify(7, tmp_path)
    wl.bind(qc)
    ops = [op for op in wl.unit() if op[0] == "ismail-zhang" and op[1] == 0.5][:1]
    _run_ops(wl, ops)
    assert len(wl.finish()) == 24 and not wl.problems
    (key, s), = wl.reports.items()
    rep = json.loads(s)
    rep["points"][5]["lhs"]["re"] *= PERTURB
    wl.reports[key] = json.dumps(rep, separators=(",", ":"))
    wl.finish()
    assert len(wl.problems) == 1 and "lhs" in wl.problems[0]


def test_verify_record_rejects_report_that_does_not_round_trip(qc, tmp_path):
    wl = workloads.Verify(7, tmp_path)
    wl.bind(qc)
    op = next(op for op in wl.unit() if op[0] == "formal-inverses")
    out = wl.call(op)
    path = wl.out_dir / f"{op[3]}.json"
    path.write_text(path.read_text(encoding="utf-8").replace(":", ": ", 1), encoding="utf-8")
    wl.record(op, out)
    assert any("round-trip" in p for p in wl.problems)


def test_reference_loop_does_not_import_qconnect():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import calib; calib.ref_block(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'qconnect'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_has_no_failed_operation(name):
    res = _result(_bench("--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", "0"))
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    assert res["metrics"] == {
        m["name"]: {"value": res["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_counts_and_digits_repeat_for_a_seed():
    a = _result(_bench("--workload", "pointwise", "--seed", "5", "--seconds", "0.2", "--trace", "1"))
    b = _result(_bench("--workload", "pointwise", "--seed", "5", "--seconds", "0.6", "--trace", "1"))
    assert {k: m["unit"] for k, m in a["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    counts = [k for k, m in a["metrics"].items() if m["unit"] == "count"]
    assert counts and all(a["metrics"][k] == b["metrics"][k] for k in counts)
    assert a["metrics"]["qcore.qpochhammer_inf.calls"]["value"] > 0
    c = _result(_bench("--workload", "pointwise", "--seed", "5", "--seconds", "0.2"))
    d = _result(_bench("--workload", "pointwise", "--seed", "5", "--seconds", "0.6"))
    assert c["metrics"]["digits_p05"] == d["metrics"]["digits_p05"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "pointwise", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
