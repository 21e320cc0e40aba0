"""Checks on the benchmark itself: exact work counts and a refusal to run
without the sources.

    python3 -m pytest -q bench/test_determinism.py

Each traced run is a fresh process, so equal counts also show that the
pinned hash seed makes the work independent of set iteration order.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()
            if not name.endswith("self_s") and name != "trace.overhead_ratio"}


@pytest.mark.parametrize("workload, nonzero", [
    ("decide-exhaustive", ["decision.models.examined",
                           "decision.models.hyp_rejected"]),
    ("decide-frames", ["decision.relations.generated", "decision.relations.kept"]),
    ("refute-scan", ["duality.tables.scanned", "decision.models.examined"]),
    ("model-check", ["proofs.steps.checked", "filtration.calls",
                     "intuitionistic.calls"]),
])
def test_work_counts_repeat_exactly(workload, nonzero):
    first, second = traced(workload), traced(workload)
    assert first == second
    for name in nonzero:
        assert first[name] > 0, name
    if workload == "decide-frames":
        # six bound-4 queries, each over 2 + 2^4 + 2^9 + 2^16 candidate relations
        assert first["decision.relations.generated"] == 6 * 66_066


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "refute-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_hooks_are_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    monkeypatch.setattr(spans, "HOOKS", [
        ("decision", "frame_check", "semantics.frame_check", {}),
        ("decision", "no_such_function", "decision", {}),
        ("no_such_module", "main", "cli", {}),
    ])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.found == ["mvmodal.decision.frame_check"]
        assert tracer.absent == ["mvmodal.decision.no_such_function",
                                 "mvmodal.no_such_module.main"]
    finally:
        tracer.uninstall()


def test_host_speed_scales_by_the_samples_on_either_side(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import hostspeed

    host = hostspeed.HostSpeed()
    host.ends = [1.0, 2.0, 3.0, 4.0]
    host.took = [0.001, 0.002, 0.004, 0.008]
    # 2.5 s to 2.9 s lies between the samples that ended at 2.0 and 3.0.
    assert host.adjust(2.5, 0.4) == pytest.approx(0.4 * hostspeed.REFERENCE_S / 0.003)
    # 1.5 s to 2.5 s holds the sample that ended at 2.0; it counts too.
    assert host.adjust(1.5, 1.0) == pytest.approx(1.0 * hostspeed.REFERENCE_S / 0.002)
    host.sample()
    assert len(host.took) == 5 and host.took[-1] > 0
