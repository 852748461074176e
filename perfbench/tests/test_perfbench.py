"""Tests of the benchmark itself: its independent checks, its tracer, and a
tiny-size smoke of every workload. Run with ``python -m pytest perfbench/tests``."""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import speed
import workloads

REPO = Path(run.__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())

BB84 = workloads.bb84_states()
Z_BASIS = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]


def test_dual_bound_is_tight_for_the_z_basis_on_bb84():
    bits = checks.sibson_bits(checks.born(BB84, Z_BASIS))
    assert bits == pytest.approx(1.0, abs=1e-12)
    assert checks.dual_upper_bits(BB84, Z_BASIS) - bits == pytest.approx(0.0, abs=1e-12)


def test_trivial_povm_leaks_nothing_and_its_dual_is_log2_3():
    identity = [np.eye(2, dtype=complex)]
    assert checks.sibson_bits(checks.born(BB84, identity)) == 0.0
    assert checks.dual_upper_bits(BB84, identity) == pytest.approx(math.log2(3), abs=1e-12)


def test_recertifier_rejects_the_z_basis_on_bb84():
    certified, ambiguous = checks.recertify(BB84, Z_BASIS, alpha=0.1, delta=0.05)
    assert not certified and not ambiguous


def test_recertifier_accepts_a_weak_probe_within_a_loose_budget():
    probe = checks.gentle_probe_operators(np.diag([1.0, 0.0]), 0.01)
    assert checks.recertify(BB84, probe, alpha=0.5, delta=0.01) == (True, False)


def test_leakage_fields_reads_current_and_renamed_keys():
    povm = {"elements": [checks.matrix_doc(f) for f in Z_BASIS]}
    for doc in ({"bits": 1.0, "achieving_povm": povm}, {"lower_bits": 1.0, "povm": povm}):
        bits, elements = checks.leakage_fields(doc)
        assert bits == 1.0 and len(elements) == 2


def test_povm_problems_flags_an_incomplete_povm():
    assert checks.povm_problems(Z_BASIS, 2) == []
    assert checks.povm_problems(Z_BASIS[:1], 2)


def test_tail_percentile_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    pct, value = checks.tail_percentile(values)
    assert pct == 90 and sum(v > value for v in values) >= 10
    assert checks.tail_percentile(values[:10]) is None


def test_tracer_wraps_every_namespace_and_restores_them():
    import gentleleak.leakage
    import gentleleak.linalg

    original = gentleleak.linalg.eig_hermitian
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert gentleleak.linalg.eig_hermitian is not original
        assert gentleleak.leakage.eig_hermitian is gentleleak.linalg.eig_hermitian
        assert gentleleak.eig_hermitian is gentleleak.linalg.eig_hermitian
    finally:
        tracer.uninstall()
    assert gentleleak.linalg.eig_hermitian is original
    assert gentleleak.leakage.eig_hermitian is original
    assert tracer.absent == []


def test_tracer_records_a_deleted_name_as_absent(monkeypatch):
    import gentleleak.linalg

    monkeypatch.delattr(gentleleak.linalg, "psd_inv_sqrt")
    tracer = spans.Tracer()
    assert "linalg.psd_inv_sqrt" in tracer.absent
    assert tracer.per_layer(1)["linalg.psd_inv_sqrt.calls"] == 0.0


def test_speed_probe_samples_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        time.sleep(0.35)
    assert len(probe.samples) >= 2
    assert probe.spent == pytest.approx(sum(probe.samples))
    assert probe.scale() > 0
    assert signal.getsignal(signal.SIGALRM) is previous


def test_benchmark_json_lists_the_reported_metrics():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in spans.PER_LAYER]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke(workload, trace, tmp_path):
    out = run.run(workload, seed=7, seconds=0, trace=trace, size="tiny", out_dir=tmp_path)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"])
    # failures are allowed only on ops that carry a documented program defect
    assert all(f["known_defect"] for f in out["record"]["failures"])
    json.dumps(result)
    if trace:
        assert (tmp_path / f"spans-{workload}-seed7.npz").is_file()
        printed = {name for name, _, _ in out["lines"]}
        assert "trace_overhead_s" in printed


def test_self_time_excludes_children_and_calibration_runs_the_whole_bisection(tmp_path):
    tracer = spans.Tracer()
    ops, _ = workloads.build("certify", 3, "tiny", tmp_path)
    run.run_pass(ops, 0, tracer)
    totals = tracer.totals()
    for name, (calls, incl, self_t) in totals.items():
        assert -1e-9 <= self_t <= incl + 1e-9, name
    calls, incl, self_t = totals["cli.main"]
    assert calls == len(ops) - 1 and self_t < incl
    assert tracer.per_layer(1)["measurements.certify_per_calibration"] == 32


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
