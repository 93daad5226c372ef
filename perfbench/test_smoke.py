"""Smoke run of the benchmark at tiny sizes, plus the oracle's closed forms
against brute force.  Run with ``python3 -m pytest -q perfbench/test_smoke.py``."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from run import END_TO_END  # noqa: E402


def _run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["census", "analyze", "continuum"])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    info, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["env"]["workload"] == workload and info["env"]["ops_per_pass"] >= 1
    assert set(info["detail"]["raw"]) == {"wall_s", "op_p50_ms", "op_tail_ms", "setup_s"}
    assert all(v > 0 for v in info["detail"]["raw"].values())


@pytest.mark.parametrize("workload", ["census", "analyze", "continuum"])
def test_traced_run_reports_every_per_layer_metric(workload):
    info, result = _run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(spans.PER_LAYER)
    assert 0 < result["metrics"]["trace.coverage"]["value"] < 1
    assert (ROOT / info["detail"]["span_file"]).is_file()


def test_same_seed_gives_same_inputs():
    first, _ = _run("analyze", 0, seed=5)
    second, _ = _run("analyze", 0, seed=5)
    assert first["env"]["ops_per_pass"] == second["env"]["ops_per_pass"]


def test_missing_sources_fail_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_speed_clock_leaves_out_sampling():
    with hostspeed.HostSpeed() as speed:
        spent0, clock0, wall0 = speed.spent_ns, speed.clock_ns(), time.perf_counter_ns()
        while len(speed.samples) < 4:
            sum(range(1000))
        spent1, clock1, wall1 = speed.spent_ns, speed.clock_ns(), time.perf_counter_ns()
    assert spent1 > spent0
    assert abs((wall1 - wall0) - (clock1 - clock0) - (spent1 - spent0)) < 1_000_000
    assert speed.scaled_ns(clock0, clock1) > 0


def test_subgroup_count_formula_matches_brute_force():
    for orders in [(1,), (2,), (4,), (2, 2), (2, 4), (3, 3), (2, 2, 2), (6,), (2, 6), (9,), (2, 2, 3), (4, 4)]:
        assert oracle.subgroup_count(orders) == oracle.brute_force_subgroup_count(orders), orders


def test_galois_numbers():
    assert [oracle.galois_number(k, 2) for k in range(6)] == [1, 2, 5, 16, 67, 374]
    assert oracle.galois_number(3, 3) == 28


def test_stern_brocot_parents():
    assert oracle.stern_brocot_parents(0, 1) == ((-1, 0), (1, 0))
    assert oracle.stern_brocot_parents(3, 1) == ((2, 1), (1, 0))
    assert oracle.stern_brocot_parents(2, 5) == ((1, 3), (1, 2))
    assert oracle.stern_brocot_parents(-1, 2) == ((-1, 1), (0, 1))


def test_balpha_oracle_accepts_the_simplest_rational_only():
    alpha, beta = "(0+1*sqrt:2)/1", "(0+1*sqrt:3)/1"  # 1.414.. < 3/2 < 8/5 < 1.732..

    def cert(holds, a, b, d):
        return {"holds": holds, "sign_terms": {"a": a, "b": b, "d": d}, "squares": {"a^2": a * a, "b^2*d": b * b * d}}

    good = {"between": [3, 2], "report": {"p": 3, "q": 2, "separates": True,
                                          "alpha": cert(True, 3, -2, 2), "beta": cert(False, 3, -2, 3)}}
    worse = {"between": [8, 5], "report": {"p": 8, "q": 5, "separates": True,
                                           "alpha": cert(True, 8, -5, 2), "beta": cert(False, 8, -5, 3)}}
    assert oracle.check_balpha(alpha, beta, 0, good) is None
    assert "minimal" in oracle.check_balpha(alpha, beta, 0, worse)
