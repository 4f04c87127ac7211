"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _report(workload: str, trace: int, plan=workloads.TINY) -> tuple[int, dict]:
    out = io.StringIO()
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.01, trace=trace)
    rc = run.report(args, plan, 0.0, out=out)
    return rc, json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, kind):
    _, result = _report(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_are_non_negative_and_fit_in_wall_time(workload, tmp_path):
    res = workloads.run(workload, workloads.TINY, 3, 0.01, True, tmp_path)
    own = tracing.self_times(res.recorder.spans)[res.timed_span:]
    assert own and min(own) >= -1e-9
    assert sum(workloads.module_self_times(res).values()) <= sum(res.raw_op_s)


def test_clock_scales_by_nearby_calibrations_and_leaves_them_out():
    clock = hostspeed.Clock()
    nominal = hostspeed.NOMINAL_REF_S
    clock.marks = [(0.0, 1.0, nominal), (2.0, 3.0, nominal)]
    assert clock.seconds(0.5, 2.5) == pytest.approx(1.0)
    assert clock.seconds(-1.0, 4.0) == pytest.approx(3.0)
    clock.marks = [(0.0, 1.0, 2 * nominal), (2.0, 3.0, 2 * nominal)]
    assert clock.seconds(1.0, 2.0) == pytest.approx(0.5)
    assert clock.scale_before(1.0) == pytest.approx(0.5)


def test_nan_features_count_as_failed_operations():
    plan = workloads.Plan(**{**vars(workloads.TINY), "nan_batches": 1})
    rc, result = _report("correct", 0, plan)
    assert rc == 1 and not result["correct"]
    assert result["failed"] == 1
    ratio = result["metrics"]["ok_ops_ratio"]["value"]
    assert ratio == (result["attempted"] - 1) / result["attempted"] < 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "cell", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
