"""Self-tests of the benchmark at tiny sizes: every metric appears, bad outputs fail."""

from __future__ import annotations

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))  # the benchmark's scripts import each other by module name
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


run = _load("run")
checks = _load("checks")


def _bench(trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--scale", "tiny",
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(trace, section):
    code, result = _bench(trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for workload in SPEC["workloads"]:
        for metric in SPEC[section]:
            got = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert math.isfinite(got["value"])
    expected = {f"{w['name']}.{m['name']}" for w in SPEC["workloads"] for m in SPEC[section]}
    assert set(result["metrics"]) == expected


def test_spec_matches_the_metrics_the_runner_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_corrupted_distance_counts_as_failed_op():
    bench = run.Run("paper", "tiny", 7, trace=False)
    try:
        inputs = bench.work / "inputs"
        data = json.loads(bench.helper("inputs.py", ["--workload", "paper", "--scale", "tiny",
                                                     "--seed", "7", "--out", str(inputs)]))
        cluster = run.workload_ops("paper", data, inputs)[0]
        assert bench.run_op(cluster, "cli").problems == []

        record, out = bench.execute(cluster, "cli")
        lines = (out / "distance.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = repr(float(cells[1]) * 1.001)
        lines[2] = ",".join(cells)
        (out / "distance.csv").write_text("\n".join(lines) + "\n")
        bench.inspect(cluster, record, out)
        assert any("distance.csv" in p for p in record.problems)
        assert bench.counts() == (2, 1)

        bench.check_determinism()
        assert any("differ" in p for p in record.problems)
    finally:
        shutil.rmtree(bench.work)


def test_ward_heights_are_checked_against_scipy(tmp_path):
    values = np.random.default_rng(3).dirichlet(np.ones(6), size=12)
    np.save(tmp_path / "matrix.npy", values)
    delta, minmax = checks.delta_distances(values), checks.minmax_distances(values)
    pytest.importorskip("scipy")
    from scipy.cluster.hierarchy import linkage
    from scipy.spatial.distance import squareform

    for name, dist in (("delta", delta), ("minmax", minmax)):
        heights = linkage(squareform(dist, checks=False), method="ward")[:, 2] / math.sqrt(2.0)
        labels = np.arange(12) % 3
        np.save(tmp_path / f"{name}_distance.npy", dist)
        np.save(tmp_path / f"{name}_heights.npy", heights)
        np.save(tmp_path / f"{name}_labels.npy", labels)
    (tmp_path / "eta.csv").write_text("feature,eta_squared,p_value\n" + "f,0.5,0.1\n" * 6)
    (tmp_path / "summary.json").write_text("{}")
    assert checks.check_stress(tmp_path, values, 3) == []

    heights = np.load(tmp_path / "minmax_heights.npy")
    heights[-1] *= 1.0 + 1e-6
    np.save(tmp_path / "minmax_heights.npy", heights)
    assert any("scipy" in p for p in checks.check_stress(tmp_path, values, 3))
