"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root (the file is not collected by default)::

    python -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from checks import SerialChecker, check_read, digest  # noqa: E402
from ledger import LAYER_METRICS  # noqa: E402
from workloads import FleetWarehouse, FreshInstances, PaperInline  # noqa: E402

from repro.experiments import parallel  # noqa: E402
from repro.experiments.parallel import SweepSpec  # noqa: E402
from repro.experiments.report import summarize_records  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_BANDS = {
    "er-min-degree": (range(60, 90), "n^0.75"),
    "geometric": (range(60, 90), "n^0.75"),
    "powerlaw": (range(60, 90), "n^0.75"),
    "complete": (range(20, 40), "8"),
    "regular": (range(30, 60), "4"),
}


def tiny(name: str, workdir: Path):
    if name == "paper-inline":
        return PaperInline(7, workdir, ns=(60,), seeds_per_job=1, read_seeds=40)
    if name == "fresh-instances":
        return FreshInstances(7, workdir, bands=TINY_BANDS, seeds_per_job=1, read_seeds=40)
    return FleetWarehouse(7, workdir, n=60, seeds_per_job=4, read_seeds=40)


def test_benchmark_json_lists_the_emitted_metrics():
    assert [w["name"] for w in CONFIG["workloads"]] == [
        "paper-inline", "fresh-instances", "fleet-warehouse",
    ]
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == LAYER_METRICS


@pytest.mark.parametrize("name", [w["name"] for w in CONFIG["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_checks_and_cleans_up(name, trace, tmp_path):
    result = bench.run(name, 7, 0.3, trace, tmp_path, workload=tiny(name, tmp_path))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    wanted = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if trace:
        metrics = result["metrics"]
        assert metrics["leak.shm_segments"]["value"] == 0
        assert metrics["leak.threads"]["value"] == 0
        assert metrics["leak.children"]["value"] == 0
        assert metrics["obs.span_coverage"]["value"] > 0.5
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_layers_land_where_predicted(tmp_path):
    inline = bench.run("paper-inline", 7, 0.6, True, tmp_path,
                       workload=tiny("paper-inline", tmp_path))["metrics"]
    assert inline["graphs.generate_calls"]["value"] == 0
    assert inline["execute.trials"]["value"] > 0
    fresh = bench.run("fresh-instances", 7, 0.6, True, tmp_path,
                      workload=tiny("fresh-instances", tmp_path))["metrics"]
    assert fresh["graphs.generate_calls"]["value"] == len(TINY_BANDS)
    assert fresh["plan.exports"]["value"] == len(TINY_BANDS)


def _spec() -> SweepSpec:
    return SweepSpec(name="check", families=("complete",), ns=(24,), deltas=("8",),
                     algorithms=("trivial", "random-walk"), seeds=(1, 2))


def test_checker_accepts_a_true_job_and_catches_an_altered_one():
    spec = _spec()
    result = parallel.run_sweep(spec, workers=1)
    checker = SerialChecker()
    assert checker.check_job(spec, result) is None
    records = list(result.records)
    records[1] = dataclasses.replace(records[1], rounds=records[1].rounds + 1)
    altered = dataclasses.replace(result, records=tuple(records))
    assert "record 1 differs" in checker.check_job(spec, altered)
    cached = dataclasses.replace(result, executed=0, cached=len(records))
    assert "executed 0" in checker.check_job(spec, cached)


def test_read_check_catches_altered_records_and_reports():
    records = parallel.run_sweep(_spec(), workers=1).records
    read = dataclasses.replace(
        parallel.run_sweep(_spec(), workers=1), executed=0, cached=len(records)
    )
    table = summarize_records(records, title="read")
    assert check_read(read, digest(records), table) is None
    other = dataclasses.replace(records[0], met=not records[0].met)
    assert "differ" in check_read(read, digest((other,) + records[1:]), table)
    table.rows[0][4] = "0/0"
    assert "report differs" in check_read(read, digest(records), table)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, *CONFIG["command"][1:], "--workload", "paper-inline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
