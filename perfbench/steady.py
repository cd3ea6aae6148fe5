"""Steadiness report: how much each end-to-end metric moves between runs.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--first-seed 1] [--out FILE]

Runs ``perfbench/run.py`` once per seed (``--first-seed`` onwards) on
each workload, untraced, for ``BENCHMARK.json``'s ``run_seconds``.  The
workloads take turns, seed by seed, so a slow spell of the host lands on
all of them rather than on one.  It prints per workload and metric the
median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and IQR/median beside
the metric's bound, the same for the unscaled wall-clock values, and
the host-speed probe read before and after each timed phase.  A spread
above a third of its bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
_CALIB = re.compile(r"^# host\.calib_s before ([0-9.]+) s, after ([0-9.]+) s")
_RAW = re.compile(r"([a-z0-9_]+) ([0-9.e+-]+)")


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, list[float]]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operation(s)")
    calib = [float(v) for line in lines for m in [_CALIB.match(line)] if m for v in m.groups()]
    raw = {
        name: float(value)
        for line in lines if line.startswith("# raw wall seconds")
        for name, value in _RAW.findall(line.split(":", 1)[1])
    }
    return result["metrics"], raw, calib


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    workloads = args.workload or names
    values = {w: {name: [] for name in bounds} for w in workloads}
    raws: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    calib: dict[str, list[float]] = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            metrics, raw, probe = one_run(workload, seed, config["run_seconds"])
            for name in bounds:
                values[workload][name].append(metrics[name]["value"])
            for name, value in raw.items():
                raws[workload].setdefault(name, []).append(value)
            calib[workload].extend(probe)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metrics[name]['value']:.4g}" for name in bounds
            ), flush=True)

    report: dict[str, dict] = {}
    for workload in workloads:
        rows = {}
        print(f"\n{workload} over {args.runs} runs")
        print(f"  {'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'iqr/med':>8s} {'bound':>6s}")
        for name, series in values[workload].items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = "  <-- above bound/3" if spread > bounds[name] / 3 else ""
            print(f"  {name:14s} {median:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:8.3f} {bounds[name]:6.2f}{flag}")
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": series}
        for name, series in raws[workload].items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            print(f"  raw {name:10s} {median:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{(q3 - q1) / median:8.3f}      -  (wall seconds, unscaled)")
            rows[f"raw.{name}"] = {"median": median, "q1": q1, "q3": q3, "values": series}
        probes = calib[workload]
        if len(probes) >= 2:
            q1, median, q3 = statistics.quantiles(probes, n=4)
            print(f"  host.calib_s   {median:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{(q3 - q1) / median:8.3f}      -  ({len(probes)} probes, "
                  f"range {min(probes):.4f}-{max(probes):.4f} s)")
            rows["host.calib_s"] = {"median": median, "q1": q1, "q3": q3, "values": probes}
        report[workload] = rows
        print(flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
