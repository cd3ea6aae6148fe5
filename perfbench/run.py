"""End-to-end benchmark of the sweep stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-inline --seed 1 --seconds 15 --trace 0

Runs one workload (see ``perfbench/README.md``) as a closed loop with
one client: set-up (repeated, median reported), then whole cycles of
fixed-shape jobs and reads until ``--seconds`` of timed operations
have passed, then teardown.  Every operation is checked outside the
timed region.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics (in reference seconds, see :func:`host_scale`) with
``--trace 0``, the per-layer ledger with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "read_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    started = time.perf_counter()
    value = 0
    for i in range(1_000_000):
        value = (value * 31 + i) & 0xFFFF
    return time.perf_counter() - started


#: The probe loop's length, and its CPU time on the reference host.
PROBE_ITERATIONS = 100_000
PROBE_REFERENCE_S = 0.01


def host_scale() -> float:
    """Factor that turns a wall time taken just now into reference seconds.

    The host's speed swings by up to 1.8x within minutes (the same loop,
    with CPU time equal to wall time), far beyond any bound a regression
    gate could use.  So every timing the benchmark reports is scaled by
    ``PROBE_REFERENCE_S / probe``, where the probe is a fixed loop run on
    the client thread right after the timed operation.  The probe counts
    its own thread's CPU time: that follows the CPU's speed, while time
    spent waiting for the GIL or the scheduler — where a busy thread of
    the program under test would show — is left out, so such a cost
    cannot hide itself by slowing the probe.
    """
    started = time.thread_time()
    value = 0
    for i in range(PROBE_ITERATIONS):
        value = (value * 31 + i) & 0xFFFF
    return PROBE_REFERENCE_S / (time.thread_time() - started)


def tail_rank(count: int, percentile: int) -> int:
    """Nearest-rank position (1-based) of ``percentile`` among ``count`` values."""
    return -(-count * percentile // 100)


def tail_jobs_needed(percentile: int) -> int:
    """Fewest jobs that leave at least ten beyond ``percentile``."""
    count = 1
    while count - tail_rank(count, percentile) < 10:
        count += 1
    return count


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def live_children() -> int:
    """Processes (live or unreaped) whose parent is this one."""
    me = str(os.getpid())
    count = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if fields[1].decode() == me:
            count += 1
    return count


def stop_resource_tracker(timeout: float = 10.0) -> None:
    """Stop the stdlib's shared-memory resource tracker and reap it.

    The fabric's plan segments and spawned processes start one tracker
    per interpreter, and left alone it outlives this process: it exits
    only once it reads EOF after the interpreter is gone, and then
    waits to be reaped by the system.  Closing our end of its pipe
    makes it exit now; it is killed if it has not ended by ``timeout``
    (a child that still holds the pipe would keep it alive).  A later
    shared-memory call starts a fresh tracker.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is None:
        return
    os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + timeout
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        workload=None) -> dict:
    """Run one workload end to end; returns the result object.

    ``workload`` overrides the full-size instance of ``workload_name``
    (the tests pass tiny ones).
    """
    from ledger import LAYER_METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS

    shm_before = shm_segments()
    if workload is None:
        workload = WORKLOADS[workload_name](seed, workdir)
    # Teardown and the tracker stop run on every path out, so no
    # process or segment this run started outlives it.
    try:
        setups: list[float] = []
        raw_setups: list[float] = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            started = time.perf_counter()
            workload.setup()
            raw_setups.append(time.perf_counter() - started)
            setups.append(raw_setups[-1] * host_scale())

        tracer = Tracer() if trace else None
        main_tid = threading.get_ident()
        calib_before = calibrate()
        job_latencies: list[float] = []  # reference seconds
        read_latencies: list[float] = []
        raw_job_latencies: list[float] = []  # wall seconds on this host
        raw_read_latencies: list[float] = []
        cycle_times = {True: [], False: []}
        executed = 0
        attempted = failed = 0
        failures: list[str] = []
        timed = 0.0
        cycle = 0
        traced_cycles = 0
        # Whole cycles until --seconds of timed operations, and at least
        # enough jobs for the workload's tail percentile.  A traced run
        # alternates untraced and traced cycles (the overhead is their
        # difference) and always traces at least one.
        # A wall-clock cap keeps a run whose operations keep failing fast
        # from spinning on.
        jobs_needed = tail_jobs_needed(workload.tail_percentile)
        give_up = time.monotonic() + 4 * seconds + 60
        while time.monotonic() < give_up and (
            timed < seconds
            or cycle * workload.jobs_per_cycle < jobs_needed
            or (tracer is not None and traced_cycles == 0)
        ):
            traced = tracer is not None and cycle % 2 == 1
            ops = workload.cycle()
            outputs = []
            cycle_time = 0.0
            if traced:
                tracer.install()
                traced_cycles += 1
            try:
                for number, op in enumerate(ops):
                    # Every operation starts from the same collector state:
                    # otherwise a full collection of the run's heap lands in
                    # whichever operation crosses the threshold, doubling
                    # its time at points that differ from run to run.
                    # Collections an operation's own allocations trigger
                    # stay in its time.
                    gc.collect()
                    span = None
                    if traced:
                        tracer.job = cycle * 100 + number
                        span = tracer.begin(op.kind)
                    started = time.perf_counter()
                    try:
                        output, error = op.run(), None
                    except Exception:
                        output, error = None, traceback.format_exc(limit=3)
                    elapsed = time.perf_counter() - started
                    if span is not None:
                        tracer.end(span)
                        tracer.job = None
                    scaled = elapsed * host_scale()
                    outputs.append((op, output, error, elapsed, scaled))
                    cycle_time += scaled
            finally:
                if traced:
                    tracer.uninstall()
            cycle_times[traced].append(cycle_time)
            timed += sum(elapsed for _op, _out, _err, elapsed, _scaled in outputs)
            for op, output, error, elapsed, scaled in outputs:
                attempted += 1
                if error is None:
                    try:
                        error = op.check(output)
                    except Exception:
                        error = traceback.format_exc(limit=3)
                if error is not None:
                    failed += 1
                    failures.append(f"cycle {cycle} {op.kind}: {error}")
                    continue
                if op.kind == "job":
                    job_latencies.append(scaled)
                    raw_job_latencies.append(elapsed)
                    executed += op.trials
                else:
                    read_latencies.append(scaled)
                    raw_read_latencies.append(elapsed)
            cycle += 1
        calib_after = calibrate()
        snapshot = workload.snapshot()
    finally:
        workload.teardown()
        stop_resource_tracker()

    stray_threads = [t for t in threading.enumerate() if t is not threading.main_thread()]
    leaks = {
        "leak.shm_segments": len(shm_segments() - shm_before),
        "leak.threads": len(stray_threads),
        "leak.children": live_children(),
    }
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)

    metrics: dict[str, dict] = {}
    if tracer is None:
        percentile = workload.tail_percentile
        ordered = sorted(job_latencies) or [0.0]
        job_time = sum(job_latencies)
        values = {
            "trials_per_s": executed / job_time if job_time else 0.0,
            "job_p50_s": statistics.median(ordered),
            "job_tail_s": ordered[tail_rank(len(ordered), percentile) - 1],
            "read_p50_s": statistics.median(read_latencies) if read_latencies else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mib(),
        }
        print(f"# job_tail_s is p{percentile} of {len(job_latencies)} jobs; "
              f"{len(read_latencies)} reads; {cycle} cycles")
        raw_ordered = sorted(raw_job_latencies) or [0.0]
        print("# raw wall seconds on this host: "
              f"trials_per_s {executed / sum(raw_ordered) if sum(raw_ordered) else 0.0:.6g}, "
              f"job_p50_s {statistics.median(raw_ordered):.6g}, "
              f"job_tail_s {raw_ordered[tail_rank(len(raw_ordered), percentile) - 1]:.6g}, "
              f"read_p50_s {statistics.median(raw_read_latencies or [0.0]):.6g}, "
              f"setup_s {statistics.median(raw_setups):.6g}")
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
    else:
        values = layer_metrics(tracer, traced_cycles, main_tid)
        values.update({name: 0.0 for name in LAYER_METRICS if name.startswith("service.")})
        values["warehouse.disk_bytes"] = 0.0
        values.update(snapshot)
        values.update(leaks)
        values["host.calib_s"] = statistics.mean((calib_before, calib_after))
        plain = statistics.median(cycle_times[False]) if cycle_times[False] else 0.0
        traced_median = statistics.median(cycle_times[True]) if cycle_times[True] else 0.0
        values["obs.tracing_overhead"] = traced_median / plain - 1.0 if plain else 0.0
        trace_path = HERE / ".work" / f"trace-{workload_name}-seed{seed}.json"
        tracer.write_chrome_trace(trace_path)
        print(f"# {traced_cycles} traced of {cycle} cycles; trace: {trace_path.relative_to(ROOT)}")
        for name, unit in LAYER_METRICS.items():
            metrics[name] = {"value": values[name], "unit": unit}
    print(f"# host.calib_s before {calib_before:.4f} s, after {calib_after:.4f} s")
    print(f"# leaks after teardown: {leaks}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = HERE / ".work" / f"run-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
