"""The benchmark's workloads: closed loops of fixed-shape jobs and reads.

Each workload is one client that repeats a fixed *cycle* of
operations — a few jobs, then one or two reads — and every job in a workload
has the same shape (families, sizes, algorithms, seed count); jobs
differ only in seed values, so where a run stops cannot change what it
measured.  All inputs derive from the run's ``--seed``.

A *read* resubmits a grid finished in set-up and then reports its
warehouse.  ``fleet-warehouse`` reads through the broker (encode, wire,
decode); the two local workloads read through ``run_sweep``'s cache
(warehouse scan), so each read path has a workload that bypasses it.

Library calls go through module attributes (``parallel.run_sweep``,
``client.submit_sweep`` …) so the ledger's wrappers see them when a
traced cycle installs them.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.experiments import parallel, report
from repro.experiments.parallel import SweepSpec
from repro.service import Broker, client, run_worker

from checks import SerialChecker, check_read, digest

#: The grid every read resubmits: cheap trials, many rows.
READ_GRID = dict(
    families=("complete",), ns=(32,), deltas=("8",),
    algorithms=("trivial", "random-walk"),
)

#: Fabric width for fresh-instances and the set-up fills.  Fixed, not
#: ``os.cpu_count()``, so the workload is the same on every host.
FABRIC_WORKERS = 2


@dataclass
class Op:
    """One timed client operation and the check that follows it."""

    kind: str  # "job" or "read"
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    trials: int = 0  # trials a job must execute (0 for reads)


class Workload:
    """Set-up, the op cycle, and teardown of one closed-loop client."""

    name = ""
    jobs_per_cycle = 1
    reads_per_cycle = 1
    #: The percentile ``job_tail_s`` reports: fixed per workload so it
    #: means the same in every run — the highest with at least ten jobs
    #: beyond it at this host's run length.  Slower runs extend until
    #: they have enough jobs for it.
    tail_percentile = 75
    #: Processes the set-up fill of the read grid may use.
    fill_workers = 1

    def __init__(self, seed: int, workdir: Path, read_seeds: int = 2000) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")
        self.checker = SerialChecker()
        self.read_spec = SweepSpec(
            name=f"{self.name}-read",
            seeds=tuple(seed * 100_000 + i for i in range(read_seeds)),
            **READ_GRID,
        )
        self.first_read = ""
        self._used_seeds: set[int] = set()

    # -- helpers --------------------------------------------------------

    def fresh_seeds(self, count: int) -> tuple[int, ...]:
        """Trial seeds never used before in this run."""
        out: list[int] = []
        while len(out) < count:
            value = self.rng.randrange(1 << 30)
            if value not in self._used_seeds:
                self._used_seeds.add(value)
                out.append(value)
        return tuple(out)

    @property
    def cache_dir(self) -> Path:
        return self.workdir / "cache"

    def warehouse_path(self, spec: SweepSpec) -> Path:
        return self.cache_dir / f"{spec.spec_hash()}.wh"

    def fill_read_grid(self) -> None:
        """Finish the read grid into the warehouse cache; keep its first result."""
        result = parallel.run_sweep(
            self.read_spec, workers=self.fill_workers,
            cache_dir=self.cache_dir, warehouse=True,
        )
        self.first_read = digest(result.records)

    def read_op(self) -> Op:
        def run() -> Any:
            result = self.resubmit_read()
            table = report.summarize_warehouse(
                self.warehouse_path(self.read_spec), title="read"
            )
            return result, table

        return Op("read", run, lambda out: check_read(out[0], self.first_read, out[1]))

    def job_op(self, spec: SweepSpec, run: Callable[[], Any]) -> Op:
        return Op(
            "job", run, lambda result: self.checker.check_job(spec, result),
            trials=len(spec.points()),
        )

    def cycle(self) -> list[Op]:
        jobs = [self.job(slot) for slot in range(self.jobs_per_cycle)]
        return jobs + [self.read_op() for _ in range(self.reads_per_cycle)]

    # -- the interface the runner drives ---------------------------------

    def setup(self) -> None:
        """Everything before timing; repeatable after :meth:`teardown`."""
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.fill_read_grid()
        self.prepare()
        # Warm-up: lazy set-up (plan rows, first scans) finishes here.
        for op in (self.job(0), self.read_op()):
            op.run()

    def teardown(self) -> None:
        self.release()
        parallel.shutdown_fabric()
        parallel.clear_instance_cache()
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def snapshot(self) -> dict[str, float]:
        """Per-layer values read once, at the end of the timed phase."""
        return {}

    # -- per-workload parts ----------------------------------------------

    def prepare(self) -> None:
        """Workload-specific set-up, after the read grid is filled."""

    def job(self, slot: int) -> Op:
        raise NotImplementedError

    def resubmit_read(self) -> Any:
        return parallel.run_sweep(
            self.read_spec, workers=1, cache_dir=self.cache_dir, warehouse=True
        )

    def release(self) -> None:
        pass


class PaperInline(Workload):
    """``run_sweep(workers=1)`` over the README's canonical grid shape."""

    name = "paper-inline"
    jobs_per_cycle = 5
    reads_per_cycle = 2

    def __init__(
        self, seed: int, workdir: Path, *,
        ns: tuple[int, ...] = (600, 1200), seeds_per_job: int = 2, read_seeds: int = 2000,
    ) -> None:
        super().__init__(seed, workdir, read_seeds)
        self.ns = ns
        self.seeds_per_job = seeds_per_job

    def spec(self) -> SweepSpec:
        return SweepSpec(
            name=self.name,
            families=("er-min-degree", "geometric"),
            ns=self.ns,
            deltas=("n^0.75",),
            algorithms=("theorem1", "theorem2", "trivial", "random-walk"),
            seeds=self.fresh_seeds(self.seeds_per_job),
        )

    def prepare(self) -> None:
        for family in ("er-min-degree", "geometric"):
            for n in self.ns:
                parallel.build_graph(family, n, "n^0.75")

    def job(self, slot: int) -> Op:
        spec = self.spec()
        return self.job_op(spec, lambda: parallel.run_sweep(spec, workers=1))


#: fresh-instances: ``family -> (size band, δ rule)``.  Bands are sized
#: so that every family's job takes a similar time; ``regular`` keeps a
#: small band and δ=8 because its generator spends 200 failed
#: configuration-model shuffles before the circulant fallback on every
#: δ tried (0.32 s at n=400, δ=8; 129 s at n=2000, δ=n^0.75).
FRESH_BANDS: dict[str, tuple[range, str]] = {
    "er-min-degree": (range(650, 850), "n^0.75"),
    "geometric": (range(450, 600), "n^0.75"),
    "powerlaw": (range(450, 600), "n^0.75"),
    "complete": (range(400, 550), "n^0.75"),
    "regular": (range(150, 250), "8"),
}


class FreshInstances(Workload):
    """``run_sweep(workers=2)`` on the warm fabric, one unseen instance per job."""

    name = "fresh-instances"
    jobs_per_cycle = len(FRESH_BANDS)
    reads_per_cycle = 2
    fill_workers = FABRIC_WORKERS  # also warms the fabric

    def __init__(
        self, seed: int, workdir: Path, *,
        bands: dict[str, tuple[range, str]] = FRESH_BANDS,
        seeds_per_job: int = 2, read_seeds: int = 2000,
    ) -> None:
        super().__init__(seed, workdir, read_seeds)
        self.seeds_per_job = seeds_per_job
        self.families = list(bands)
        # Seeded order within each band: no size trend across the run,
        # and every tag appears once, so each job generates afresh.
        self.sizes = {
            family: self.rng.sample(list(band), len(band))
            for family, (band, _delta) in bands.items()
        }
        self.deltas = {family: delta for family, (_band, delta) in bands.items()}

    def job(self, slot: int) -> Op:
        family = self.families[slot]
        sizes = self.sizes[family]
        if not sizes:
            raise RuntimeError(f"fresh-instances ran out of unseen {family} sizes")
        spec = SweepSpec(
            name=self.name,
            families=(family,),
            ns=(sizes.pop(),),
            deltas=(self.deltas[family],),
            algorithms=("theorem2", "trivial"),
            seeds=self.fresh_seeds(self.seeds_per_job),
        )
        return self.job_op(spec, lambda: parallel.run_sweep(spec, workers=FABRIC_WORKERS))

    def resubmit_read(self) -> Any:
        return parallel.run_sweep(
            self.read_spec, workers=FABRIC_WORKERS,
            cache_dir=self.cache_dir, warehouse=True,
        )


def _serve_worker_host(address: tuple[str, int]) -> None:
    """Entry point of the fleet's one worker host process."""
    run_worker(address, workers=1, reconnect=0.5)


class FleetWarehouse(Workload):
    """An in-process warehouse broker, one worker host, writes beside reads."""

    name = "fleet-warehouse"
    jobs_per_cycle = 3
    tail_percentile = 90

    def __init__(
        self, seed: int, workdir: Path, *,
        n: int = 300, seeds_per_job: int = 12, unit_size: int = 2, read_seeds: int = 2000,
    ) -> None:
        super().__init__(seed, workdir, read_seeds)
        self.n = n
        self.seeds_per_job = seeds_per_job
        self.unit_size = unit_size
        self.broker: Broker | None = None
        self.host: Any = None

    def prepare(self) -> None:
        # The read grid is already finished into the broker's own
        # cache directory; the warm-up read registers it with the broker.
        self.broker = Broker(self.cache_dir, warehouse=True, unit_size=self.unit_size)
        address = self.broker.start()
        self.host = multiprocessing.get_context("spawn").Process(
            target=_serve_worker_host, args=(address,), name="perfbench-worker-host",
        )
        self.host.start()

    def job(self, slot: int) -> Op:
        spec = SweepSpec(
            name=self.name,
            families=("er-min-degree",),
            ns=(self.n,),
            deltas=("n^0.75",),
            algorithms=("theorem2", "trivial"),
            seeds=self.fresh_seeds(self.seeds_per_job),
        )
        assert self.broker is not None
        address = self.broker.address
        return self.job_op(
            spec, lambda: client.submit_sweep(address, spec, progress=self._host_alive)
        )

    def resubmit_read(self) -> Any:
        assert self.broker is not None
        return client.submit_sweep(
            self.broker.address, self.read_spec, progress=self._host_alive
        )

    def _host_alive(self, done: int, total: int) -> None:
        """Progress hook: the broker heartbeats a waiting client every ~2 s
        even with no worker attached, so without this a dead worker host
        would hang the submit forever."""
        if not self.host.is_alive():
            raise RuntimeError(f"the worker host exited with code {self.host.exitcode}")

    def snapshot(self) -> dict[str, float]:
        assert self.broker is not None
        status = client.broker_status(self.broker.address)
        jobs = status["jobs"].values()
        units = sum(job["units"] for job in jobs)
        attempts = sum(job["attempts"] for job in jobs)
        disk = sum(
            path.stat().st_size for path in self.cache_dir.rglob("*") if path.is_file()
        )
        return {
            "service.units": units,
            "service.attempts": attempts,
            "service.requeue_ratio": attempts / units if units else 0.0,
            "service.jobs_held": len(status["jobs"]),
            "service.open_fds": len(os.listdir("/proc/self/fd")),
            "warehouse.disk_bytes": disk,
        }

    def release(self) -> None:
        if self.broker is not None:
            self.broker.stop()
            self.broker = None
        if self.host is not None:
            self.host.join(timeout=10.0)
            if self.host.is_alive():
                self.host.terminate()
                self.host.join(timeout=5.0)
            if self.host.is_alive():
                self.host.kill()
                self.host.join()
            self.host = None


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperInline, FreshInstances, FleetWarehouse)
}
