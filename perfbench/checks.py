"""Output checks, run outside the timed region.

A job's records must be byte-identical (on the JSON export surface) to
the serial engine's — one :func:`~repro.experiments.harness.run_trial`
per grid point against a plan the checker compiles itself — and a read
must return exactly the records of the grid's first result, with a
warehouse report equal to :func:`~repro.experiments.report.summarize_records`
over those records, the repo's differential oracle.  Each check returns
``None`` when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Sequence

from repro.experiments.harness import TrialRecord, run_trial
from repro.experiments.parallel import CONSTANTS_PRESETS, SweepSpec, build_graph
from repro.experiments.report import Table, summarize_records
from repro.experiments.results_io import record_to_jsonable
from repro.runtime.plan import ExecutionPlan

#: Instances whose checker-side plans stay compiled between jobs.
_PLAN_CAP = 8


def record_lines(records: Sequence[TrialRecord]) -> list[str]:
    """Each record as the JSON line a sweep export would hold."""
    return [
        json.dumps(record_to_jsonable(record), sort_keys=True, separators=(",", ":"))
        for record in records
    ]


def digest(records: Sequence[TrialRecord]) -> str:
    """Fingerprint of a record sequence, by ``repr``.

    ``repr`` tells ``1`` from ``1.0`` and ``True`` and keeps dict order,
    so equal digests mean equal JSON exports — at a tenth of the cost
    of serializing a few thousand records per read.
    """
    return hashlib.sha256("\n".join(map(repr, records)).encode()).hexdigest()


class SerialChecker:
    """Recomputes a spec point by point on the serial engine."""

    def __init__(self) -> None:
        self._plans: dict[tuple[str, int, str], tuple[Any, ExecutionPlan]] = {}

    def serial_records(self, spec: SweepSpec) -> list[TrialRecord]:
        constants = CONSTANTS_PRESETS[spec.preset]()
        out: list[TrialRecord] = []
        for point in spec.points():
            key = point.graph_key()
            entry = self._plans.get(key)
            if entry is None:
                while len(self._plans) >= _PLAN_CAP:
                    self._plans.pop(next(iter(self._plans)))
                graph = build_graph(*key)
                entry = self._plans[key] = (graph, ExecutionPlan.compile(graph))
            graph, plan = entry
            out.append(run_trial(
                graph, point.algorithm, point.seed,
                constants=constants, max_rounds=spec.max_rounds,
                plan=plan, scenario=point.scenario,
            ))
        return out

    def check_job(self, spec: SweepSpec, result: Any) -> str | None:
        """A job ran every trial and matches the serial engine record for record."""
        total = len(spec.points())
        if result.executed != total:
            return f"job executed {result.executed} of {total} trials (cache served the rest)"
        got = record_lines(result.records)
        want = record_lines(self.serial_records(spec))
        if len(got) != len(want):
            return f"job returned {len(got)} records for {len(want)} grid points"
        for index, (line, expected) in enumerate(zip(got, want)):
            if line != expected:
                return f"record {index} differs from the serial engine: {line[:120]}"
        return None


def check_read(result: Any, first_digest: str, table: Table) -> str | None:
    """A read returns the grid's first result, fully cached, with a matching report."""
    total = len(result.records)
    if result.cached != total or result.executed != 0:
        return f"read re-executed {result.executed} of {total} trials"
    if digest(result.records) != first_digest:
        return "read records differ from the grid's first result"
    oracle = summarize_records(result.records, title=table.title)
    if (table.headers, repr(table.rows), table.notes) != (
        oracle.headers, repr(oracle.rows), oracle.notes
    ):
        return "warehouse report differs from summarize_records over the same records"
    return None
