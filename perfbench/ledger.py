"""Outside-in layer ledger: spans and counts around the public calls of each layer.

Tracing is installed only in a traced run, and only around the cycles
chosen for tracing: :meth:`Tracer.install` rebinds every ``repro``
module attribute that names one of the wrapped functions, and
:meth:`Tracer.uninstall` puts the originals back, so untraced cycles
run the unmodified program.  Spans live in memory as
``{name, start, end, parent, job, tid}`` and are written once, at the
end, as Chrome trace-event JSON.

Nothing here reaches inside a layer: each span is one call into a
public function, timed from the caller's side.  Work done in child
processes (fabric workers, the fleet's worker host) is out of reach
and shows only as the parent's wait.
"""

from __future__ import annotations

import bisect
import functools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

ALGORITHMS = ("theorem1", "theorem2", "trivial", "random-walk")
FAMILIES = ("er-min-degree", "geometric", "powerlaw", "complete", "regular")

#: Every per-layer metric, in report order: ``name -> unit``.  The
#: ``s/cycle`` and ``count/cycle`` metrics are totals over the traced
#: cycles divided by their number; the rest are read once.
LAYER_METRICS: dict[str, str] = {
    "graphs.generate_s": "s/cycle",
    "graphs.generate_calls": "count/cycle",
    "graphs.edges": "count/cycle",
    **{f"graphs.generate_s.{family}": "s/cycle" for family in FAMILIES},
    "plan.compile_s": "s/cycle",
    "plan.compile_calls": "count/cycle",
    "plan.export_s": "s/cycle",
    "plan.exports": "count/cycle",
    **{f"execute.trial_s.{algorithm}": "s/cycle" for algorithm in ALGORITHMS},
    "execute.trials": "count/cycle",
    "execute.rounds": "count/cycle",
    "execute.lockstep_trials": "count/cycle",
    "execute.verify_s": "s/cycle",
    "sweep.self_s": "s/cycle",
    "codec.encode_s": "s/cycle",
    "codec.decode_s": "s/cycle",
    "codec.unpack_s": "s/cycle",
    "codec.bytes": "B/cycle",
    "codec.fallback_batches": "count/cycle",
    "wire.frames_in": "count/cycle",
    "wire.frames_out": "count/cycle",
    "wire.bytes_in": "B/cycle",
    "wire.bytes_out": "B/cycle",
    "wire.send_s": "s/cycle",
    "wire.recv_s": "s/cycle",
    "service.units": "count",
    "service.attempts": "count",
    "service.requeue_ratio": "ratio",
    "service.jobs_held": "count",
    "service.open_fds": "count",
    "warehouse.append_s": "s/cycle",
    "warehouse.appends": "count/cycle",
    "warehouse.rows_appended": "count/cycle",
    "warehouse.scan_s": "s/cycle",
    "warehouse.disk_bytes": "B",
    "query.collect_s": "s/cycle",
    "query.collects": "count/cycle",
    "report.s": "s/cycle",
    "leak.shm_segments": "count",
    "leak.threads": "count",
    "leak.children": "count",
    "host.calib_s": "s",
    "obs.tracing_overhead": "ratio",
    "obs.span_coverage": "ratio",
}

#: Span name -> the per-cycle time metric it feeds (inclusive time).
_SPAN_METRIC = {
    "graphs.generate": "graphs.generate_s",
    "plan.compile": "plan.compile_s",
    "plan.export": "plan.export_s",
    "execute.verify": "execute.verify_s",
    "codec.encode": "codec.encode_s",
    "codec.decode": "codec.decode_s",
    "codec.unpack": "codec.unpack_s",
    "wire.send": "wire.send_s",
    "wire.recv": "wire.recv_s",
    "warehouse.append": "warehouse.append_s",
    "warehouse.scan": "warehouse.scan_s",
    "query.collect": "query.collect_s",
    "report": "report.s",
}

#: Spans that stand for a whole client operation, not a layer.
OP_SPANS = ("job", "read")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: int | None = None
    tid: int = 0
    args: dict[str, Any] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: int | None = None
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, *, push: bool = True, **args: Any) -> int:
        stack = self._stack()
        span = Span(
            name=name,
            start=time.perf_counter(),
            parent=stack[-1] if stack else None,
            job=self.job,
            tid=threading.get_ident(),
            args=args,
        )
        self.spans.append(span)  # list.append is atomic under the GIL
        index = len(self.spans) - 1
        if push:
            stack.append(index)
        return index

    def end(self, index: int, **counts: float) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.counts.update(counts)
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    # -- wrappers -------------------------------------------------------

    def _wrap(
        self,
        function: Callable[..., Any],
        name: str,
        args_of: Callable[..., dict[str, Any]] | None = None,
        counts_of: Callable[..., dict[str, float]] | None = None,
    ) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = tracer.begin(name, **(args_of(*args, **kwargs) if args_of else {}))
            result: Any = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                counts = counts_of(result, *args, **kwargs) if counts_of else {}
                tracer.end(index, **counts)

        return wrapper

    def _wrap_stream(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Wrap a generator function; the span runs from call to exhaustion.

        The ``busy`` count holds the time spent inside the generator
        itself, which is what the layer metric reports — the span's
        interval also covers the caller's per-item work in between.
        The span is kept off the thread's stack so the caller's own
        calls between items do not nest under it.
        """
        tracer = self

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = tracer.begin(name, push=False)
            busy = 0.0
            try:
                iterator = iter(function(*args, **kwargs))
                while True:
                    started = time.perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        busy += time.perf_counter() - started
                        return
                    busy += time.perf_counter() - started
                    yield item
            finally:
                tracer.end(index, busy=busy)

        return wrapper

    def _rebind(self, original: Any, replacement: Any) -> None:
        """Point every ``repro`` module attribute naming ``original`` at ``replacement``."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_attr(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer's public entry points (idempotent per install)."""
        if self._patches:
            return
        from repro.core import verification
        from repro.experiments import harness, parallel, query, report, results_io
        from repro.experiments.warehouse import WarehouseCache
        from repro.runtime import lockstep
        from repro.runtime.plan import ExecutionPlan, PlanShare
        from repro.service import protocol

        families = parallel.GRAPH_FAMILIES
        for family, builder in list(families.items()):
            self._patches.append((families, family, builder))
            families[family] = self._wrap(
                builder, "graphs.generate",
                args_of=lambda *a, _f=family, **k: {"family": _f},
                counts_of=lambda graph, *a, **k: {
                    "calls": 1, "edges": graph.edge_count if graph is not None else 0,
                },
            )

        compile_ = vars(ExecutionPlan)["compile"].__func__
        self._patch_attr(ExecutionPlan, "compile", classmethod(self._wrap(
            compile_, "plan.compile", counts_of=lambda *a, **k: {"calls": 1},
        )))
        export = vars(PlanShare)["export"].__func__
        self._patch_attr(PlanShare, "export", classmethod(self._wrap(
            export, "plan.export", counts_of=lambda *a, **k: {"calls": 1},
        )))

        self._rebind(harness.run_trial, self._wrap(
            harness.run_trial, "execute.trial",
            args_of=lambda graph, algorithm, *a, **k: {"algorithm": algorithm},
            counts_of=lambda record, *a, **k: {
                "trials": 1, "rounds": record.rounds if record is not None else 0,
            },
        ))
        self._rebind(harness.run_trials, self._wrap(
            harness.run_trials, "execute.trial",
            args_of=lambda graph, algorithm, *a, **k: {"algorithm": algorithm},
            counts_of=lambda records, *a, **k: {
                "trials": len(records or ()),
                "rounds": sum(r.rounds for r in records or ()),
            },
        ))
        self._rebind(lockstep.run_lockstep_batch, self._wrap(
            lockstep.run_lockstep_batch, "execute.lockstep",
            counts_of=lambda results, *a, **k: {"trials": len(results or ())},
        ))
        self._rebind(verification.verify_result, self._wrap(
            verification.verify_result, "execute.verify",
        ))
        self._rebind(parallel.run_sweep, self._wrap(parallel.run_sweep, "sweep.run_sweep"))

        def encode_counts(result: Any, *a: Any, **k: Any) -> dict[str, float]:
            if result is None:
                return {}
            codec, payload = result
            return {"bytes": len(payload), "fallback": int(codec != "batch")}

        self._rebind(protocol.encode_records, self._wrap(
            protocol.encode_records, "codec.encode", counts_of=encode_counts,
        ))
        self._rebind(protocol.decode_records, self._wrap(
            protocol.decode_records, "codec.decode",
            counts_of=lambda result, codec, payload, *a, **k: {"bytes": len(payload)},
        ))
        self._rebind(results_io.unpack_record_batch, self._wrap(
            results_io.unpack_record_batch, "codec.unpack",
            counts_of=lambda result, payload, *a, **k: {"bytes": len(payload)},
        ))

        def sent(result: Any, sock: Any, header: dict, payload: bytes = b"", **k: Any) -> dict[str, float]:
            return {"frames": 1, "bytes": len(payload)}

        def received(result: Any, *a: Any, **k: Any) -> dict[str, float]:
            return {"frames": 1, "bytes": len(result[1])} if result is not None else {}

        self._rebind(protocol.send_frame, self._wrap(protocol.send_frame, "wire.send", counts_of=sent))
        self._rebind(protocol.recv_frame, self._wrap(protocol.recv_frame, "wire.recv", counts_of=received))

        self._patch_attr(WarehouseCache, "append_indexed", self._wrap(
            WarehouseCache.append_indexed, "warehouse.append",
            counts_of=lambda result, cache, pairs, *a, **k: {
                "rows": len(pairs) if hasattr(pairs, "__len__") else 0,
            },
        ))
        self._patch_attr(WarehouseCache, "iter_indexed", self._wrap_stream(
            WarehouseCache.iter_indexed, "warehouse.scan",
        ))
        self._patch_attr(query.LazyFrame, "collect", self._wrap(
            query.LazyFrame.collect, "query.collect", counts_of=lambda *a, **k: {"calls": 1},
        ))
        self._rebind(report.summarize_warehouse, self._wrap(report.summarize_warehouse, "report"))

    def uninstall(self) -> None:
        """Restore every original binding (in reverse patch order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome trace-event JSON (open in Perfetto or ``chrome://tracing``)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = []
        for index, span in enumerate(self.spans):
            if span.end <= 0.0:
                continue
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "pid": os.getpid(),
                "tid": span.tid,
                "args": {**span.args, **span.counts, "job": span.job,
                         "span": index, "parent": span.parent},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


# ----------------------------------------------------------------------
# Turning spans into per-layer metrics
# ----------------------------------------------------------------------


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def layer_metrics(tracer: Tracer, cycles: int, main_tid: int) -> dict[str, float]:
    """Per-cycle layer totals over the traced operations.

    A span's time counts only where it overlaps a traced operation
    (``job`` or ``read`` span), so a broker thread idling in
    ``recv_frame`` between operations adds nothing; its counts are
    taken when it ends inside one.  Times are inclusive of nested
    calls except ``sweep.self_s``, which subtracts the run_sweep
    span's children.  ``obs.span_coverage`` is the share of operation
    time on the client thread covered by at least one layer span.
    """
    spans = [s for s in tracer.spans if s.end > 0.0]
    ops = sorted((s.start, s.end) for s in spans if s.name in OP_SPANS)
    out = {name: 0.0 for name, unit in LAYER_METRICS.items() if unit.endswith("/cycle")}
    if not ops or cycles <= 0:
        out["obs.span_coverage"] = 0.0
        return out
    starts = [start for start, _ in ops]

    def clipped(span: Span) -> float:
        position = bisect.bisect_right(starts, span.end) - 1
        total = 0.0
        while position >= 0:
            op_start, op_end = ops[position]
            if op_end <= span.start:
                break
            total += max(0.0, min(span.end, op_end) - max(span.start, op_start))
            position -= 1
        return total

    def inside(moment: float) -> bool:
        position = bisect.bisect_right(starts, moment) - 1
        return position >= 0 and moment <= ops[position][1]

    children: dict[int, list[int]] = {}
    for index, span in enumerate(tracer.spans):
        if span.parent is not None and span.end > 0.0:
            children.setdefault(span.parent, []).append(index)

    covered: list[tuple[float, float]] = []
    for index, span in enumerate(tracer.spans):
        if span.end <= 0.0 or span.name in OP_SPANS:
            continue
        time_in = clipped(span)
        counted = inside(span.end)
        name = span.name
        if span.tid == main_tid and time_in > 0.0:
            covered.append((span.start, span.end))
        if name in _SPAN_METRIC:
            if name == "warehouse.scan":
                # A stream: report the generator's own time, not the
                # interval that also holds the caller's fold.
                whole = span.end - span.start
                share = time_in / whole if whole > 0 else 0.0
                out["warehouse.scan_s"] += span.counts.get("busy", 0.0) * share
            else:
                out[_SPAN_METRIC[name]] += time_in
        if name == "graphs.generate":
            out[f"graphs.generate_s.{span.args['family']}"] += time_in
        elif name == "execute.trial":
            out[f"execute.trial_s.{span.args['algorithm']}"] += time_in
        elif name == "sweep.run_sweep" and time_in > 0.0:
            # run_sweep is called on the client thread, inside one
            # operation, so its whole self time counts.
            kids = [tracer.spans[k] for k in children.get(index, ())]
            inner = _union_length(
                (max(k.start, span.start), min(k.end, span.end)) for k in kids
            )
            out["sweep.self_s"] += max(0.0, span.end - span.start - inner)
        if not counted:
            continue
        counts = span.counts
        if name == "graphs.generate":
            out["graphs.generate_calls"] += counts.get("calls", 0)
            out["graphs.edges"] += counts.get("edges", 0)
        elif name == "plan.compile":
            out["plan.compile_calls"] += counts.get("calls", 0)
        elif name == "plan.export":
            out["plan.exports"] += counts.get("calls", 0)
        elif name == "execute.trial":
            out["execute.trials"] += counts.get("trials", 0)
            out["execute.rounds"] += counts.get("rounds", 0)
        elif name == "execute.lockstep":
            out["execute.lockstep_trials"] += counts.get("trials", 0)
        elif name in ("codec.encode", "codec.decode", "codec.unpack"):
            parent = tracer.spans[span.parent].name if span.parent is not None else None
            if not (name == "codec.unpack" and parent == "codec.decode"):
                out["codec.bytes"] += counts.get("bytes", 0)
            if name == "codec.encode":
                out["codec.fallback_batches"] += counts.get("fallback", 0)
        elif name == "wire.send":
            out["wire.frames_out"] += counts.get("frames", 0)
            out["wire.bytes_out"] += counts.get("bytes", 0)
        elif name == "wire.recv":
            out["wire.frames_in"] += counts.get("frames", 0)
            out["wire.bytes_in"] += counts.get("bytes", 0)
        elif name == "warehouse.append":
            out["warehouse.appends"] += 1
            out["warehouse.rows_appended"] += counts.get("rows", 0)
        elif name == "query.collect":
            out["query.collects"] += counts.get("calls", 0)

    op_time = sum(end - start for start, end in ops)
    main_ops_covered = 0.0
    for op_start, op_end in ops:
        main_ops_covered += _union_length(
            (max(start, op_start), min(end, op_end))
            for start, end in covered
            if end > op_start and start < op_end
        )
    for name in out:
        out[name] /= cycles
    out["obs.span_coverage"] = main_ops_covered / op_time if op_time > 0 else 0.0
    return out
