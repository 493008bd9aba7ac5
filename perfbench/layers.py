"""The traced run: per-layer costs, apart from the end-to-end runs.

It replays the workload's closed-loop trace three ways, in order:

1. serially over one connection to ``multilog serve --access-log``, for
   round-trip times and the server's own admission / lock / pool /
   engine breakdown of each request;
2. in this process, with nothing wrapped, on a session set up like the
   server's (audit on, journal attached), for the in-process time of
   each request;
3. in this process again, with the public entry points of each layer
   wrapped by :class:`Tracer`, which records calls, counts and self time
   (a call's time minus the time of the wrapped calls it made).

The third replay also runs the workload's cross-engine pass (the same
work its output check does), so a layer that the trace reaches only
through the other engine is still measured on this workload's data.
Nothing in ``src/`` changes: every span comes from this file.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import repro.datalog.engine as datalog_engine
import repro.multilog.reduction as reduction
import repro.multilog.session as session_module
from repro.multilog import MultiLogSession
from repro.multilog.proof import CellStore, OperationalEngine
from repro.obs.audit import AuditLog
from repro.obs.context import current as current_obs
from repro.resilience.journal import SessionJournal
from repro.serving.protocol import decode_request, encode_message

from load import Connection, Server
from workloads import Workload

#: per-layer metrics, in the order they are printed (name -> unit).
PER_LAYER = {
    "serving.overhead_ms": "ms",
    "serving.admission_ms": "ms",
    "serving.lock_wait_ms": "ms",
    "serving.pool_wait_ms": "ms",
    "serving.engine_ms": "ms",
    "serving.protocol_us": "us",
    "parser.parse_query_us": "us",
    "parser.parse_clause_us": "us",
    "reduction.query_us": "us",
    "reduction.translate_ms": "ms",
    "reduction.fixpoint_runs_per_ask": "ratio",
    "datalog.evaluate_ms": "ms",
    "datalog.join_probes": "count",
    "datalog.rows_derived": "count",
    "datalog.rounds": "count",
    "plan.compile_ms": "ms",
    "proof.solve_ms": "ms",
    "proof.compute_ms": "ms",
    "proof.candidates_per_answer": "ratio",
    "admissibility.check_ms": "ms",
    "journal.append_ms": "ms",
    "journal.bytes_per_user_byte": "ratio",
    "audit.ask_overhead_ms": "ms",
    "audit.events_per_ask": "ratio",
}
#: the traced run replays at most this many units of the trace: plenty
#: for per-call means, and it keeps light_reads' three serial replays
#: well inside a run's time limit on a slow host.
TRACED_UNITS = 10000
#: the audit pass times this many distinct asks, each this many times.
AUDIT_ASKS = 20
AUDIT_REPEATS = 3


class Tracer:
    """Calls, self time and counts of wrapped entry points."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def timed(self, layer: str, fn, before=None, after=None):
        """``fn`` timed as ``layer``; ``before()`` is taken ahead of the
        call and handed to ``after(state, result)`` once it returns."""
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            state = before() if before is not None else None
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                self._stack.pop()
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - frame[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if after is not None:
                after(state, result)
            return result
        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch_everywhere(self, original, layer: str) -> None:
        """Wrap every module-level binding of ``original``."""
        wrapper = self.timed(layer, original)
        for module in list(sys.modules.values()):
            if getattr(module, original.__name__, None) is original:
                self.patch(module, original.__name__, wrapper)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def per_call(self, layer: str, scale: float) -> float:
        calls = self.calls.get(layer, 0)
        return self.self_s[layer] / calls * scale if calls else 0.0


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each layer."""
    t = tracer

    def clauses_parsed(state, result):
        t.counts["parser.clauses"] += (len(result.clauses())
                                       if hasattr(result, "clauses") else 1)
    t.patch(session_module, "parse_query",
            t.timed("parser.query", session_module.parse_query))
    for name in ("parse_clause", "parse_database"):
        t.patch(session_module, name,
                t.timed("parser.clause", getattr(session_module, name),
                        after=clauses_parsed))
    t.patch_everywhere(session_module.check_admissibility, "admissibility")
    t.patch(reduction.ReducedProgram, "query",
            t.timed("reduction.query", reduction.ReducedProgram.query))
    t.patch(reduction, "_translate",
            t.timed("reduction.translate", reduction._translate))

    def datalog_state():
        metrics = current_obs().metrics
        return (getattr(metrics, "join_probes", 0),
                sum(getattr(metrics, "rows_derived", {}).values()),
                sum(getattr(metrics, "rounds", {}).values()))

    def datalog_counts(state, result):
        for name, old, new in zip(("probes", "rows", "rounds"), state,
                                  datalog_state()):
            t.counts[f"datalog.{name}"] += new - old
    t.patch(reduction, "evaluate",
            t.timed("datalog.evaluate", reduction.evaluate,
                    before=datalog_state, after=datalog_counts))
    t.patch(datalog_engine, "compile_rule",
            t.timed("plan.compile", datalog_engine.compile_rule))

    def answers(state, result):
        t.counts["proof.answers"] += len(result)
    t.patch(OperationalEngine, "solve",
            t.timed("proof.solve", OperationalEngine.solve, after=answers))
    # ``solve`` calls ``compute`` every time; only a real run is timed.
    compute = OperationalEngine.compute
    timed_compute = t.timed("proof.compute", compute)
    t.patch(OperationalEngine, "compute",
            lambda self: compute(self) if self._computed
            else timed_compute(self))
    candidates = CellStore.candidates

    def counted_candidates(self, pred, attr):
        rows = candidates(self, pred, attr)
        t.counts["proof.candidates"] += len(rows)
        return rows
    t.patch(CellStore, "candidates", counted_candidates)
    believed_cells = OperationalEngine.believed_cells

    def counted_believed(self, *args, **kwargs):
        rows = believed_cells(self, *args, **kwargs)
        t.counts["proof.candidates"] += len(rows)
        return rows
    t.patch(OperationalEngine, "believed_cells", counted_believed)
    t.patch(SessionJournal, "append_clause",
            t.timed("journal.append", SessionJournal.append_clause))
    emit = AuditLog.emit

    def counted_emit(self, *args, **kwargs):
        t.counts["audit.events"] += 1
        return emit(self, *args, **kwargs)
    t.patch(AuditLog, "emit", counted_emit)


class Replica:
    """An in-process copy of the server's state: a root session with the
    audit trail and journal on, and one sibling per clearance."""

    def __init__(self, source: str, journal: Path, audit: bool = True):
        self.root = MultiLogSession(source)
        self.audit = self.root.enable_audit() if audit else None
        self.root.attach_journal(journal)
        self.siblings: dict[str, MultiLogSession] = {}

    def at(self, level: str) -> MultiLogSession:
        if level not in self.siblings:
            sibling = self.root.with_clearance(level)
            if self.audit is not None:
                sibling.enable_audit(self.audit)
            self.siblings[level] = sibling
        return self.siblings[level]

    def run(self, request):
        session = self.at(request.level)
        if request.op == "assert":
            session.assert_clause(request.text)
            return None
        return session.ask(request.text, engine=request.engine or "operational")


def replay(replica: Replica, requests) -> tuple[list[float], list]:
    """Seconds each request took in process, and what each returned."""
    times, results = [], []
    for request in requests:
        started = perf_counter()
        results.append(replica.run(request))
        times.append(perf_counter() - started)
    return times, results


async def served_replay(root: Path, run_dir: Path, program: Path,
                        workload: Workload, requests) -> tuple[list, list]:
    """Round trips of ``requests`` sent serially on one connection, and
    the access-log records the server wrote for them."""
    access = run_dir / "access.jsonl"
    server = await Server.launch(root, program, run_dir / "traced.journal",
                                 access_log=access)
    try:
        conn = await Connection.open(server.port)
        await conn.call(workload.probe.payload())
        loop = asyncio.get_running_loop()
        round_trips = []
        for request in requests:
            started = loop.time()
            response = await conn.call(request.payload())
            round_trips.append(loop.time() - started)
            if not response.get("ok"):
                raise RuntimeError(f"traced request failed: {response}")
        await conn.close()
    finally:
        await server.stop()
    # The log rotates at 8 MiB (access.jsonl.1 is the newest rotated file).
    rotated = sorted(run_dir.glob(access.name + ".*"),
                     key=lambda path: int(path.suffix[1:]), reverse=True)
    records = [json.loads(line) for path in [*rotated, access]
               for line in path.read_text().splitlines()]
    records = [r for r in records if r["op"] in ("ask", "assert")]
    if len(records) != len(requests) + 1:
        raise RuntimeError(f"access log holds {len(records)} of "
                           f"{len(requests) + 1} requests")
    return round_trips, records[1:]  # the first one is the probe


def protocol_us(requests, answers) -> float:
    """``decode_request`` of each request line plus ``encode_message`` of
    its response, per request, in microseconds."""
    started = perf_counter()
    for number, (request, result) in enumerate(zip(requests, answers)):
        decode_request(encode_message({"id": number, **request.payload()}))
        body = ({"version": 1} if result is None else
                {"answers": result, "version": 1, "complete": True,
                 "engine": request.engine or "operational"})
        encode_message({"id": number, "ok": True, **body})
    return (perf_counter() - started) / len(requests) * 1e6


def audit_overhead_ms(source: str, run_dir: Path, workload: Workload,
                      applied) -> float:
    """Median over distinct asks of (warm ask with audit - without)."""
    replicas = [Replica(source, run_dir / f"audit{i}.journal", audit=on)
                for i, on in enumerate((True, False))]
    for replica in replicas:
        for request in applied:
            replica.at(request.level).assert_clause(request.text)
    deltas = []
    distinct = [r for r in workload.distinct_asks() if r.shape[0] != "path"]
    for request in distinct[:AUDIT_ASKS]:
        timings = []
        for replica in replicas:
            replica.run(request)  # warm
            samples, _ = replay(replica, [request] * AUDIT_REPEATS)
            timings.append(statistics.median(samples))
        deltas.append(timings[0] - timings[1])
    return statistics.median(deltas) * 1000


def traced_metrics(root: Path, run_dir: Path, program: Path,
                   workload: Workload, cross_engine) -> tuple[dict, dict, list]:
    """The per-layer metrics, a few reference figures for the report, and
    the failures the cross-engine pass found."""
    requests = [r for unit in workload.closed[:TRACED_UNITS] for r in unit]
    asks = [i for i, r in enumerate(requests) if r.op == "ask"]
    round_trips, records = asyncio.run(
        served_replay(root, run_dir, program, workload, requests))

    plain = Replica(workload.source, run_dir / "plain.journal")
    plain.run(workload.probe)
    inproc, answers = replay(plain, requests)
    protocol = protocol_us(requests, answers)

    tracer = Tracer()
    install(tracer)
    journal_path = run_dir / "traced-inproc.journal"
    try:
        traced = Replica(workload.source, journal_path)
        traced.run(workload.probe)
        events_before = tracer.counts["audit.events"]
        builds_before = tracer.calls["datalog.evaluate"]
        replay(traced, requests)
        events = tracer.counts["audit.events"] - events_before
        reduction_asks = sum(1 for i in asks if requests[i].engine == "reduction")
        model_builds = tracer.calls["datalog.evaluate"] - builds_before
        failures = cross_engine(traced)
    finally:
        tracer.unpatch()
    applied = [r for r in requests if r.op == "assert"]
    user_bytes = len(workload.source.encode()) + sum(
        len(r.text.encode()) for r in applied)

    def breakdown(key: str) -> float:
        return statistics.fmean(r["breakdown"].get(key, 0.0)
                                for r in records) * 1000

    t = tracer
    builds = max(1, t.calls.get("datalog.evaluate", 0))
    answers_returned = max(1, t.counts["proof.answers"])
    return {
        "serving.overhead_ms": statistics.median(
            (round_trips[i] - inproc[i]) * 1000 for i in asks),
        "serving.admission_ms": breakdown("admission_s"),
        "serving.lock_wait_ms": breakdown("lock_wait_s"),
        "serving.pool_wait_ms": breakdown("pool_wait_s"),
        "serving.engine_ms": breakdown("engine_s"),
        "serving.protocol_us": protocol,
        "parser.parse_query_us": t.per_call("parser.query", 1e6),
        "parser.parse_clause_us": (t.self_s["parser.clause"]
                                   / max(1, t.counts["parser.clauses"]) * 1e6),
        "reduction.query_us": t.per_call("reduction.query", 1e6),
        "reduction.translate_ms": t.per_call("reduction.translate", 1e3),
        "reduction.fixpoint_runs_per_ask": model_builds / max(1, reduction_asks),
        "datalog.evaluate_ms": t.per_call("datalog.evaluate", 1e3),
        "datalog.join_probes": t.counts["datalog.probes"] / builds,
        "datalog.rows_derived": t.counts["datalog.rows"] / builds,
        "datalog.rounds": t.counts["datalog.rounds"] / builds,
        "plan.compile_ms": t.per_call("plan.compile", 1e3),
        "proof.solve_ms": t.per_call("proof.solve", 1e3),
        "proof.compute_ms": t.per_call("proof.compute", 1e3),
        "proof.candidates_per_answer": t.counts["proof.candidates"] / answers_returned,
        "admissibility.check_ms": t.per_call("admissibility", 1e3),
        "journal.append_ms": t.per_call("journal.append", 1e3),
        "journal.bytes_per_user_byte": journal_path.stat().st_size / user_bytes,
        "audit.ask_overhead_ms": audit_overhead_ms(
            workload.source, run_dir, workload, applied),
        "audit.events_per_ask": events / max(1, len(asks)),
    }, {
        # The share of the mean ask round trip that no server-side
        # breakdown step covers: framing, the event loop, the client.
        "unaccounted_share": 1 - statistics.fmean(
            sum(records[i]["breakdown"].values()) for i in asks
        ) / statistics.fmean(round_trips[i] for i in asks),
        "round_trip_ms": statistics.median(round_trips[i] for i in asks) * 1000,
        "inproc_ms": statistics.median(inproc[i] for i in asks) * 1000,
    }, failures
