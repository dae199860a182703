"""The traced run: spans around each layer's public functions.

The server is hosted in this process (:class:`repro.net.ReproServer`
around a :class:`repro.service.QueryService`) so that every layer's
public functions can be wrapped from here; nothing in the program
changes.  A span records its name, layer, start, end, parent span (on
the same thread) and request id.  Request ids are the query labels the
load generator sends (``q<index>``), which the server hands to
``QueryService.submit`` — so the client, handler and dispatcher spans
of one request can be joined.

Functions called once per row (arrival walks, summary probes and
inserts, spill-page I/O, scan drives) are not spans: their time and
call count accumulate on the innermost open span of the calling
thread, which keeps the trace small and the overhead bounded.

Spans stay in memory and are written out once, at the end, as
Chrome-trace JSON (``perfbench/out/trace-<workload>-<seed>.json``),
checked with ``python -m repro.obs.validate``.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layer of each span name (the Chrome-trace category).
LAYERS = {
    "data.generate": "data",
    "client.query": "client",
    "net.encode": "net",
    "net.decode": "net",
    "server.request": "net",
    "net.queue_wait": "net",
    "service.group": "service",
    "service.submit": "service",
    "sql.plan": "service",
    "service.run": "service",
    "exec.engine": "exec",
    "exec.translate": "exec",
}

#: Allowed gap between a request's blocking-path self times and its
#: client latency, as a share of the latency.  The only overlap the
#: path allows is the client parsing one response frame while the
#: server thread encodes the next.
SELF_TIME_TOLERANCE = 0.05


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "tid",
                 "args", "accum")

    def __init__(self, sid, name, start, parent, rid, tid):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.tid = tid
        self.args: Dict = {}
        #: category -> [seconds, calls] of accumulated per-row work.
        self.accum: Dict[str, List[float]] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store with thread-local span stacks."""

    def __init__(self):
        self.spans: List[Span] = []
        self.enabled = False
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()
        self.loose: Dict[str, List[float]] = {}

    def stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid=None, start: Optional[float] = None,
              parent: Optional[Span] = None) -> Span:
        stack = self.stack()
        with self._lock:
            self._next += 1
            sid = self._next
        span = Span(
            sid, name, time.perf_counter() if start is None else start,
            parent if parent is not None else (stack[-1] if stack else None),
            rid, threading.get_ident(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self.stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def add_accum(self, category: str, seconds: float) -> None:
        stack = self.stack()
        target = stack[-1].accum if stack else self.loose
        entry = target.get(category)
        if entry is None:
            target[category] = [seconds, 1]
        else:
            entry[0] += seconds
            entry[1] += 1


# -- wrappers ----------------------------------------------------------------

def span_wrapper(rec: Recorder, name: str, fn: Callable,
                 rid_of: Optional[Callable] = None,
                 after: Optional[Callable] = None) -> Callable:
    """``fn`` inside a span; ``rid_of(args, kwargs)`` names its request
    and ``after(span, args, kwargs, result)`` may annotate it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        span = rec.begin(name, rid_of(args, kwargs) if rid_of else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result

    return wrapper


def accum_wrapper(rec: Recorder, category: str, fn: Callable) -> Callable:
    """``fn`` timed into the innermost open span; nested calls of the
    same category (``add_many`` calling ``add``) count once."""
    flag = "in_" + category

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        local = rec._local
        if not rec.enabled or getattr(local, flag, False):
            return fn(*args, **kwargs)
        setattr(local, flag, True)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            setattr(local, flag, False)
            rec.add_accum(category, time.perf_counter() - started)

    return wrapper


class _TimedStream:
    """A read-side proxy that marks when a frame's first bytes arrived,
    so a decode span covers parsing, not waiting for the peer."""

    __slots__ = ("stream", "first_byte")

    def __init__(self, stream):
        self.stream = stream
        self.first_byte: Optional[float] = None

    def read(self, n):
        data = self.stream.read(n)
        if self.first_byte is None:
            self.first_byte = time.perf_counter()
        return data


def decode_wrapper(rec: Recorder, fn: Callable) -> Callable:
    """``read_frame`` as a ``net.decode`` span starting at first byte."""

    @functools.wraps(fn)
    def wrapper(stream, *args, **kwargs):
        if not rec.enabled:
            return fn(stream, *args, **kwargs)
        timed = _TimedStream(stream)
        frame = fn(timed, *args, **kwargs)
        if timed.first_byte is not None:
            stack = rec.stack()
            span = rec.begin("net.decode", start=timed.first_byte)
            rec.end(span)
            span.args["frame"] = frame.get("type")
            # A query frame read by a server handler names its request.
            span.rid = stack[-1].rid if stack else frame.get("label")
        return frame

    return wrapper


def encode_wrapper(rec: Recorder, fn: Callable) -> Callable:
    def after(span, args, kwargs, result):
        span.args["bytes"] = len(result)
        span.args["frame"] = args[0].get("type")
        parent = span.parent
        span.rid = parent.rid if parent is not None else None

    return span_wrapper(rec, "net.encode", fn, after=after)


class Patches:
    """Monkey-patches applied by :func:`install`, undone by
    :meth:`restore`."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _label_rid(args, kwargs):
    return kwargs.get("label")


def install(rec: Recorder) -> Patches:
    """Wrap each layer's public functions (module attributes as their
    callers look them up)."""
    import repro.client as client_mod
    import repro.harness.concurrent as concurrent_mod
    import repro.net.server as server_mod
    import repro.service.service as service_mod
    import repro.sql as sql_mod
    from repro.exec import arrival as arrival_mod
    from repro.storage import disk as disk_mod
    from repro.summaries import base, bloom, bounds, hashset, histogram

    patches = Patches()
    for module in (client_mod, server_mod):
        patches.set(module, "encode_frame",
                    encode_wrapper(rec, module.encode_frame))
        patches.set(module, "read_frame",
                    decode_wrapper(rec, module.read_frame))
    patches.set(client_mod.Client, "query", span_wrapper(
        rec, "client.query", client_mod.Client.query, rid_of=_label_rid,
    ))
    server_cls = server_mod.ReproServer
    patches.set(server_cls, "_serve_query", span_wrapper(
        rec, "server.request", server_cls._serve_query,
        rid_of=lambda a, k: a[2].get("label"),
    ))

    def group_after(span, args, kwargs, result):
        span.args["rids"] = [r.label for r in args[1]]

    patches.set(server_cls, "_run_requests", span_wrapper(
        rec, "service.group", server_cls._run_requests, after=group_after,
    ))
    svc = service_mod.QueryService
    patches.set(svc, "submit", span_wrapper(
        rec, "service.submit", svc.submit, rid_of=_label_rid,
    ))
    patches.set(svc, "run", span_wrapper(rec, "service.run", svc.run))
    patches.set(sql_mod, "sql_to_plan", span_wrapper(
        rec, "sql.plan", sql_mod.sql_to_plan,
    ))

    def engine_after(span, args, kwargs, result):
        # Source rows the batch's scans read (emitted or pruned at the
        # scan), for rows-per-drive and the AIP prune ratio.
        ctx = args[1]
        scanned = 0
        for physical in span.args.pop("physicals", ()):
            for scan in physical.scans:
                counters = ctx.metrics.operators.get(scan.op_id)
                if counters is not None:
                    scanned += counters.tuples_out + counters.tuples_pruned
        span.args["scan_rows"] = scanned
        span.args["tuples_pruned"] = ctx.metrics.total_pruned

    patches.set(service_mod, "run_concurrent", span_wrapper(
        rec, "exec.engine", service_mod.run_concurrent, after=engine_after,
    ))

    def translate_after(span, args, kwargs, result):
        parent = span.parent
        if parent is not None and parent.name == "exec.engine":
            parent.args.setdefault("physicals", []).append(result)

    patches.set(concurrent_mod, "translate", span_wrapper(
        rec, "exec.translate", concurrent_mod.translate,
        after=translate_after,
    ))
    patches.set(concurrent_mod, "drive_scan", accum_wrapper(
        rec, "exec.drive", concurrent_mod.drive_scan,
    ))
    arrival = arrival_mod.ArrivalModel
    for name in ("next_batch", "next_arrival"):
        patches.set(arrival, name, accum_wrapper(
            rec, "exec.arrival", arrival.__dict__[name],
        ))
    for module in (base, bloom, bounds, hashset, histogram):
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            for name, category in (
                ("add", "summaries.insert"), ("add_many", "summaries.insert"),
                ("might_contain", "summaries.probe"),
                ("might_contain_many", "summaries.probe"),
            ):
                fn = cls.__dict__.get(name)
                if fn is not None and not getattr(
                        fn, "__isabstractmethod__", False):
                    patches.set(cls, name, accum_wrapper(rec, category, fn))
    disk = disk_mod.DiskBackend
    for name in ("write", "read"):
        patches.set(disk, name, accum_wrapper(
            rec, "storage.io", disk.__dict__[name],
        ))
    return patches


# -- analysis ----------------------------------------------------------------

def self_time(span_interval: Tuple[float, float],
              children: Sequence[Tuple[float, float]]) -> float:
    """Span duration minus the part of it its children cover (the
    union of the children's intervals, clipped to the span)."""
    start, end = span_interval
    covered = 0.0
    cursor = start
    for c_start, c_end in sorted(children):
        c_start = max(c_start, cursor)
        c_end = min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            cursor = c_end
    return (end - start) - covered


def tree_self_times(root, children_of: Callable) -> List[Tuple[str, float]]:
    """(name, self time) of every node under ``root``, depth first.
    Nodes have ``name``, ``start`` and ``end``."""
    out = []
    pending = [root]
    while pending:
        node = pending.pop()
        kids = children_of(node)
        out.append((node.name, self_time(
            (node.start, node.end), [(k.start, k.end) for k in kids],
        )))
        pending.extend(kids)
    return out


class _Joined:
    """Spans indexed for analysis: children by parent span id, and the
    dispatcher group and server-side request span of each request id."""

    def __init__(self, spans: Sequence[Span]):
        self.children: Dict[int, List[Span]] = defaultdict(list)
        self.group: Dict[str, Span] = {}
        self.server: Dict[str, Span] = {}
        for span in spans:
            if span.parent is not None:
                self.children[span.parent.sid].append(span)
            if span.name == "service.group":
                for rid in span.args.get("rids", ()):
                    self.group[rid] = span
            elif span.name == "server.request":
                self.server[span.rid] = span

    def self_time(self, span: Span) -> float:
        return self_time((span.start, span.end),
                         [(k.start, k.end) for k in self.children[span.sid]])


class _Node:
    """A blocking-path node: a span's interval, or a synthetic one."""

    __slots__ = ("name", "start", "end", "kids")

    def __init__(self, name, start, end, kids=()):
        self.name = name
        self.start = start
        self.end = end
        self.kids = list(kids)


def request_paths(spans: Sequence[Span]) -> Dict[str, _Node]:
    """Per request id: the blocking path as a tree of nodes.

    client.query
      net.encode / net.decode            (client thread)
      net.decode                         (the server reading the query)
      server.request                     (handler thread)
        net.queue_wait                   accepted -> its group starts
        service.group                    (dispatcher thread)
          service.submit (every request of the group) > sql.plan
          service.run > exec.engine > exec.translate
        net.encode                       (the reply frames)
    """
    joined = _Joined(spans)

    def node_of(span: Span) -> _Node:
        return _Node(span.name, span.start, span.end,
                     [node_of(c) for c in joined.children[span.sid]])

    query_reads = {s.rid: s for s in spans
                   if s.name == "net.decode" and s.parent is None}
    out = {}
    for root in spans:
        if root.name != "client.query" or root.rid not in joined.server:
            continue
        server = node_of(joined.server[root.rid])
        group = joined.group.get(root.rid)
        if group is not None:
            server.kids.append(_Node("net.queue_wait", server.start,
                                     max(server.start, group.start)))
            server.kids.append(node_of(group))
        path = node_of(root)
        path.kids.append(server)
        if root.rid in query_reads:
            path.kids.append(node_of(query_reads[root.rid]))
        out[root.rid] = path
    return out


def self_time_check(spans: Sequence[Span]) -> Dict:
    """Blocking-path self times against client latency, per request."""
    total_self = total_latency = 0.0
    within = checked = 0
    worst = 0.0
    for root in request_paths(spans).values():
        parts = tree_self_times(root, lambda n: n.kids)
        summed = sum(t for _, t in parts)
        latency = root.end - root.start
        gap = abs(summed - latency) / latency if latency > 0 else 0.0
        checked += 1
        within += gap <= SELF_TIME_TOLERANCE
        worst = max(worst, gap)
        total_self += summed
        total_latency += latency
    aggregate = (
        abs(total_self - total_latency) / total_latency
        if total_latency > 0 else 0.0
    )
    return {
        "requests": checked,
        "within_tolerance": within,
        "tolerance": SELF_TIME_TOLERANCE,
        "aggregate_gap": aggregate,
        "worst_request_gap": worst,
        "ok": checked > 0 and aggregate <= SELF_TIME_TOLERANCE,
    }


def write_chrome(spans: Sequence[Span], path: str, origin: float) -> None:
    tids: Dict[int, int] = {}
    events = []
    for span in spans:
        tid = tids.setdefault(span.tid, len(tids) + 1)
        args = {"id": span.sid}
        if span.parent is not None:
            args["parent"] = span.parent.sid
        if span.rid is not None:
            args["rid"] = span.rid
        for key, value in span.args.items():
            if isinstance(value, (int, float, str, list)):
                args[key] = value
        for category, (seconds, calls) in span.accum.items():
            args[category + "_s"] = seconds
            args[category + "_calls"] = calls
        events.append({
            "name": span.name, "cat": LAYERS.get(span.name, "other"),
            "ph": "X", "pid": 1, "tid": tid,
            "ts": max(0.0, (span.start - origin) * 1e6),
            "dur": max(0.0, span.duration * 1e6),
            "args": args,
        })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def validate_trace(root: str, path: str) -> bool:
    """Run the program's own trace checker on ``path``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro.obs.validate", path], cwd=root,
        env=env, capture_output=True, text=True, timeout=120,
    )
    return done.returncode == 0


# -- the traced run ----------------------------------------------------------

def _per_query(total: float, queries: int) -> float:
    return total / queries if queries else 0.0


def layer_metrics(spans: Sequence[Span], loose: Dict, n: int,
                  latencies: Dict[str, float], deltas: Dict,
                  setup_spans: Sequence[Span]) -> Dict[str, float]:
    """The per-layer metrics of one traced phase (``n`` completed
    queries; times are seconds per completed query)."""
    totals: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    accum: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    joined = _Joined(spans)
    for span in spans:
        totals[span.name] += span.duration
        counts[span.name] += 1
        for category, (seconds, calls) in span.accum.items():
            accum[category][0] += seconds
            accum[category][1] += calls
    for category, (seconds, calls) in loose.items():
        accum[category][0] += seconds
        accum[category][1] += calls

    # Operator time: run_concurrent's self time (its child spans are
    # plan translation) minus the per-row arrival walk, summary work and
    # spill I/O accumulated on it.
    operator = scan_rows = pruned = run_self = 0.0
    for span in spans:
        if span.name == "service.run":
            run_self += joined.self_time(span)
        if span.name != "exec.engine":
            continue
        side = sum(span.accum.get(c, (0.0, 0))[0] for c in (
            "exec.arrival", "summaries.insert", "summaries.probe",
            "storage.io"))
        operator += joined.self_time(span) - side
        scan_rows += span.args.get("scan_rows", 0)
        pruned += span.args.get("tuples_pruned", 0)

    # Queue wait: frame accepted -> the request's group starts.  Wire
    # time: client latency minus queue wait and the submit + run time of
    # the request's group, so the three add up to the latency.
    work_of_group: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.name in ("service.submit", "service.run"):
            group = span.parent
            if group is not None and group.name == "service.group":
                work_of_group[group.sid] += span.duration
    wire = queue_wait = 0.0
    for rid, latency in latencies.items():
        group = joined.group.get(rid)
        if group is None:
            continue
        server = joined.server.get(rid)
        waited = max(0.0, group.start - server.start) if server else 0.0
        queue_wait += waited
        wire += latency - waited - work_of_group[group.sid]
    groups_run = [g for g in spans if g.name == "service.group"
                  and any(k.name == "service.run"
                          for k in joined.children[g.sid])]
    encode_bytes = sum(s.args.get("bytes", 0) for s in spans
                       if s.name == "net.encode")
    drives = accum["exec.drive"][1]
    evictions = deltas.get("storage.evictions", 0)
    setup_total = defaultdict(float)
    for span in setup_spans:
        setup_total[span.name] += span.duration
    return {
        "data.generate_s": setup_total["data.generate"],
        "net.wire_s": _per_query(wire, n),
        "net.encode_s": _per_query(totals["net.encode"], n),
        "net.decode_s": _per_query(totals["net.decode"], n),
        "net.frames_per_query": _per_query(
            counts["net.encode"], n),
        "net.bytes_per_query": _per_query(encode_bytes, n),
        "net.queue_wait_s": _per_query(queue_wait, n),
        "service.submit_s": _per_query(totals["service.submit"], n),
        "sql.plan_s": _per_query(totals["sql.plan"], n),
        "service.run_self_s": _per_query(run_self, n),
        "service.batch_queries": (
            sum(len(g.args.get("rids", ())) for g in groups_run)
            / len(groups_run) if groups_run else 0.0
        ),
        "service.result_cache.hit_ratio": deltas["result_hit_ratio"],
        "service.aip_cache.inject_ratio": deltas["aip_inject_ratio"],
        "exec.translate_s": _per_query(totals["exec.translate"], n),
        "exec.engine_s": _per_query(totals["exec.engine"], n),
        "exec.arrival_s": _per_query(accum["exec.arrival"][0], n),
        "exec.operator_s": _per_query(operator, n),
        "exec.drives": _per_query(drives, n),
        "exec.rows_per_drive": scan_rows / drives if drives else 0.0,
        "exec.pages_pushed": _per_query(deltas["engine.pages_pushed"], n),
        "exec.rows_selected": _per_query(deltas["engine.rows_selected"], n),
        "aip.prune_ratio": pruned / scan_rows if scan_rows else 0.0,
        "aip.sets_created": _per_query(deltas["engine.aip_sets_created"], n),
        "aip.sets_declined": _per_query(
            deltas["engine.aip_sets_declined"], n),
        "aip.bytes_shipped": _per_query(
            deltas["engine.aip_bytes_shipped"], n),
        "summaries.insert_s": _per_query(accum["summaries.insert"][0], n),
        "summaries.probe_s": _per_query(accum["summaries.probe"][0], n),
        "storage.spill_bytes": _per_query(deltas.get("storage.spill_bytes", 0),
                                          n),
        "storage.evictions": _per_query(evictions, n),
        "storage.reloads": _per_query(deltas.get("storage.reloads", 0), n),
        "storage.reload_ratio": (
            deltas.get("storage.reloads", 0) / evictions if evictions else 0.0
        ),
        "storage.io_s": _per_query(accum["storage.io"][0], n),
    }


LAYER_UNITS = {
    "data.generate_s": "s",
    "net.wire_s": "s",
    "net.encode_s": "s",
    "net.decode_s": "s",
    "net.frames_per_query": "count",
    "net.bytes_per_query": "B",
    "net.queue_wait_s": "s",
    "service.submit_s": "s",
    "sql.plan_s": "s",
    "service.run_self_s": "s",
    "service.batch_queries": "count",
    "service.result_cache.hit_ratio": "ratio",
    "service.aip_cache.inject_ratio": "ratio",
    "exec.translate_s": "s",
    "exec.engine_s": "s",
    "exec.arrival_s": "s",
    "exec.operator_s": "s",
    "exec.drives": "count",
    "exec.rows_per_drive": "count",
    "exec.pages_pushed": "count",
    "exec.rows_selected": "count",
    "aip.prune_ratio": "ratio",
    "aip.sets_created": "count",
    "aip.sets_declined": "count",
    "aip.bytes_shipped": "B",
    "summaries.insert_s": "s",
    "summaries.probe_s": "s",
    "storage.spill_bytes": "B",
    "storage.evictions": "count",
    "storage.reloads": "count",
    "storage.reload_ratio": "ratio",
    "storage.io_s": "s",
    "obs.trace_overhead": "ratio",
}


def _service_counters(service) -> Dict[str, float]:
    registry = service.registry
    out = {
        "result_hits": registry.counter("cache.result.hits").value,
        "result_misses": registry.counter("cache.result.misses").value,
    }
    for key in ("pages_pushed", "rows_selected", "aip_sets_created",
                "aip_sets_declined", "aip_bytes_shipped"):
        out["engine." + key] = registry.counter("engine." + key).value
    if service.aip_cache is not None:
        stats = service.aip_cache.stats()
        out["aip_hits"], out["aip_misses"] = stats["hits"], stats["misses"]
    governor = service.governor
    if governor is not None:
        out["storage.spill_bytes"] = governor.backend.bytes_written
        out["storage.evictions"] = governor.buffer.evictions
        out["storage.reloads"] = governor.buffer.reloads
    return out


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def run_traced(args, kind, serve_args, stream, round_size, *, scale,
               clients, out_dir):
    """Host the server here; an untraced then a traced closed-loop
    phase of ``--seconds / 2`` each; per-layer metrics of the latter."""
    import tempfile

    import repro.cli as cli_mod
    from repro.client import Client
    from repro.data.tpch import cached_tpch
    from repro.net.server import ReproServer

    from perfbench.oracle import check_results, outcome_counts
    from perfbench.served import OK, WARMUP_SQL, closed_loop, tidy_workdir

    workdir = os.path.join(out_dir, "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    tempfile.tempdir = workdir  # spill files stay under the checkout
    rec = Recorder()
    # The service `repro serve` builds, from the same arguments.
    serve_ns = cli_mod.build_parser().parse_args(
        ["serve", "--port", "0", "--scale", repr(scale)] + list(serve_args)
    )
    patches = install(rec)
    patches.set(cli_mod, "cached_tpch", span_wrapper(
        rec, "data.generate", cli_mod.cached_tpch,
    ))
    rec.enabled = True
    origin = time.perf_counter()
    service = cli_mod._make_service(serve_ns)
    server = ReproServer(service, port=0).start()
    try:
        with Client(port=server.port) as client:
            client.query(WARMUP_SQL).require()
        rec.enabled = False
        patches.restore()
        setup_spans = list(rec.spans)
        rec.spans.clear()

        loops = []
        first = 0
        if kind == "hot":
            loops.append(closed_loop(server.port, stream, clients, 0.0,
                                     round_size))
            first = round_size
        half = args.seconds / 2.0
        plain = closed_loop(server.port, stream, clients, half, round_size,
                            first_index=first)
        loops.append(plain)
        before = _service_counters(service)
        patches = install(rec)
        rec.enabled = True
        traced = closed_loop(server.port, stream, clients, half, round_size,
                             first_index=first if kind == "hot"
                             else plain.records[-1].index + 1)
        rec.enabled = False
        patches.restore()
        loops.append(traced)
        after = _service_counters(service)
    finally:
        server.stop()
        service.close()
        tidy_workdir(workdir)
    catalog = cached_tpch(scale_factor=scale)
    checked = check_results(catalog, stream, loops)
    counts = outcome_counts(plain.records + traced.records,
                            checked["mismatched"])
    ok = [r for r in traced.records if r.status == OK]
    latencies = {"q%d" % r.index: r.latency for r in ok}
    delta = {key: after[key] - before.get(key, 0) for key in after}
    delta["result_hit_ratio"] = _ratio(delta["result_hits"],
                                       delta["result_misses"])
    delta["aip_inject_ratio"] = _ratio(delta.get("aip_hits", 0),
                                       delta.get("aip_misses", 0))
    metrics = layer_metrics(rec.spans, rec.loose, len(ok), latencies, delta,
                            setup_spans)
    plain_qps = sum(r.status == OK for r in plain.records) / plain.wall_s
    traced_qps = len(ok) / traced.wall_s
    metrics["obs.trace_overhead"] = traced_qps / plain_qps

    trace_path = os.path.join(
        out_dir, "trace-%s-%d.json" % (args.workload, args.seed))
    write_chrome(setup_spans + rec.spans, trace_path, origin)
    self_check = self_time_check(rec.spans)
    mean_latency = sum(latencies.values()) / len(latencies)
    detail = {
        "counts": counts,
        "trace_file": os.path.relpath(trace_path, os.path.dirname(out_dir)),
        "trace_valid": validate_trace(_root_of(out_dir), trace_path),
        "spans": len(rec.spans) + len(setup_spans),
        "self_time_check": self_check,
        "untraced_qps": plain_qps,
        "traced_qps": traced_qps,
        "traced_mean_latency_s": mean_latency,
        "shares_of_mean_latency": {
            name: metrics[name] / mean_latency
            for name in ("net.wire_s", "exec.engine_s", "net.queue_wait_s")
        },
        "oracle": {k: v for k, v in checked.items() if k != "mismatched"},
        "mismatched_requests": checked["mismatched"],
    }
    if not detail["trace_valid"] or not self_check["ok"]:
        counts["failed"] += 1
        counts["trace_check_failed"] = 1
    return metrics, LAYER_UNITS, counts, detail


def _root_of(out_dir: str) -> str:
    """The checkout root (``out_dir`` is ``<root>/perfbench/out``)."""
    return os.path.dirname(os.path.dirname(os.path.abspath(out_dir)))
