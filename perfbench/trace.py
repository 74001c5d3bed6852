"""Span tracing for traced runs, from outside the engine.

A traced run wraps the public entry points of each engine layer with a
span recorder; ``lucene_ray/`` itself is not edited.  The driver process
installs the wrappers directly.  Ray workers (build and merge tasks, the
query service actor) install them through ``worker_setup``, which the
benchmark passes to ``ray.init`` as the worker process setup hook.

A span is (name, start, end, id, parent, thread, attrs), with start and
end from ``time.monotonic_ns`` -- one clock for every process on the
host, so spans of different processes can be compared.  Spans stay in
memory.  The driver writes its spans when the run ends; a worker appends
its spans to its own file each time its outermost span closes (a task or
an RPC call ends), because a worker is never told that the run ended.

``summarize`` joins the files.  A span with no parent in its own thread
(a worker task, an actor call, a merge prefetch step) is adopted by the
innermost span of another thread or process whose interval contains it:
the call that was waiting for it.  Only spans under the workload's
timed operations (``op.*``) count.  Self time is a span's duration minus
the part of it its children cover.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import glob
import importlib
import itertools
import json
import os
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
OP_PREFIX = "op."


class NullTracer:
    """The tracer of an untraced run: every call is a no-op."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield

    @contextlib.contextmanager
    def paused(self):
        yield


class Recorder:
    """Spans of one process."""

    def __init__(self, path: str, flush_on_root: bool):
        self.path = path
        self.flush_on_root = flush_on_root
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.paused_flag = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._fh = None

    def stack(self) -> list[tuple[int, str]]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name, fn, args, kwargs, leaf=False, before=None, after=None):
        """Run ``fn(*args, **kwargs)`` inside a span.  ``leaf`` spans never
        parent other spans (cheaper for hot, non-nesting calls).  ``before``
        runs ahead of the call; ``after(args, kwargs, result, before_value)``
        returns the span's attrs."""
        if self.paused_flag:
            return fn(*args, **kwargs)
        if callable(name):
            name = name(args, kwargs)
        st = self.stack()
        parent = st[-1][0] if st else 0
        sid = next(self._ids)
        pre = before(args, kwargs) if before else None
        if not leaf:
            st.append((sid, name))
        ok = False
        t0 = time.monotonic_ns()
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            t1 = time.monotonic_ns()
            if not leaf:
                st.pop()
            attrs = (after(args, kwargs, out, pre) if after else None) if ok else {"error": 1}
            with self._lock:
                self.spans.append((name, t0, t1, sid, parent, threading.get_ident(), attrs))
            if self.flush_on_root and not st:
                self.flush()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of benchmark code (the ``op.*`` spans)."""
        st = self.stack()
        parent = st[-1][0] if st else 0
        sid = next(self._ids)
        st.append((sid, name))
        t0 = time.monotonic_ns()
        try:
            yield
        finally:
            t1 = time.monotonic_ns()
            st.pop()
            with self._lock:
                self.spans.append((name, t0, t1, sid, parent, threading.get_ident(), None))

    @contextlib.contextmanager
    def paused(self):
        """No spans inside (correctness checks between timed operations)."""
        self.paused_flag = True
        try:
            yield
        finally:
            self.paused_flag = False

    def in_span(self, name: str) -> bool:
        st = self.stack()
        return bool(st) and st[-1][1] == name

    def flush(self) -> None:
        with self._lock:
            out, self.spans = self.spans, []
        if not out:
            return
        if self._fh is None:
            self._fh = open(self.path, "a")
        self._fh.write("".join(json.dumps([self.pid, *s]) + "\n" for s in out))
        self._fh.flush()

    def close(self) -> None:
        self.flush()
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# --- what gets wrapped -----------------------------------------------------

def _dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(root, f))
            except OSError:
                pass
    return total


def _analysis_attrs(args, kwargs, out, pre):
    vocab, _tids, _docs, _tfs, lengths = out
    return {"tokens": int(lengths.sum()), "unique": len(vocab)}


def _encode_attrs(args, kwargs, out, pre):
    return {
        "postings": int(len(args[0])),
        "bytes": int(sum(a.nbytes for a in out.arrays().values())),
    }


def _bloom_attrs(args, kwargs, out, pre):
    return {"keys": int(len(args[0]) - 1)}


def _probe_attrs(args, kwargs, out, pre):
    return None if out else {"skip": 1}


def _flush_attrs(args, kwargs, out, pre):
    seg_dir = kwargs.get("seg_dir", args[6] if len(args) > 6 else None)
    return {"bytes": _dir_bytes(seg_dir)}


def _finalize_attrs(args, kwargs, out, pre):
    return {"bytes": _dir_bytes(args[0].seg_dir)}


def _merge_attrs(args, kwargs, out, pre):
    out_dir = kwargs.get("out_dir", args[1] if len(args) > 1 else None)
    name = kwargs.get("name", args[2] if len(args) > 2 else None)
    return {"bytes": _dir_bytes(os.path.join(out_dir, name))}


def _decode_hit_before(args, kwargs):
    return args[1] in args[0]._decode_cache


def _cache_hit_before(args, kwargs):
    return args[0]._cache.get(args[1]) is not None


def _hit_attrs(args, kwargs, out, pre):
    return {"hit": 1} if pre else None


_QUERY_TYPES: dict = {}


def query_kind(q) -> str:
    """term / or / and / mixed / prefix / other, from the query's shape."""
    if not _QUERY_TYPES:
        from lucene_ray.search import query as qmod

        _QUERY_TYPES.update(
            term=qmod.TermQuery, prefix=qmod.PrefixQuery, boolean=qmod.BooleanQuery
        )
    if isinstance(q, _QUERY_TYPES["term"]):
        return "term"
    if isinstance(q, _QUERY_TYPES["prefix"]):
        return "prefix"
    if isinstance(q, _QUERY_TYPES["boolean"]):
        occurs = {c.occur for c in q.clauses}
        if occurs == {"SHOULD"}:
            return "or"
        if occurs == {"MUST"}:
            return "and"
        if occurs == {"MUST", "SHOULD"}:
            return "mixed"
    return "other"


def _scorer_name(args, kwargs):
    return "scorers." + query_kind(kwargs.get("query", args[1] if len(args) > 1 else None))


# (module, attribute, span name, options).  ``worker_only`` marks functions
# the driver ships to Ray workers by reference: wrapping them in the driver
# would ship the wrapper by value instead, with a copy of the recorder.
PATCHES = [
    ("lucene_ray.analysis.analyzers", "StandardAnalyzer.analyze_batch", "analysis.analyze",
     dict(after=_analysis_attrs)),
    ("lucene_ray.index.build", "build_index", "build.build_index", {}),
    ("lucene_ray.index.build", "_fused_build_task", "build.task", dict(worker_only=True)),
    ("lucene_ray.index.build", "_read_fragment", "build.read", {}),
    ("lucene_ray.index.build", "FusedSegmentBuilder.build_one", "build.segment", {}),
    ("lucene_ray.index.postings", "encode_postings", "postings.encode", dict(after=_encode_attrs)),
    ("lucene_ray.index.postings", "decode_term", "postings.decode", {}),
    ("lucene_ray.index.postings", "decode_block", "postings.decode", {}),
    ("lucene_ray.index.postings", "decode_range", "postings.decode", {}),
    ("lucene_ray.index.bloom", "build_bloom_from_dict", "bloom.build", dict(after=_bloom_attrs)),
    ("lucene_ray.index.bloom", "contains", "bloom.probe", dict(leaf=True, after=_probe_attrs)),
    ("lucene_ray.index.segment", "build_segment_from_ids", "segment.flush", dict(after=_flush_attrs)),
    ("lucene_ray.index.segment", "StreamingSegmentWriter.append_section", "segment.write", {}),
    ("lucene_ray.index.segment", "StreamingSegmentWriter.finalize", "segment.write",
     dict(after=_finalize_attrs)),
    ("lucene_ray.index.segment", "SegmentReader.__init__", "segment.open", {}),
    ("lucene_ray.index.segment", "SegmentReader.term_id", "segment.term_lookup", {}),
    ("lucene_ray.index.segment", "SegmentReader.decode_term_cached", "segment.decode_cached",
     dict(before=_decode_hit_before, after=_hit_attrs)),
    ("lucene_ray.index.merge", "maybe_merge", "merge.maybe_merge", {}),
    ("lucene_ray.index.merge", "merge_segments_task", "merge.task",
     dict(worker_only=True, after=_merge_attrs)),
    ("lucene_ray.index.manifest", "write_manifest", "manifest.commit", {}),
    ("lucene_ray.index.deletes", "add_documents", "deletes.add", {}),
    ("lucene_ray.index.deletes", "update_documents", "deletes.update", {}),
    ("lucene_ray.index.deletes", "delete_by_query", "deletes.delete", {}),
    ("lucene_ray.search.parser", "parse_query", "parser.parse", {}),
    ("lucene_ray.search.searcher", "IndexSearcher.search", "searcher.search", {}),
    ("lucene_ray.search.searcher", "IndexSearcher.term_statistics", "searcher.stats", {}),
    ("lucene_ray.search.searcher", "SegmentSearchWorker.term_stats", "searcher.stats", {}),
    ("lucene_ray.search.searcher", "SegmentSearchWorker.search", "searcher.worker_search", {}),
    ("lucene_ray.search.searcher", "DistributedSearcher.search", "searcher.service_search", {}),
    ("lucene_ray.search.searcher", "open_if_changed", "searcher.reopen", {}),
    ("lucene_ray.search.searcher", "search_segment", _scorer_name, {}),
    ("lucene_ray.search.searcher", "merge_top_docs", "collector.merge", dict(leaf=True)),
    ("lucene_ray.search.cache", "LRUQueryCache.get_or_compute", "cache.lookup",
     dict(before=_cache_hit_before, after=_hit_attrs)),
]


def _wrap(rec: Recorder, fn, name, leaf=False, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, leaf=leaf, before=before, after=after)

    return wrapper


def install(rec: Recorder, worker: bool) -> None:
    """Wrap every entry in ``PATCHES`` (the ``worker_only`` ones only when
    ``worker``).  In the driver, also time the service's RPC rounds: the
    ``ray.get`` calls made directly inside ``DistributedSearcher.search``."""
    for module, attr, name, opts in PATCHES:
        opts = dict(opts)
        if opts.pop("worker_only", False) and not worker:
            continue
        owner = importlib.import_module(module)
        *path, leafname = attr.split(".")
        for p in path:
            owner = getattr(owner, p)
        fn = owner.__dict__[leafname] if path else getattr(owner, leafname)
        setattr(owner, leafname, _wrap(rec, fn, name, **opts))
    if not worker:
        import ray

        real_get = ray.get

        @functools.wraps(real_get)
        def traced_get(*args, **kwargs):
            if rec.in_span("searcher.service_search"):
                return rec.call("rpc.round", real_get, args, kwargs)
            return real_get(*args, **kwargs)

        ray.get = traced_get


def start_driver(trace_dir: str) -> Recorder:
    os.makedirs(trace_dir, exist_ok=True)
    rec = Recorder(os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl"), flush_on_root=False)
    install(rec, worker=False)
    with open(os.path.join(trace_dir, "driver.json"), "w") as f:
        json.dump({"pid": os.getpid(), "tid": threading.get_ident()}, f)
    return rec


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker process."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if trace_dir:
        install(
            Recorder(os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl"), flush_on_root=True),
            worker=True,
        )


# --- summary ---------------------------------------------------------------

PER_LAYER_METRICS = [
    ("analysis.busy_s", "s"), ("analysis.tokens_per_s", "1/s"), ("analysis.unique_terms", "count"),
    ("build.read_s", "s"), ("build.vocab_merge_s", "s"), ("build.scheduling_s", "s"),
    ("postings.encode_s", "s"), ("postings.bytes_per_posting", "B"),
    ("postings.decode_s", "s"), ("postings.decode_calls", "count"),
    ("bloom.build_s", "s"), ("bloom.keys", "count"), ("bloom.skip_ratio", "ratio"),
    ("segment.write_s", "s"), ("segment.bytes_written", "B"), ("segment.open_ms", "ms"),
    ("segment.term_lookup_us", "us"), ("segment.decode_cache_hit_ratio", "ratio"),
    ("merge.busy_s", "s"), ("merge.count", "count"), ("merge.bytes_rewritten", "B"),
    ("merge.write_amplification", "ratio"),
    ("manifest.commit_ms", "ms"), ("manifest.generations_per_write", "ratio"),
    ("manifest.files", "count"),
    ("deletes.add_ms", "ms"), ("deletes.update_ms", "ms"),
    ("parser.parse_us", "us"),
    ("searcher.stats_ms", "ms"), ("searcher.reopen_ms", "ms"), ("searcher.segments_searched", "count"),
    ("scorers.self_ms.term", "ms"), ("scorers.self_ms.or", "ms"), ("scorers.self_ms.and", "ms"),
    ("scorers.self_ms.mixed", "ms"), ("scorers.self_ms.prefix", "ms"),
    ("scorers.matches_per_hit", "ratio"),
    ("collector.merge_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("rpc.stats_round_ms", "ms"), ("rpc.search_round_ms", "ms"), ("rpc.overhead_ms", "ms"),
    ("rpc.stats_rounds_skipped", "ratio"),
    ("trace.attributed_ratio", "ratio"),
]

# per-layer metrics the workload measures itself (outside the spans)
WORKLOAD_LAYER_METRICS = ("manifest.files", "scorers.matches_per_hit", "rpc.overhead_ms")


def _load(trace_dir: str) -> tuple[list[dict], dict]:
    with open(os.path.join(trace_dir, "driver.json")) as f:
        driver = json.load(f)
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as f:
            for line in f:
                pid, name, t0, t1, sid, parent, tid, attrs = json.loads(line)
                spans.append({
                    "name": name, "start_ns": t0, "end_ns": t1,
                    "id": f"{pid}:{sid}", "parent": f"{pid}:{parent}" if parent else None,
                    "pid": pid, "tid": tid, "attrs": attrs or {},
                })
    return spans, driver


def _adopt(spans: list[dict], driver: dict, max_scan: int = 5000) -> None:
    """Give every parentless span outside the driver's main thread the
    innermost containing span of another thread as its parent."""
    order = sorted(spans, key=lambda s: (s["start_ns"], -s["end_ns"]))
    starts = [s["start_ns"] for s in order]
    for s in order:
        if s["parent"] is not None or (s["pid"], s["tid"]) == (driver["pid"], driver["tid"]):
            continue
        i = bisect.bisect_right(starts, s["start_ns"]) - 1
        for j in range(i, max(-1, i - max_scan), -1):
            c = order[j]
            if c is s or (c["pid"], c["tid"]) == (s["pid"], s["tid"]):
                continue
            if c["start_ns"] <= s["start_ns"] and c["end_ns"] >= s["end_ns"]:
                s["parent"] = c["id"]
                break


def _self_times(spans: list[dict], children: dict) -> None:
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], s["start_ns"]), min(c["end_ns"], s["end_ns"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        s["self_ns"] = s["end_ns"] - s["start_ns"] - covered


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(window: list[dict], children: dict, extra: dict) -> dict:
    """The per-layer metrics of ``PER_LAYER_METRICS`` from the spans of the
    timed operations; ``extra`` carries the ones the workload measured."""
    by: dict[str, list[dict]] = {}
    for s in window:
        by.setdefault(s["name"], []).append(s)

    def spans(name):
        return by.get(name, [])

    def dur_s(name):
        return sum(s["end_ns"] - s["start_ns"] for s in spans(name)) / 1e9

    def self_s(name):
        return sum(s["self_ns"] for s in spans(name)) / 1e9

    def mean_ms(items, key="dur"):
        vals = [(s["end_ns"] - s["start_ns"]) if key == "dur" else s["self_ns"] for s in items]
        return _div(sum(vals), len(vals)) / 1e6

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans(name))

    def descendants(s):
        out, todo = [], list(children.get(s["id"], ()))
        while todo:
            c = todo.pop()
            out.append(c)
            todo.extend(children.get(c["id"], ()))
        return out

    m: dict[str, float] = {}
    busy = dur_s("analysis.analyze")
    m["analysis.busy_s"] = busy
    m["analysis.tokens_per_s"] = _div(attr("analysis.analyze", "tokens"), busy)
    m["analysis.unique_terms"] = attr("analysis.analyze", "unique")
    m["build.read_s"] = dur_s("build.read")
    m["build.vocab_merge_s"] = self_s("build.segment")
    m["build.scheduling_s"] = max(0.0, dur_s("build.build_index") - dur_s("build.task"))
    m["postings.encode_s"] = dur_s("postings.encode")
    m["postings.bytes_per_posting"] = _div(attr("postings.encode", "bytes"), attr("postings.encode", "postings"))
    # decode_term may call decode_block: count outermost decodes, self time
    m["postings.decode_s"] = self_s("postings.decode")
    m["postings.decode_calls"] = sum(1 for s in spans("postings.decode") if s["parent_name"] != "postings.decode")
    m["bloom.build_s"] = dur_s("bloom.build")
    m["bloom.keys"] = attr("bloom.build", "keys")
    m["bloom.skip_ratio"] = _div(attr("bloom.probe", "skip"), len(spans("segment.term_lookup")))
    m["segment.write_s"] = self_s("segment.flush") + self_s("segment.write")
    flush_bytes = attr("segment.flush", "bytes")
    m["segment.bytes_written"] = flush_bytes + attr("segment.write", "bytes")
    m["segment.open_ms"] = mean_ms(spans("segment.open"))
    m["segment.term_lookup_us"] = mean_ms(spans("segment.term_lookup")) * 1e3
    m["segment.decode_cache_hit_ratio"] = _div(
        attr("segment.decode_cached", "hit"), len(spans("segment.decode_cached"))
    )
    merge_bytes = attr("merge.task", "bytes")
    m["merge.busy_s"] = dur_s("merge.task")
    m["merge.count"] = len(spans("merge.task"))
    m["merge.bytes_rewritten"] = merge_bytes
    m["merge.write_amplification"] = _div(flush_bytes + merge_bytes, flush_bytes)
    m["manifest.commit_ms"] = mean_ms(spans("manifest.commit"))
    writes = [
        s for s in spans("deletes.update") + spans("deletes.add") + spans("build.build_index")
        if not (s["name"] == "deletes.add" and s["parent_name"] == "deletes.update")
    ]
    commits = sum(1 for w in writes for d in descendants(w) if d["name"] == "manifest.commit")
    m["manifest.generations_per_write"] = _div(commits, len(writes))
    m["deletes.add_ms"] = mean_ms([s for s in spans("deletes.add") if s["parent_name"] != "deletes.update"])
    m["deletes.update_ms"] = mean_ms(spans("deletes.update"))
    m["parser.parse_us"] = mean_ms(spans("parser.parse")) * 1e3
    m["searcher.stats_ms"] = mean_ms(spans("searcher.stats"))
    m["searcher.reopen_ms"] = mean_ms(spans("searcher.reopen"))
    scorer_spans = [s for s in window if s["name"].startswith("scorers.")]
    m["searcher.segments_searched"] = _div(
        len(scorer_spans), len(spans("searcher.search")) + len(spans("searcher.worker_search"))
    )
    for kind in ("term", "or", "and", "mixed", "prefix"):
        m[f"scorers.self_ms.{kind}"] = mean_ms(spans(f"scorers.{kind}"), key="self")
    m["collector.merge_us"] = mean_ms(spans("collector.merge")) * 1e3
    m["cache.hit_ratio"] = _div(attr("cache.lookup", "hit"), len(spans("cache.lookup")))
    stats_rounds, search_rounds, skipped = [], [], 0
    for s in spans("searcher.service_search"):
        rounds = sorted(
            (c for c in children.get(s["id"], ()) if c["name"] == "rpc.round"),
            key=lambda c: c["start_ns"],
        )
        if len(rounds) == 1:
            skipped += 1
        elif len(rounds) > 1:
            stats_rounds.append(rounds[0])
        if rounds:
            search_rounds.append(rounds[-1])
    m["rpc.stats_round_ms"] = mean_ms(stats_rounds)
    m["rpc.search_round_ms"] = mean_ms(search_rounds)
    m["rpc.stats_rounds_skipped"] = _div(skipped, len(spans("searcher.service_search")))
    ops = [s for s in window if s["name"].startswith(OP_PREFIX)]
    m["trace.attributed_ratio"] = _div(
        sum(s["self_ns"] for s in window), sum(s["end_ns"] - s["start_ns"] for s in ops)
    )
    for key in WORKLOAD_LAYER_METRICS:
        m[key] = extra.get(key, 0.0)
    return {k: float(m[k]) for k, _ in PER_LAYER_METRICS}


def summarize(trace_dir: str, extra: dict) -> dict:
    """Join the span files of ``trace_dir`` into ``spans.jsonl`` (one span
    per line, with parent, request id and self time), write the per-layer
    self-time table and metrics to ``summary.json``, and return it."""
    spans, driver = _load(trace_dir)
    _adopt(spans, driver)
    by_id = {s["id"]: s for s in spans}
    children: dict[str, list[dict]] = {}
    for s in spans:
        p = by_id.get(s["parent"]) if s["parent"] else None
        s["parent_name"] = p["name"] if p else None
        if p is not None:
            children.setdefault(p["id"], []).append(s)
    # the window: timed operations of the driver and everything under them
    window = []
    ops = sorted(
        (s for s in spans if s["parent"] is None and s["name"].startswith(OP_PREFIX)),
        key=lambda s: s["start_ns"],
    )
    for rid, op in enumerate(ops):
        todo = [op]
        while todo:
            s = todo.pop()
            s["rid"] = rid
            window.append(s)
            todo.extend(children.get(s["id"], ()))
    _self_times(spans, children)
    layers: dict[str, dict] = {}
    for s in window:
        layer = "bench" if s["name"].startswith(OP_PREFIX) else s["name"].split(".")[0]
        row = layers.setdefault(layer, {"self_s": 0.0, "spans": 0})
        row["self_s"] += s["self_ns"] / 1e9
        row["spans"] += 1
    wall = sum(s["end_ns"] - s["start_ns"] for s in ops) / 1e9
    metrics = layer_metrics(window, children, extra)
    summary = {
        "traced_wall_s": wall,
        "self_s_by_layer": dict(sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])),
        "self_s_total": sum(r["self_s"] for r in layers.values()),
        "spans_total": len(spans),
        "spans_in_window": len(window),
        "per_layer": metrics,
    }
    with open(os.path.join(trace_dir, "spans.jsonl"), "w") as f:
        for s in sorted(spans, key=lambda s: s["start_ns"]):
            f.write(json.dumps({
                k: s.get(k) for k in
                ("name", "start_ns", "end_ns", "id", "parent", "rid", "pid", "tid", "self_ns", "attrs")
            }) + "\n")
    for path in glob.glob(os.path.join(trace_dir, "spans-*.jsonl")):
        os.remove(path)
    with open(os.path.join(trace_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    return summary
