"""The three workloads: ``ingest``, ``query`` and ``nrt``.

Each is one closed-loop client on one core: it sends its next operation
only after the last one returned.  A workload sets up (several times, to
report the median set-up time), runs timed operations until
``ctx.seconds`` of operation time have passed, and checks every result
between operations with the clock stopped.  Engine calls go through
module attributes (``build_mod.build_index``, not a bound import), so the
wrappers a traced run installs see them.

Return value of a workload: the end-to-end metrics every workload reports
(``E2E``), a detail dict of workload-specific metrics, the attempted and
failed operation counts, and the per-layer metrics it measures itself.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import json
import os
import shutil
import time
import traceback

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_ray.analysis import analyzers as analyzers_mod
from lucene_ray.index import build as build_mod
from lucene_ray.index import deletes as deletes_mod
from lucene_ray.index import merge as merge_mod
from lucene_ray.search import parser as parser_mod
from lucene_ray.search import searcher as searcher_mod
from lucene_ray.search.query import StoredFieldFilter

from . import inputs

# end-to-end metrics (name -> unit); peak_rss_mb is measured by the run
E2E = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "index_bytes_per_input_byte": "ratio",
}

CORPUS_DOCS = 1000
DOCS_PER_SEGMENT = 64
SETUP_REPEATS = 3
WARMUP_DOCS = 4 * DOCS_PER_SEGMENT  # the ingest set-up build
TOP_K = 10
QUERY_TEXTS = 20_000
COMPLETE_SAMPLE = 25
NRT_BASE_DOCS = 1000
NRT_ADDS = 16  # docs added per round
NRT_UPDATES = 2  # docs replaced per round
NRT_HOT_TERMS = 80
NRT_READS = 40  # queries per round
NRT_MAX_ROUNDS = 400
# Merged stored-field fragments are named after every segment they passed
# through, one name per merge level; past ~15 levels the file name exceeds
# 255 bytes and the merge fails (ENAMETOOLONG).  The nrt index goes back
# to a copy of its base every NRT_EPOCH_ROUNDS rounds (~8 levels), with
# the clock stopped.
NRT_EPOCH_ROUNDS = 16
REPICK_S = 1.0  # operation time between two core picks


class Context:
    """Run-wide state a workload reads: seed, time budget, scratch dir,
    tracer, RSS sampler, core picker and an optional operation cap (tests)."""

    def __init__(self, seed, seconds, work_dir, tracer, sampler, cores, max_ops=None):
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.tracer = tracer
        self.sampler = sampler
        self.cores = cores
        self.max_ops = max_ops
        self._picked_at = None  # ``timed`` when the core was last picked
        self.timed = 0.0  # seconds of operation time so far
        self.ops = 0
        self.failed = 0
        self.errors: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def more(self) -> bool:
        if self.max_ops is not None:
            return self.ops < self.max_ops
        return self.timed < self.seconds

    @contextlib.contextmanager
    def op(self, name: str):
        """One timed operation: a span in traced runs, counted either way."""
        if self._picked_at is None or self.timed - self._picked_at >= REPICK_S:
            self.cores.repick()
            self._picked_at = self.timed
        self.ops += 1
        t0 = time.perf_counter()
        try:
            with self.tracer.span(name):
                yield
        finally:
            self.timed += time.perf_counter() - t0

    @contextlib.contextmanager
    def checking(self):
        """Correctness checks and bookkeeping: no spans, no RSS samples."""
        self.sampler.paused = True
        try:
            with self.tracer.paused():
                yield
        finally:
            self.sampler.paused = False

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def merge_until_stable(index_dir: str, manifest: dict | None = None) -> dict:
    """``maybe_merge`` until the generation stops changing."""
    gen = manifest["generation"] if manifest else None
    while True:
        manifest = merge_mod.maybe_merge(index_dir)
        if manifest["generation"] == gen:
            return manifest
        gen = manifest["generation"]


def footprint(manifest: dict) -> tuple[int, int]:
    """(bytes, files) of everything the manifest references: segment dirs,
    stored-field dirs and live-docs files."""
    paths = []
    for seg in manifest["segments"]:
        for d in (seg.get("dir"), seg.get("docs_dir")):
            if d and os.path.isdir(d):
                paths += [p for p in glob.glob(os.path.join(d, "**"), recursive=True) if os.path.isfile(p)]
        if seg.get("livedocs"):
            paths.append(seg["livedocs"])
    return sum(os.path.getsize(p) for p in paths), len(paths)


def terms_by_doc_freq(searcher) -> list[str]:
    """The dictionary of a one-segment index, most frequent term first."""
    reader = searcher.readers[0]
    terms = reader.terms_array().to_pylist()
    order = np.argsort(-np.asarray(reader.enc.doc_freq), kind="stable")
    return [terms[i] for i in order]


def result_digest(manifest: dict, hit_lists: list) -> dict:
    """What a traced and an untraced run must agree on: the final
    manifest's segment stats and a hash of every top-k list returned."""
    h = hashlib.sha256()
    for hits in hit_lists:
        h.update(json.dumps([[int(d), float(s)] for d, s in hits]).encode())
    return {
        "generation": manifest["generation"],
        "segments": [
            [s["name"], s["max_doc"], s.get("del_count", 0), s["stats"]] for s in manifest["segments"]
        ],
        "topk_sha256": h.hexdigest(),
        "topk_lists": len(hit_lists),
    }


def _hits(hits) -> list[tuple[int, np.float32]]:
    return [(int(d), np.float32(s)) for d, s in hits]


def _analyzer(manifest: dict):
    return analyzers_mod.make_analyzer(manifest.get("analyzer", "standard"))


def _build(corpus_dir: str, index_dir: str) -> dict:
    return build_mod.build_index(
        corpus_dir, index_dir, docs_per_segment=DOCS_PER_SEGMENT, mode="fused", resume=False
    )


def ingest(ctx: Context) -> dict:
    """Build the corpus into a fresh index, then merge until stable; repeat."""
    corpus = inputs.balanced_corpus(ctx.seed, CORPUS_DOCS)
    raw_bytes = int(inputs.content_bytes(corpus).sum())
    corpus_dir = inputs.write_corpus(corpus, ctx.path("corpus"), DOCS_PER_SEGMENT)
    warm_dir = inputs.write_corpus(corpus.slice(0, WARMUP_DOCS), ctx.path("warm-corpus"), DOCS_PER_SEGMENT)
    setup = []
    for i in range(SETUP_REPEATS):
        idx = ctx.path(f"warm-{i}")
        ctx.cores.repick()
        t0 = time.perf_counter()
        merge_until_stable(idx, _build(warm_dir, idx))
        setup.append(time.perf_counter() - t0)
        shutil.rmtree(idx)

    build_s, merge_s, cycle_s, ratios, files, last = [], [], [], [], 0, None
    while ctx.more():
        idx = ctx.path(f"cycle-{ctx.ops}")
        manifest = None
        try:
            with ctx.op("op.cycle"):
                t0 = time.perf_counter()
                manifest = _build(corpus_dir, idx)
                t1 = time.perf_counter()
                manifest = merge_until_stable(idx, manifest)
                t2 = time.perf_counter()
        except Exception:
            ctx.fail(traceback.format_exc()[-2000:])
        with ctx.checking():
            if manifest is not None:
                build_s.append(t1 - t0)
                merge_s.append(t2 - t1)
                cycle_s.append(t2 - t0)
                live = deletes_mod.live_doc_count(manifest)
                if live != len(corpus):
                    ctx.fail(f"cycle {ctx.ops}: {live} live docs, corpus has {len(corpus)}")
                nbytes, files = footprint(manifest)
                ratios.append(nbytes / raw_bytes)
                last = manifest
            shutil.rmtree(idx, ignore_errors=True)

    docs_per_s = [len(corpus) / b for b in build_s]
    return {
        "e2e": {
            "setup_s": float(np.median(setup)),
            "throughput_per_s": float(np.median(docs_per_s)) if docs_per_s else 0.0,
            "latency_p50_ms": pct(cycle_s, 50) * 1e3,
            "index_bytes_per_input_byte": float(np.median(ratios)) if ratios else 0.0,
        },
        "detail": {
            "build_docs_per_s": float(np.median(docs_per_s)) if docs_per_s else 0.0,
            "merge_s": float(np.median(merge_s)) if merge_s else 0.0,
            "index_bytes_per_input_byte": float(np.median(ratios)) if ratios else 0.0,
            "cycle_p50_ms": pct(cycle_s, 50) * 1e3,
            "cycles": len(cycle_s),
            "build_samples_s": build_s,
            "merge_samples_s": merge_s,
            "corpus_docs": len(corpus),
            "corpus_content_bytes": raw_bytes,
            "setup_samples_s": setup,
        },
        "layer_extra": {"manifest.files": files},
        "digest": result_digest(last, []) if last else None,
    }


def query(ctx: Context) -> dict:
    """Top-10 queries through the Ray query service over a one-segment index."""
    corpus = inputs.balanced_corpus(ctx.seed, CORPUS_DOCS)
    raw_bytes = int(inputs.content_bytes(corpus).sum())
    corpus_dir = inputs.write_corpus(corpus, ctx.path("corpus"), DOCS_PER_SEGMENT)
    setup, service, idx = [], None, None
    for i in range(SETUP_REPEATS):
        if service is not None:
            import ray

            for w in service.workers:
                ray.kill(w)
            shutil.rmtree(idx)
        idx = ctx.path(f"index-{i}")
        ctx.cores.repick()
        t0 = time.perf_counter()
        manifest = merge_until_stable(idx, _build(corpus_dir, idx))
        if len(manifest["segments"]) > 1:
            manifest = merge_mod.force_merge(idx, 1)
        service = searcher_mod.DistributedSearcher(idx, num_workers=1)
        analyzer = _analyzer(manifest)
        service.search(parser_mod.parse_query("return", analyzer), TOP_K)
        setup.append(time.perf_counter() - t0)

    local = searcher_mod.IndexSearcher(idx)
    texts = inputs.query_texts(ctx.seed, terms_by_doc_freq(local), QUERY_TEXTS)
    lat, done = [], []  # latency per query; (text index, hits)
    while ctx.more():
        ti = ctx.ops % len(texts)
        try:
            with ctx.op("op.query"):
                t0 = time.perf_counter()
                hits = service.search(parser_mod.parse_query(texts[ti][1], analyzer), TOP_K)
                lat.append(time.perf_counter() - t0)
            done.append((ti, _hits(hits)))
        except Exception:
            ctx.fail(traceback.format_exc()[-2000:])
    timed = ctx.timed

    with ctx.checking():
        # every service result against the in-process searcher (rank- and
        # float32-score-identical), one in-process search per distinct text
        expected, inproc_ms, first_ms = {}, {}, {}
        for (ti, hits), dt in zip(done, lat):
            text = texts[ti][1]
            if text not in expected:
                q = parser_mod.parse_query(text, analyzer)
                t0 = time.perf_counter()
                expected[text] = _hits(local.search(q, TOP_K))
                inproc_ms[text] = (time.perf_counter() - t0) * 1e3
                first_ms[text] = dt * 1e3
            if hits != expected[text]:
                ctx.fail(f"service != in-process for {text!r}")
        # a fixed sample against the exhaustive (no pruning) scorer
        matches = returned = 0
        for text in list(expected)[:COMPLETE_SAMPLE]:
            q = parser_mod.parse_query(text, analyzer)
            full = _hits(local.search(q, TOP_K, total_hits_threshold=float("inf"), score_mode="COMPLETE"))
            if full != expected[text]:
                ctx.fail(f"TOP_SCORES != COMPLETE for {text!r}")
            matches += local.count(q)
            returned += len(full)
        nbytes, files = footprint(local.manifest)

    kinds = {}
    for ti, _ in done:
        kinds[texts[ti][0]] = kinds.get(texts[ti][0], 0) + 1
    return {
        "e2e": {
            "setup_s": float(np.median(setup)),
            "throughput_per_s": len(lat) / timed if timed else 0.0,
            "latency_p50_ms": pct(lat, 50) * 1e3,
            "index_bytes_per_input_byte": nbytes / raw_bytes,
        },
        "detail": {
            "query_p50_ms": pct(lat, 50) * 1e3,
            "query_p99_ms": pct(lat, 99) * 1e3,
            "query_qps": len(lat) / timed if timed else 0.0,
            "queries": len(lat),
            "distinct_queries": len(expected),
            "distinct_terms": len({t.lstrip("+") for text in expected for t in text.split()}),
            "queries_by_kind": kinds,
            "setup_samples_s": setup,
        },
        "layer_extra": {
            "manifest.files": files,
            "scorers.matches_per_hit": matches / returned if returned else 0.0,
            "rpc.overhead_ms": float(np.mean([first_ms[t] - inproc_ms[t] for t in expected]))
            if expected
            else 0.0,
        },
        "digest": result_digest(local.manifest, [hits for _, hits in done]),
    }


def _live_docs(manifest: dict, searcher) -> dict[str, list[str]]:
    """path -> sha256 of every live copy, read from the stored fields and
    the reopened searcher's live masks."""
    out: dict[str, list[str]] = {}
    for seg, reader in zip(manifest["segments"], searcher.readers):
        tbl = pq.read_table(seg["docs_dir"], columns=["docid", "path", "sha256"])
        docid = tbl.column("docid").to_numpy()
        keep = np.ones(len(docid), dtype=bool) if reader.live is None else np.asarray(reader.live)[docid]
        for p, h in zip(tbl.column("path").filter(pa.array(keep)).to_pylist(),
                        tbl.column("sha256").filter(pa.array(keep)).to_pylist()):
            out.setdefault(p, []).append(h)
    return out


def nrt(ctx: Context) -> dict:
    """Rounds of add, update, merge, reopen and reads on a growing index."""
    base = inputs.balanced_corpus(ctx.seed, NRT_BASE_DOCS)
    corpus_dir = inputs.write_corpus(base, ctx.path("corpus"), DOCS_PER_SEGMENT)
    setup, idx = [], None
    for i in range(SETUP_REPEATS):
        if idx is not None:
            shutil.rmtree(idx)
        idx = ctx.path(f"index-{i}")
        ctx.cores.repick()
        t0 = time.perf_counter()
        manifest = merge_until_stable(idx, _build(corpus_dir, idx))
        searcher = searcher_mod.IndexSearcher(idx)
        analyzer = _analyzer(manifest)
        searcher.search(parser_mod.parse_query("return", analyzer), TOP_K)
        setup.append(time.perf_counter() - t0)

    pristine = ctx.path("base-copy")
    shutil.copytree(idx, pristine)
    hot = inputs.hot_query_texts(ctx.seed, terms_by_doc_freq(searcher), NRT_HOT_TERMS, 4000)
    adds = inputs.nrt_adds(ctx.seed, NRT_MAX_ROUNDS * NRT_ADDS)
    bodies = inputs.nrt_update_bodies(ctx.seed, NRT_MAX_ROUNDS * NRT_UPDATES)

    def digest(texts):
        return [hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts]

    base_live = dict(zip(base.column("path").to_pylist(), digest(base.column("content").to_pylist())))
    base_size = dict(zip(base.column("path").to_pylist(), inputs.content_bytes(base).tolist()))
    live, size = dict(base_live), dict(base_size)
    writes, round_writes, visible, reads, read_hits, docs = [], [], [], [], [], 0
    path_col = adds.schema.get_field_index("path")
    r = 0
    while ctx.more() and (r + 1) * NRT_ADDS <= len(adds) and (r + 1) * NRT_UPDATES <= len(bodies):
        if r and r % NRT_EPOCH_ROUNDS == 0:
            with ctx.checking():
                shutil.rmtree(idx)
                shutil.copytree(pristine, idx)
                searcher = searcher_mod.IndexSearcher(idx)
                live, size = dict(base_live), dict(base_size)
        batch = adds.slice(r * NRT_ADDS, NRT_ADDS)
        keys = inputs.update_keys(ctx.seed, r, sorted(live), NRT_UPDATES)
        upd = bodies.slice(r * NRT_UPDATES, NRT_UPDATES).set_column(path_col, "path", pa.array(keys))
        probe = StoredFieldFilter("path", batch.column("path")[0].as_py())
        try:
            with ctx.op("op.round"):
                t0 = time.perf_counter()
                deletes_mod.add_documents(idx, batch, content_column="content")
                t1 = time.perf_counter()
                deletes_mod.update_documents(idx, "path", upd, content_column="content")
                t2 = time.perf_counter()
                merge_mod.maybe_merge(idx)
                searcher = searcher_mod.open_if_changed(searcher) or searcher
                seen = len(searcher.search(probe, 1))
                t3 = time.perf_counter()
                for j in range(NRT_READS):
                    text = hot[(r * NRT_READS + j) % len(hot)]
                    tq = time.perf_counter()
                    read_hits.append(searcher.search(parser_mod.parse_query(text, analyzer), TOP_K))
                    reads.append(time.perf_counter() - tq)
            writes += [t1 - t0, t2 - t1]
            visible.append(t3 - t0)
            round_writes.append(t2 - t0)
            docs += NRT_ADDS + NRT_UPDATES
        except Exception:
            ctx.fail(traceback.format_exc()[-2000:])
            break
        with ctx.checking():
            for tbl in (batch, upd):
                paths = tbl.column("path").to_pylist()
                texts = tbl.column("content").to_pylist()
                live.update(zip(paths, digest(texts)))
                size.update(zip(paths, inputs.content_bytes(tbl).tolist()))
            if seen != 1:
                ctx.fail(f"round {r}: reopened searcher does not return the new docs")
            got = _live_docs(searcher.manifest, searcher)
            if got != {p: [h] for p, h in live.items()}:
                bad = sorted(p for p in set(got) | set(live) if got.get(p) != [live.get(p)])
                ctx.fail(f"round {r}: live docs differ for {len(bad)} paths, e.g. {bad[:3]}")
        r += 1
    timed = ctx.timed

    with ctx.checking():
        nbytes, files = footprint(searcher.manifest)
    return {
        "e2e": {
            "setup_s": float(np.median(setup)),
            "throughput_per_s": docs / timed if timed else 0.0,
            # per round, not per call: add and update latencies form two
            # clusters, and a median between clusters jumps run to run
            "latency_p50_ms": pct(round_writes, 50) * 1e3,
            "index_bytes_per_input_byte": nbytes / sum(size.values()),
        },
        "detail": {
            "write_p50_ms": pct(writes, 50) * 1e3,
            "write_p90_ms": pct(writes, 90) * 1e3,
            "round_write_p50_ms": pct(round_writes, 50) * 1e3,
            "visible_p50_ms": pct(visible, 50) * 1e3,
            "nrt_docs_per_s": docs / timed if timed else 0.0,
            "query_p50_ms": pct(reads, 50) * 1e3,
            "query_p99_ms": pct(reads, 99) * 1e3,
            "rounds": r,
            "writes": len(writes),
            "queries": len(reads),
            "final_segments": len(searcher.manifest["segments"]),
            "setup_samples_s": setup,
        },
        "layer_extra": {"manifest.files": files},
        "digest": result_digest(searcher.manifest, read_hits),
    }


WORKLOADS = {"ingest": ingest, "query": query, "nrt": nrt}
