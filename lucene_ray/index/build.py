"""Index build: Parquet corpus to committed segments.

    plan_segments (parquet metadata only: whole row groups per segment)
    -> _fused_build_task, one plain Ray task per segment (tasks.run_tasks),
       biggest first: read each row group once, analyze, merge the fragment
       vocabularies, sort, block-encode and write one immutable segment
       plus its stored fields
    -> commit: one new manifest generation from the per-segment meta.json

Each task is the DWPT analogue (a thread-private in-RAM segment, reference
index/DocumentsWriterPerThread.java:406-512, SURVEY §3.1): embarrassingly
parallel, and the postings never cross the object store.  No rows flow
between the tasks (each reads its own row groups), so the build does not
go through a Ray Data pipeline.  ``build_index_local`` runs the same tasks
in a serial in-process loop, for unit tests and tiny fixtures.  The NRT
writers (``deletes.add_documents`` / ``update_documents``) flush their
in-memory batch through the same ``FusedSegmentBuilder.build_one`` (its
``tables`` entry), so there is one flush path: an appended segment and a
bulk-built one over the same rows write the same files.

- docIDs are deterministic: global docID = (row-group order in the sorted
  file list) x (row order within the group); segments are unions of whole
  row groups, so ``doc_base`` is a prefix sum (LeafReaderContext docBase
  semantics).
- writes are atomic + resumable at segment granularity: a rerun skips
  segments whose lineage signature matches (manifest.segment_is_complete).
- the stored-fields tables (docid, meta..., sha256 of the content) are
  written from the same fragment read that feeds the analyzer.
- ``index_options`` positions / offsets / payloads ride the per-segment
  row sort as flat per-row arrays.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .. import store
from ..tasks import run_tasks
from ..analysis.analyzers import byte_order, make_analyzer, postings_rows
from ..smallfloat import int_to_byte4_array
from . import manifest as mf

DEFAULT_DOCS_PER_SEGMENT = 65536


# --- planning (driver-side, metadata only) -------------------------------

def plan_segments(
    corpus_paths: list[str] | str,
    docs_per_segment: int = DEFAULT_DOCS_PER_SEGMENT,
) -> list[dict]:
    """Enumerate parquet row groups (metadata-only) in deterministic sorted
    file order and pack consecutive groups into segment descriptors."""
    if isinstance(corpus_paths, str):
        corpus_paths = [corpus_paths]
    files: list[str] = []
    for p in corpus_paths:
        if os.path.isdir(p):
            files.extend(
                os.path.join(p, f) for f in sorted(os.listdir(p)) if f.endswith(".parquet")
            )
        else:
            files.append(p)
    files.sort()
    frags: list[tuple[str, int, int]] = []  # (path, row_group, nrows)
    frag_bytes: list[int] = []
    for path in files:
        md = pq.ParquetFile(path).metadata
        for rg in range(md.num_row_groups):
            frags.append((path, rg, md.row_group(rg).num_rows))
            frag_bytes.append(md.row_group(rg).total_byte_size)

    segments: list[dict] = []
    cur: list[tuple[str, int, int]] = []
    cur_rows = 0
    cur_bytes = 0
    doc_base = 0
    for frag, fb in zip(frags, frag_bytes):
        cur.append(frag)
        cur_rows += frag[2]
        cur_bytes += fb
        if cur_rows >= docs_per_segment:
            segments.append(_seg_descriptor(len(segments), cur, doc_base, cur_bytes))
            doc_base += cur_rows
            cur, cur_rows, cur_bytes = [], 0, 0
    if cur:
        segments.append(_seg_descriptor(len(segments), cur, doc_base, cur_bytes))
    return segments


def _seg_descriptor(
    seg_id: int, frags: list[tuple[str, int, int]], doc_base: int, n_bytes: int = 0
) -> dict:
    sig = hashlib.sha256(
        json.dumps([(os.path.basename(p), rg, n) for p, rg, n in frags]).encode()
    ).hexdigest()[:16]
    return {
        "seg_id": seg_id,
        "name": f"seg_{seg_id:06d}",
        "fragments": [list(f) for f in frags],
        "doc_base": doc_base,
        "max_doc": sum(f[2] for f in frags),
        "n_bytes": n_bytes,
        "lineage": {
            "signature": sig,
            "inputs": [{"path": p, "row_group": rg, "rows": n} for p, rg, n in frags],
        },
    }


def _read_fragment(path: str, row_group: int, columns: list[str] | None) -> pa.Table:
    return pq.ParquetFile(path).read_row_group(row_group, columns=columns)


# --- stored fields (docid, meta..., sha256) -----------------------------

def _write_doc_fragment(
    tbl: pa.Table,
    desc: dict,
    meta_columns: list[str],
    content_column: str,
    docs_dir: str,
) -> None:
    """Write one stored-fields fragment (docid, meta..., sha256)."""
    shas = [
        hashlib.sha256((t or "").encode("utf-8")).hexdigest()
        for t in tbl.column(content_column).to_pylist()
    ]
    n = len(tbl)
    docids = np.arange(desc["local_base"], desc["local_base"] + n, dtype=np.int32)
    out = tbl.select(meta_columns)
    out = out.add_column(0, "docid", pa.array(docids))
    out = out.append_column("sha256", pa.array(shas))
    path = os.path.join(docs_dir, desc["seg_name"], f"rg_{desc['frag_ord']:06d}.parquet")
    store.pq_write(out, path)


# --- segment build -----------------------------------------------------

def _fragments_with_local_base(seg: dict) -> list[dict]:
    out = []
    local = 0
    for ord_, (path, rg, n) in enumerate(seg["fragments"]):
        out.append(
            {
                "seg_name": seg["name"],
                "frag_ord": ord_,
                "path": path,
                "row_group": rg,
                "rows": n,
                "local_base": local,
            }
        )
        local += n
    return out


def _row_slices(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat indices of the ragged rows [starts[i], starts[i] + lens[i]),
    concatenated in row order."""
    lens = np.asarray(lens, dtype=np.int64)
    off = np.cumsum(lens) - lens
    return np.repeat(np.asarray(starts, dtype=np.int64) - off, lens) + np.arange(
        int(lens.sum()), dtype=np.int64
    )


def _gather_row_slices(flat: np.ndarray, row_lens: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Reorder a ragged array (rows of lengths ``row_lens`` concatenated in
    ``flat``) by the row permutation ``order`` — fully vectorized."""
    row_lens = np.asarray(row_lens, dtype=np.int64)
    off = np.concatenate(([0], np.cumsum(row_lens)))
    return flat[_row_slices(off[order], row_lens[order])]


class FusedSegmentBuilder:
    """One call = one whole segment: read -> analyze -> encode -> write.

    The rows come from the segment's parquet row groups (bulk build) or
    from in-memory Arrow tables (``build_one(seg, tables)``, the NRT
    append); everything after the read is shared.

    Stays dictionary-encoded end to end: each fragment's analyzer stream
    becomes postings rows (``postings_rows``), the fragment vocabularies
    merge through ``byte_order`` (the one vocabulary sort: dedup + UTF-8
    byte order over their concatenation, which also gives each fragment's
    ids into the merged list), rows are integer-lexsorted and handed
    straight to the block encoder — no Arrow string sort, no per-token
    objects.
    """

    def __init__(
        self,
        index_dir: str,
        analyzer: str,
        content_column: str,
        index_options: str = "docs_freqs",
        meta_columns: list[str] | None = None,
        write_doc_tables: bool = False,
        index_sort: tuple[str, str] | None = None,
        term_vectors: bool = False,
    ):
        # the analyzer (DFA tables, lowercase table) is built once per
        # builder and reused across fragments (reference Analyzer reuse
        # strategy, SURVEY §2.2)
        self.analyzer = make_analyzer(analyzer)
        self.index_dir = index_dir
        self.term_vectors = term_vectors
        self.index_options = index_options
        self.meta_columns = list(meta_columns or [])
        self.write_doc_tables = write_doc_tables
        self.content_column = content_column
        if index_sort is not None and not write_doc_tables:
            raise ValueError("index_sort needs write_doc_tables (the sort field is a stored field)")
        self.index_sort = tuple(index_sort) if index_sort else None

    def _analyze(self, frag: dict, texts: list) -> tuple:
        """One fragment's postings rows ``(vocab, tids, docids
        (segment-local), tfs, lengths, positions, off_s, off_e)``; the last
        three are None in a docs_freqs build (see ``postings_rows``)."""
        if self.index_options == "docs_freqs":
            # analyze_batch is the rows view's docs_freqs entry point
            vocab, tids, docs, tfs, lengths = self.analyzer.analyze_batch(texts)
            rest = [None, None, None]
        else:
            # payloads ride the offsets: the default payload source is the
            # occurrence's char START OFFSET (the TokenOffsetPayloadTokenFilter
            # analogue — occurrence-specific and recomputable, which the
            # tests exploit)
            vocab, tids, docs, tfs, lengths, *rest = postings_rows(
                self.analyzer._batch_token_stream(texts), self.index_options
            )
        return (vocab, tids, docs + frag["local_base"], tfs, lengths, *rest)

    def build_one(self, seg: dict, tables: list[pa.Table] | None = None) -> dict:
        """Build and write segment ``seg`` (a ``plan_segments`` descriptor);
        returns its meta.  ``tables``, when given, are the in-memory rows
        of ``seg["fragments"]`` in order (the NRT append, which flushes
        its batch through here): their columns are selected instead of
        reading the parquet row groups."""
        from .segment import build_segment_from_ids

        # ONE read per fragment: the same table feeds the analyzer AND the
        # stored-fields writer
        columns = [self.content_column]
        if self.write_doc_tables:
            columns = self.meta_columns + columns
        frags = []
        doc_tbls = []  # buffered only for index_sort (needs the permutation)
        for frag in _fragments_with_local_base(seg):
            if tables is None:
                tbl = _read_fragment(frag["path"], frag["row_group"], columns)
            else:
                tbl = tables[frag["frag_ord"]].select(columns)
            if self.index_sort is not None:
                doc_tbls.append(tbl)
            elif self.write_doc_tables:
                _write_doc_fragment(
                    tbl,
                    frag,
                    self.meta_columns,
                    self.content_column,
                    os.path.join(self.index_dir, "docs"),
                )
            frags.append(self._analyze(frag, tbl.column(self.content_column).to_pylist()))
        # one vocabulary: fragment i's ids shift by the vocabulary sizes
        # before it into byte_order's ids over the concatenation
        cols = list(zip(*frags)) or [()] * 8
        vocab, ids = byte_order([t for v in cols[0] for t in v])
        base = np.cumsum([0] + [len(v) for v in cols[0]])

        def cat(parts):
            return np.concatenate(parts) if parts else np.empty(0, np.int64)

        tids = cat([ids[b + t] for b, t in zip(base, cols[1])])
        docs, tfs = cat(cols[2]), cat(cols[3])
        lengths = cat(cols[4]) if frags else np.zeros(seg["max_doc"], np.int64)
        with_off = self.index_options == "offsets"
        with_pay = self.index_options == "payloads"
        with_pos = self.index_options == "positions" or with_off or with_pay

        sort_meta = None
        if self.index_sort is not None:
            docs, lengths, sort_meta = self._apply_index_sort(seg, doc_tbls, docs, lengths)
        norms = int_to_byte4_array(lengths)

        positions = None
        offsets = None
        payloads = None
        presorted = False
        if with_pos:
            # global row sort + gather of each row's position slice (the
            # offset/payload streams are 1:1 with positions and ride the
            # same gather); a segment without postings still writes its
            # (empty) streams, so readers see the index options it has
            order = np.lexsort((docs, tids))
            positions = _gather_row_slices(cat(cols[5]), tfs, order)
            if with_off:
                offsets = (
                    _gather_row_slices(cat(cols[6]), tfs, order),
                    _gather_row_slices(cat(cols[7]), tfs, order),
                )
            elif with_pay:
                payloads = _gather_row_slices(cat(cols[6]), tfs, order)
            tids, docs, tfs = tids[order], docs[order], tfs[order]
            presorted = True

        seg_dir = os.path.join(self.index_dir, seg["name"])
        meta = {
            "name": seg["name"],
            "max_doc": seg["max_doc"],
            "doc_base": seg["doc_base"],
            "lineage": seg["lineage"],
            "index_options": self.index_options,
        }
        if sort_meta is not None:
            meta["index_sort"] = sort_meta
        return build_segment_from_ids(
            pa.array(vocab, type=pa.large_string()),
            tids,
            docs.astype(np.int32),
            tfs.astype(np.int32),
            norms,
            None,
            seg_dir,
            meta,
            presorted=presorted,
            positions=positions,
            offsets=offsets,
            payloads=payloads,
            term_vectors=self.term_vectors,
        )

    def _apply_index_sort(
        self, seg: dict, doc_tbls: list[pa.Table], docs: np.ndarray, lengths: np.ndarray
    ):
        """Index-time sort (reference index/Sorter.java +
        IndexWriterConfig.setIndexSort): within the segment, docids are
        remapped so docid order == (sort field, ties by arrival order) —
        the stable sortMap.  Postings docids are rewritten through
        old2new (and re-flush-sorted downstream), norms/doc lengths and
        the stored-fields table ride the same permutation.  The buffered
        doc tables are bounded by docs_per_segment, the same bound the
        analyzer output already carries."""
        field, direction = self.index_sort
        combined = pa.concat_tables(doc_tbls)
        vals = combined.column(field).to_numpy(zero_copy_only=False).astype(np.int64)
        key = -vals if direction == "desc" else vals
        new_order = np.argsort(key, kind="stable")  # old local ids, new docid order
        max_doc = seg["max_doc"]
        old2new = np.empty(max_doc, np.int64)
        old2new[new_order] = np.arange(max_doc, dtype=np.int64)
        sorted_tbl = combined.take(pa.array(new_order))
        _write_doc_fragment(
            sorted_tbl,
            {"seg_name": seg["name"], "frag_ord": 0, "local_base": 0},
            self.meta_columns,
            self.content_column,
            os.path.join(self.index_dir, "docs"),
        )
        return old2new[docs], lengths[new_order], [field, direction]


# --- build entry points --------------------------------------------------

def _plan(corpus_paths, index_dir: str, docs_per_segment: int, resume: bool):
    """Plan the segments; split them into (to build, already complete)."""
    store.makedirs(index_dir)
    segments = plan_segments(corpus_paths, docs_per_segment)
    todo, skipped = [], []
    for seg in segments:
        seg_dir = os.path.join(index_dir, seg["name"])
        if resume and mf.segment_is_complete(seg_dir, seg["lineage"]["signature"]):
            skipped.append(seg)
        else:
            todo.append(seg)
    return segments, todo, skipped


def _commit(
    index_dir: str, segments: list[dict], skipped: list[dict], t_start: float, **fields
) -> dict:
    """Commit the next manifest generation, assembled from per-segment
    meta.json (stats were written by the build; skipped segments keep the
    files of the earlier run).  ``fields`` are the build settings."""

    def mutate(_base, gen):
        return {
            "generation": gen,
            **fields,
            "segments": [
                mf.segment_entry(
                    os.path.join(index_dir, seg["name"]),
                    seg["doc_base"],
                    os.path.join(index_dir, "docs", seg["name"]),
                )
                for seg in segments
            ],
            "built_sec": round(time.time() - t_start, 3),
            "skipped_segments": [s["name"] for s in skipped],
        }

    return mf.commit(index_dir, mutate)


def _build(
    run, mode: str, corpus_paths, index_dir: str, docs_per_segment: int, resume: bool,
    **settings,
) -> dict:
    """Plan, run one ``_fused_build_task`` per segment still to do through
    ``run`` (``tasks.run_tasks`` or an in-process loop with its
    signature), commit.  The input byte size (parquet row-group metadata)
    predicts a segment's build time, so the biggest go first and the
    stragglers run in the first wave instead of dangling off the last
    one."""
    t_start = time.time()
    segments, todo, skipped = _plan(corpus_paths, index_dir, docs_per_segment, resume)
    order = sorted(todo, key=lambda s: -s.get("n_bytes", 0))
    run(_fused_build_task, [(seg,) for seg in order], index_dir=index_dir, **settings)
    index_sort = settings["index_sort"]
    return _commit(
        index_dir, segments, skipped, t_start,
        analyzer=settings["analyzer"],
        mode=mode,
        docs_per_segment=docs_per_segment,
        index_options=settings["index_options"],
        term_vectors=bool(settings["term_vectors"]),
        index_sort=list(index_sort) if index_sort else None,
    )


def _run_in_process(fn, calls, **kwargs) -> list:
    return [fn(*args, **kwargs) for args in calls]


def _fused_build_task(
    seg: dict,
    index_dir: str,
    analyzer: str,
    content_column: str,
    index_options: str = "docs_freqs",
    meta_columns: list[str] | None = None,
    write_doc_tables: bool = False,
    index_sort: tuple[str, str] | None = None,
    term_vectors: bool = False,
) -> dict:
    """Task body: build one segment.  Stateless — the per-worker reuse
    comes from the analyzer-table module singletons, not actor state."""
    return FusedSegmentBuilder(
        index_dir,
        analyzer,
        content_column,
        index_options=index_options,
        meta_columns=meta_columns,
        write_doc_tables=write_doc_tables,
        index_sort=index_sort,
        term_vectors=term_vectors,
    ).build_one(seg)


def build_index_local(
    corpus_paths: list[str] | str,
    index_dir: str,
    analyzer: str = "standard",
    docs_per_segment: int = DEFAULT_DOCS_PER_SEGMENT,
    content_column: str = "content",
    meta_columns: tuple[str, ...] = ("repo", "path", "commit", "lang"),
    write_doc_tables: bool = True,
    resume: bool = True,
    index_options: str = "docs_freqs",
    term_vectors: bool = False,
    index_sort: tuple[str, str] | None = None,
) -> dict:
    """In-process build (no Ray): ``build_index`` with the segment tasks
    run in a serial loop.  Used by unit tests and tiny fixtures; writes the
    same segment and stored-field files."""
    return _build(
        _run_in_process, "local", corpus_paths, index_dir, docs_per_segment, resume,
        analyzer=analyzer,
        content_column=content_column,
        meta_columns=meta_columns,
        write_doc_tables=write_doc_tables,
        index_options=index_options,
        index_sort=index_sort,
        term_vectors=term_vectors,
    )


def build_index(
    corpus_paths: list[str] | str,
    index_dir: str,
    analyzer: str = "standard",
    docs_per_segment: int = DEFAULT_DOCS_PER_SEGMENT,
    mode: str = "fused",
    content_column: str = "content",
    meta_columns: tuple[str, ...] = ("repo", "path", "commit", "lang"),
    write_doc_tables: bool = True,
    resume: bool = True,
    index_options: str = "docs_freqs",
    index_sort: tuple[str, str] | None = None,
    term_vectors: bool = False,
) -> dict:
    """Run the full build; returns the committed manifest dict.

    ``mode`` only accepts ``"fused"``, the one build pipeline.

    ``index_sort=(field, "asc"|"desc")`` sorts each segment's docids by a
    stored meta column at flush (reference index/Sorter.java /
    IndexWriterConfig.setIndexSort); enables early-terminating sort-field
    top-k when the query sort matches.

    One plain Ray task per segment (``tasks.run_tasks``), not an actor
    pool: the only per-worker state (tokenizer DFA tables) is a
    module-level singleton reused across tasks in each worker process.
    Ray is auto-initialised by the first task if the caller has not
    initialised it; this never calls ray.init()/shutdown() itself.
    """
    if mode != "fused":
        raise ValueError(f"unknown build mode {mode!r}: the only pipeline is 'fused'")
    return _build(
        run_tasks, mode, corpus_paths, index_dir, docs_per_segment, resume,
        analyzer=analyzer,
        content_column=content_column,
        meta_columns=meta_columns,
        write_doc_tables=write_doc_tables,
        index_options=index_options,
        index_sort=index_sort,
        term_vectors=term_vectors,
    )
