"""Per-SEGMENT vector index: KnnFloatVectorQuery integrated in the index
format.

Reference: codecs/lucene99/Lucene99HnswVectorsWriter.java writes one HNSW
graph per segment at flush; search/KnnFloatVectorQuery.java searches each
leaf's graph and merges the per-leaf TopDocs.  Here the graph is a
persisted per-segment artifact (``vectors-<field>.npz`` inside the
segment dir, like the BKD ``points-*.npz``), built from the embeddings
table joined to the segment's stored doc_id column:

- graph node ids are LOCAL docids, so the scorer tree can consume search
  results directly (norms/live-docs all key on local docids);
- the embeddings source is fetched per segment with an id RANGE filter
  ``lo <= id <= hi`` (segments hold contiguous docid ranges, so the range
  is tight) — parquet row-group stats prune the scan to the matching
  groups, and an id-range-partitioned embeddings layout prunes whole
  files (the same storage-level pruning the persisted IVF uses); the
  exact membership mask is applied in memory with np.isin;
- build fans out one Ray task per segment (tasks.run_tasks over the
  segment list), resumable/idempotent per segment.

The graph machinery itself (vectorized beam frontier, diversity pruning,
deterministic levels) is ops/hnsw.HnswGraph — one implementation serves
both the standalone partitioned vector index and this per-segment one.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .. import store


def vector_file(seg_dir: str, field: str) -> str:
    return os.path.join(seg_dir, f"vectors-{field}.npz")


def build_segment_vectors(
    seg_dir: str,
    emb_path: str,
    field: str = "embedding",
    id_column: str = "vec_id",
) -> str:
    """Build + persist one segment's HNSW graph over the embeddings of its
    stored doc_ids (idempotent)."""
    from ..ops.hnsw import HnswGraph
    from .segment import SegmentReader

    path = vector_file(seg_dir, field)
    if store.exists(path):
        return path
    r = SegmentReader(seg_dir)
    doc_ids = r.stored_column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    # RANGE filter, not a 10^5-entry IN-list: segments hold contiguous id
    # ranges, so [lo, hi] is tight and parquet row-group stats (or id-range
    # partitioned files) prune the scan; exact membership via np.isin below
    lo, hi = (int(doc_ids.min()), int(doc_ids.max())) if len(doc_ids) else (0, -1)
    tbl = pq.read_table(
        emb_path,
        columns=[id_column, field],
        filters=[(id_column, ">=", lo), (id_column, "<=", hi)],
    )
    vec_ids = tbl.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
    keep = np.isin(vec_ids, doc_ids)
    if not keep.all():
        tbl = tbl.filter(pa.array(keep))
        vec_ids = vec_ids[keep]
    vecs = tbl.column(field).to_numpy(zero_copy_only=False)
    mat = np.stack(vecs) if len(vecs) else np.zeros((0, 0), np.float32)
    # map embedding rows -> local docids; docs without a vector are absent
    # from the graph (they simply can't match a knn query)
    pos = {int(v): j for j, v in enumerate(vec_ids)}
    local = np.array([i for i, d in enumerate(doc_ids) if int(d) in pos], np.int64)
    rows = np.array([pos[int(doc_ids[i])] for i in local], np.int64)
    g = HnswGraph(local, mat[rows])
    store.write_bytes_atomic(path, g.to_npz_bytes())
    return path


def build_vector_index(
    index_dir: str,
    emb_path: str,
    field: str = "embedding",
    id_column: str = "vec_id",
) -> list[str]:
    """Persist a per-segment graph for every segment (one Ray task per
    segment, resumable)."""
    from ..tasks import run_tasks
    from . import manifest as mf

    man = mf.read_manifest(index_dir)
    dirs = [s["dir"] for s in man["segments"]]
    todo = [d for d in dirs if not store.exists(vector_file(d, field))]
    run_tasks(build_segment_vectors, [(d, emb_path, field, id_column) for d in todo])
    return [vector_file(d, field) for d in dirs]
