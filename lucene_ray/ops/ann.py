"""Similarity search over an embedding column (list<float>).

- ``brute_topk``: exact cosine top-k.  The query matrix is broadcast ONCE
  via ``ray.put``; each ``map_batches`` task computes a float64 matmul over
  its Arrow batch (zero-copy into numpy) and emits only its local top-k
  candidates per query (keeping score TIES at the k-th position so the
  global (sim desc, neighbor_id asc) reduce is deterministic), so the
  reduce side sees ~k * num_blocks rows, never the full corpus.
- ``ivf_topk`` / ``ivf_topk_kmeans``: IVF variants — rows are pruned to the
  probed cells BEFORE the matmul (true inverted-file semantics: candidates
  come only from probed partitions; the scanned-row count per batch is the
  union of rows any query probes).  With nprobe = #cells this is exactly
  brute force (the oracle-checked configuration); lower nprobe trades
  recall for a proportional scan reduction.  Each batch emits one sentinel
  stats row (query_id = -1) carrying (scanned, total) so callers can
  report the realized scan fraction without a second pass.
- ``near_dup_pairs``: embedding-cosine near-duplicate pairs (sim >= tau)
  via random-hyperplane LSH banding: signature bits from a broadcast
  (dim x L*b) hyperplane matrix, band keys -> groupby(band, key) buckets,
  exact cosine verify INSIDE each bucket, distinct-pair reduce.  The
  embedding table is never materialized on the driver and no all-pairs
  matmul runs; recall is 1 - (1 - p^b)^L with p = 1 - theta/pi (Charikar
  SimHash bound) — at tau=0.95, b=4, L=8 the miss probability per true
  pair is ~2e-4, and planted near-dups (sim >= 0.99) are found w.p.
  ~1 - 1e-8.  Partitioning assumption: no single bucket holds a large
  fraction of the corpus (hot buckets are capped with logged drops).

Cosine is computed in float64 with the plain ``dot / (|a| * |b|)`` formula
to mirror DuckDB's ``list_cosine_similarity`` for the oracle comparisons.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _emb_matrix(tbl: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = tbl.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(len(tbl), -1)


def load_queries(parquet_path: str, query_ids: list[int], id_col: str = "vec_id"):
    """(q_ids, q_mat, q_norms) read with a parquet row filter (prune at read)."""
    import pyarrow.parquet as pq

    tbl = pq.read_table(parquet_path, filters=[(id_col, "in", list(query_ids))])
    order = {q: i for i, q in enumerate(query_ids)}
    tbl = tbl.take(
        sorted(range(len(tbl)), key=lambda i: order[tbl.column(id_col)[i].as_py()])
    )
    mat = _emb_matrix(tbl)
    return tbl.column(id_col).to_numpy(), mat, np.linalg.norm(mat, axis=1)


def _keep_topk_ties(cand_sims: np.ndarray, k: int) -> np.ndarray:
    """Boolean keep-mask of the k best sims INCLUDING ties at the k-th score
    (the kth/keep pattern of searcher._top_k): per-block
    pruning must never drop one side of a tie that the deterministic global
    (sim desc, neighbor_id asc) reduce would order differently."""
    if len(cand_sims) <= k:
        return np.ones(len(cand_sims), dtype=bool)
    kth = np.partition(-cand_sims, k - 1)[k - 1]
    return -cand_sims <= kth


def _emit_candidates(q_ids, ids, sims, k: int) -> pa.Table:
    """Per-query local top-k (ties kept) from a dense (rows x queries) sim
    matrix; -inf sims (masked / unprobed) never emit."""
    out_q, out_id, out_sim = [], [], []
    for j, qid in enumerate(q_ids):
        col = sims[:, j]
        mask = (ids != qid) & np.isfinite(col)
        cand_ids, cand_sims = ids[mask], col[mask]
        keep = _keep_topk_ties(cand_sims, k)
        cand_ids, cand_sims = cand_ids[keep], cand_sims[keep]
        out_q.extend([int(qid)] * len(cand_ids))
        out_id.extend(cand_ids.tolist())
        out_sim.extend(cand_sims.tolist())
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "neighbor_id": pa.array(out_id, pa.int64()),
            "sim": pa.array(out_sim, pa.float64()),
        }
    )


_CANDIDATES = pa.schema(
    [("query_id", pa.int64()), ("neighbor_id", pa.int64()), ("sim", pa.float64())]
)


def _finish_topk(cands_ds, k: int, return_stats: bool = False):
    from .util import gather, top_rows

    # ~k * num_blocks rows — small by construction (typed when no rows)
    tbl = gather(cands_ds, _CANDIDATES)
    stats_rows = tbl.filter(pc.less(tbl.column("query_id"), 0))
    stats = {
        "scanned_rows": int(pc.sum(stats_rows.column("neighbor_id")).as_py() or 0),
        "total_rows": int(pc.sum(stats_rows.column("sim")).as_py() or 0),
    }
    tbl = top_rows(
        tbl.filter(pc.greater_equal(tbl.column("query_id"), 0)),
        ["sim", "neighbor_id"], [False, True], k, by=("query_id",), cols=("neighbor_id",),
    )
    return (tbl, stats) if return_stats else tbl


def scored_topk(ds, queries, k: int, score) -> pa.Table:
    """Exact top-k (query_id, rnk, neighbor_id) per query, self excluded,
    ranked (score desc, id asc): ``queries`` is a tuple whose first item
    is the query ids, broadcast once via ``ray.put``; ``score(batch,
    queries) -> (ids, sims)`` is each batch's (rows x queries) score
    matrix over its rows ``ids`` (-inf: not a candidate), and only the
    batch's local top-k per query (ties at the k-th score kept) leaves
    the task."""
    import ray

    ref = ray.put(queries)

    def _cand(batch: pa.Table) -> pa.Table:
        q = ray.get(ref)
        ids, sims = score(batch, q)
        return _emit_candidates(q[0], ids, sims, k)

    return _finish_topk(ds.map_batches(_cand, batch_format="pyarrow"), k)


def _ids(batch: pa.Table) -> np.ndarray:
    return batch.column("vec_id").to_numpy()


def _cosine(batch: pa.Table, q) -> tuple:
    """Plain float64 cosine of every row against the (q_ids, q_mat,
    q_norms, ...) queries."""
    _q_ids, q_mat, q_norm = q[:3]
    emb = _emb_matrix(batch)
    norms = np.linalg.norm(emb, axis=1)
    return _ids(batch), (emb @ q_mat.T) / (norms[:, None] * q_norm[None, :])


def quantize_sq8(mat: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Linear int8 scalar quantization over the block's [min, max] value
    range (reference util/quantization/ScalarQuantizer.java at confidence
    interval 1.0, the Lucene99ScalarQuantizedVectorsFormat storage shape):
    q = round((v - lo) / scale) into uint8, with (lo, scale) stored
    alongside — 4x smaller vector storage, dequantize is lo + q * scale."""
    lo = float(mat.min()) if mat.size else 0.0
    hi = float(mat.max()) if mat.size else 1.0
    scale = (hi - lo) / 255.0 or 1.0
    q = np.clip(np.round((mat - lo) / scale), 0, 255).astype(np.uint8)
    return q, lo, scale


def _sq8_cosine(batch: pa.Table, q) -> tuple:
    """Quantize the block to int8 (per-block scale = the per-segment
    ScalarQuantizedVectorsFormat shape), then score cosine against the
    DEQUANTIZED vectors — the quantization error is what the recall gate
    in sq8_topk measures."""
    _q_ids, q_mat, q_norm = q
    qv, lo, scale = quantize_sq8(_emb_matrix(batch))
    deq = lo + qv.astype(np.float64) * scale
    norms = np.linalg.norm(deq, axis=1)
    return _ids(batch), (deq @ q_mat.T) / (np.maximum(norms, 1e-12)[:, None] * q_norm[None, :])


def sq8_topk(ds, queries, k: int = 10) -> pa.Table:
    """int8-scalar-quantized cosine top-k (query_id, rnk, neighbor_id) —
    approximate: ranks come from the dequantized vectors, so they can
    differ from exact within the quantization error."""
    return scored_topk(ds, queries, k, _sq8_cosine)


def lsh_topk(
    ds,
    queries,
    k: int = 10,
    bands: int = 16,
    band_bits: int = 4,
    seed: int = 0x5EED,
) -> pa.Table:
    """LSH-bucketed ANN top-k: random-hyperplane signatures split into
    bands (the MinHash-LSH banding shape over sign bits); a row is a
    CANDIDATE for a query iff they share at least one band bucket, and
    only candidates are cosine-scored (per-block partial top-k, the usual
    small reduce).  APPROXIMATE — rows agreeing in no band are never
    scored.  At 100 TB the band keys become the shuffle/partition key so
    only co-bucketed rows are read; here the same candidate set is
    computed by masking inside each batch (no shuffle needed when the
    query side is small and broadcast)."""
    q_ids, q_mat, q_norm = queries
    nbits = bands * band_bits
    first = ds.limit(1).take_all()
    if not first:
        return _finish_topk(ds.map_batches(lambda b: b), k)
    dim = len(first[0]["embedding"])
    H = _hyperplanes(dim, nbits, seed)
    weights = (1 << np.arange(band_bits, dtype=np.int64))[::-1]

    def _keys(mat: np.ndarray) -> np.ndarray:
        bits = (mat @ H) > 0
        return np.stack(
            [
                bits[:, r * band_bits : (r + 1) * band_bits].astype(np.int64) @ weights
                for r in range(bands)
            ],
            axis=1,
        )  # (n, bands)

    def _score(batch: pa.Table, q) -> tuple:
        _qi, qm, qn, qkeys = q
        emb = _emb_matrix(batch)
        ids = _ids(batch)
        keys = _keys(emb)  # (n, bands)
        norms = np.linalg.norm(emb, axis=1)
        sims = np.full((len(ids), len(qn)), -np.inf)
        for j in range(len(qn)):
            cand = (keys == qkeys[j][None, :]).any(axis=1)
            if cand.any():
                sims[cand, j] = (emb[cand] @ qm[j]) / (
                    np.maximum(norms[cand], 1e-12) * qn[j]
                )
        return ids, sims

    return scored_topk(ds, (q_ids, q_mat, q_norm, _keys(q_mat)), k, _score)


def radius_matches(ds, queries, tau: float) -> pa.Table:
    """FloatVectorSimilarityQuery analogue (reference
    search/AbstractVectorSimilarityQuery.java + FloatVectorSimilarityQuery:
    every vector whose similarity to the query is >= resultSimilarity —
    a RADIUS search, not top-k).  Exact here (the reference's graph
    traversal is its approximate path; brute over batches is the
    baseline, and the threshold makes per-batch output tiny).  Rows
    (query_id, rnk, neighbor_id) ranked (sim DESC, id ASC) over ALL
    matches; self excluded."""
    import ray

    from .util import gather, top_rows

    q_ref = ray.put(queries)

    def _cand(batch: pa.Table) -> pa.Table:
        qi, qm, qn = ray.get(q_ref)
        emb = _emb_matrix(batch)
        ids = _ids(batch)
        norms = np.linalg.norm(emb, axis=1)
        sims = (emb @ qm.T) / (np.maximum(norms, 1e-12)[:, None] * qn[None, :])
        hit = (sims >= tau) & (ids[:, None] != qi[None, :])
        rows, cols = np.nonzero(hit.T)  # query-major, as the rows emit
        return pa.table(
            {
                "query_id": pa.array(qi[rows], pa.int64()),
                "neighbor_id": pa.array(ids[cols], pa.int64()),
                "sim": pa.array(sims[cols, rows], pa.float64()),
            }
        )

    # threshold-bounded: a few rows per query by construction
    cands = gather(ds.map_batches(_cand, batch_format="pyarrow"), _CANDIDATES)
    return top_rows(
        cands, ["sim", "neighbor_id"], [False, True], by=("query_id",), cols=("neighbor_id",)
    )


def brute_topk(ds, queries, k: int = 10) -> pa.Table:
    """Exact cosine top-k: (query_id, rnk, neighbor_id); self excluded.

    ``queries`` is the (q_ids, q_mat, q_norms) triple from ``load_queries``.
    """
    return scored_topk(ds, queries, k, _cosine)


def _stats_row(scanned: int, total: int) -> pa.Table:
    """Sentinel per-batch scan accounting (query_id = -1), filtered and
    summed in _finish_topk."""
    return pa.table(
        {
            "query_id": pa.array([-1], pa.int64()),
            "neighbor_id": pa.array([scanned], pa.int64()),
            "sim": pa.array([float(total)], pa.float64()),
        }
    )


def _probed_candidates(batch, q_ref, probe_ref, cell_fn, k: int, id_col: str):
    """Shared IVF batch kernel: prune rows to probed cells FIRST, matmul
    only the union of probed rows, mask (row, query) combos whose cell the
    query did not probe to -inf, then per-query top-k."""
    import ray

    q_ids, q_mat, q_norm = ray.get(q_ref)
    probe_sets = ray.get(probe_ref)  # {qid: set(cell)}
    cell = cell_fn(batch)  # per-row cell id, int array
    ids = batch.column(id_col).to_numpy()

    ncells = int(cell.max()) + 1 if len(cell) else 0
    nq = len(q_ids)
    pmat = np.zeros((max(ncells, 1), nq), dtype=bool)
    for j, qid in enumerate(q_ids):
        for c in probe_sets[int(qid)]:
            if c < pmat.shape[0]:
                pmat[c, j] = True
    allowed = pmat[cell, :] if len(cell) else np.zeros((0, nq), dtype=bool)
    rows_any = allowed.any(axis=1)
    scanned = int(rows_any.sum())
    if scanned == 0:
        return _stats_row(0, len(batch))

    sub = np.nonzero(rows_any)[0]
    emb = _emb_matrix(batch.take(pa.array(sub)))
    nrm = np.linalg.norm(emb, axis=1)
    sims = (emb @ q_mat.T) / (nrm[:, None] * q_norm[None, :])
    sims[~allowed[sub]] = -np.inf
    out = _emit_candidates(q_ids, ids[sub], sims, k)
    return pa.concat_tables([out, _stats_row(scanned, len(batch))])


def ivf_topk(
    ds,
    queries,
    k: int = 10,
    nprobe: int = 10,
    label_col: str = "label",
    return_stats: bool = False,
):
    """IVF cosine top-k over the pre-assigned ``label`` partitions: each
    query probes its nprobe closest label-centroids (mean embedding per
    label, computed with a partial-aggregate pass); batch rows OUTSIDE the
    probed cells are pruned before any scoring."""
    import ray

    def _partials(batch: pa.Table) -> pa.Table:
        emb = _emb_matrix(batch)
        labels = batch.column(label_col).to_numpy()
        rows = []
        for lab in np.unique(labels):
            sel = emb[labels == lab]
            rows.append({"label": int(lab), "vsum": sel.sum(axis=0).tolist(), "n": len(sel)})
        return pa.Table.from_pylist(rows)

    parts = ds.map_batches(_partials, batch_format="pyarrow").to_pandas()
    cents: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for _, r in parts.iterrows():
        lab = int(r["label"])
        v = np.asarray(r["vsum"], dtype=np.float64)
        cents[lab] = cents.get(lab, 0) + v
        counts[lab] = counts.get(lab, 0) + int(r["n"])
    labels = sorted(cents)
    cmat = np.stack([cents[lab] / counts[lab] for lab in labels])

    q_ids, q_mat, q_norm = queries
    csim = (q_mat @ cmat.T) / (
        np.linalg.norm(q_mat, axis=1)[:, None] * np.linalg.norm(cmat, axis=1)[None, :]
    )
    probe = {
        int(qid): {labels[j] for j in np.argsort(-csim[i])[:nprobe]}
        for i, qid in enumerate(q_ids)
    }
    q_ref = ray.put(queries)
    probe_ref = ray.put(probe)

    def _cell_fn(batch: pa.Table) -> np.ndarray:
        return batch.column(label_col).to_numpy().astype(np.int64)

    def _cand(batch: pa.Table) -> pa.Table:
        return _probed_candidates(batch, q_ref, probe_ref, _cell_fn, k, "vec_id")

    cands = ds.map_batches(_cand, batch_format="pyarrow")
    return _finish_topk(cands, k, return_stats)


def _sq_dists(emb: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """(N, k) squared distances via |x|^2 - 2 x.c + |c|^2 — never the
    (N, k, dim) broadcast intermediate."""
    return (
        (emb * emb).sum(axis=1)[:, None]
        - 2.0 * (emb @ cents.T)
        + (cents * cents).sum(axis=1)[None, :]
    )


def kmeans(ds, k: int = 16, iters: int = 5, id_col: str = "vec_id") -> np.ndarray:
    """Distributed k-means (the iterative-algorithm pattern): per iteration,
    centroids are broadcast once via ``ray.put`` and each ``map_batches``
    task emits PARTIAL per-cluster (sum, count); the driver reduces the
    tiny partials and updates.  Deterministic init: the first k vectors by
    id order.  Returns float64 centroids [k, dim]."""
    import ray

    def _first_k(batch: pa.Table) -> pa.Table:
        return batch.sort_by(id_col).slice(0, k)

    seed_tbl = (
        ds.map_batches(_first_k, batch_format="pyarrow").to_pandas().sort_values(id_col).head(k)
    )
    cents = np.stack(
        [np.asarray(v, dtype=np.float64) for v in seed_tbl["embedding"]]
    )

    for _ in range(iters):
        ref = ray.put(cents)

        def _partial(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)
            emb = _emb_matrix(batch)
            assign = _sq_dists(emb, c).argmin(axis=1)
            rows = []
            for j in np.unique(assign):
                sel = emb[assign == j]
                rows.append(
                    {"cluster": int(j), "vsum": sel.sum(axis=0).tolist(), "n": len(sel)}
                )
            return pa.Table.from_pylist(rows)

        parts = ds.map_batches(_partial, batch_format="pyarrow").to_pandas()
        new = cents.copy()
        for j, g in parts.groupby("cluster"):
            total = np.sum([np.asarray(v) for v in g["vsum"]], axis=0)
            n = int(g["n"].sum())
            if n:
                new[int(j)] = total / n
        cents = new
    return cents


def ivf_topk_kmeans(
    ds,
    queries,
    centroids: np.ndarray,
    k: int = 10,
    nprobe: int = 4,
    return_stats: bool = False,
):
    """IVF cosine top-k over LEARNED (k-means) coarse centroids: each query
    probes its nprobe closest centroids; rows assigned to other cells are
    pruned inside each batch task BEFORE scoring (no shuffle).
    nprobe == len(centroids) degenerates to exact brute force."""
    import ray

    q_ids, q_mat, q_norm = queries
    cn = np.linalg.norm(centroids, axis=1)
    csim = (q_mat @ centroids.T) / (np.linalg.norm(q_mat, axis=1)[:, None] * cn[None, :])
    probe = {
        int(qid): set(np.argsort(-csim[i])[:nprobe].tolist())
        for i, qid in enumerate(q_ids)
    }
    q_ref = ray.put(queries)
    probe_ref = ray.put(probe)
    c_ref = ray.put(centroids)

    def _cell_fn(batch: pa.Table) -> np.ndarray:
        cents = ray.get(c_ref)
        emb = _emb_matrix(batch)
        return _sq_dists(emb, cents).argmin(axis=1)

    def _cand(batch: pa.Table) -> pa.Table:
        import ray  # noqa: F811 — re-import inside the serialized closure

        return _probed_candidates(batch, q_ref, probe_ref, _cell_fn, k, "vec_id")

    cands = ds.map_batches(_cand, batch_format="pyarrow")
    return _finish_topk(cands, k, return_stats)


# --- hyperplane-LSH near-duplicate pairs ---------------------------------

def _hyperplanes(dim: int, nbits: int, seed: int = 0x5EED) -> np.ndarray:
    """Deterministic random hyperplane matrix (dim x nbits)."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, nbits))


def near_dup_pairs(
    ds,
    tau: float = 0.95,
    id_col: str = "vec_id",
    bands: int = 8,
    band_bits: int = 4,
    max_bucket: int = 2000,
    seed: int = 0x5EED,
) -> pa.Table:
    """All pairs (doc_a < doc_b) with cosine similarity >= tau, found via
    random-hyperplane LSH banding (module docstring: recall bound, bucket
    cap).  The embedding column rides through the band shuffle (bands x
    data amplification) instead of any driver-side materialization."""
    import ray
    import ray.data  # noqa: F401

    h_ref = None
    nbits = bands * band_bits
    weights = (1 << np.arange(band_bits, dtype=np.int64))[::-1]

    def _band_rows(batch: pa.Table) -> pa.Table:
        nonlocal h_ref
        emb = _emb_matrix(batch)
        H = ray.get(h_ref)
        bits = (emb @ H) > 0  # (n, nbits)
        tabs = []
        base = batch.select([id_col, "embedding"])
        for r in range(bands):
            key = bits[:, r * band_bits : (r + 1) * band_bits].astype(np.int64) @ weights
            t = base.append_column(
                "band", pa.array(np.full(len(batch), r, dtype=np.int32))
            ).append_column("bkey", pa.array(key))
            tabs.append(t)
        return pa.concat_tables(tabs)

    # probe dim from the first row only (schema-level; no materialization)
    first = ds.limit(1).take_all()
    if not first:
        return pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())]).empty_table()
    dim = len(first[0]["embedding"])
    h_ref = ray.put(_hyperplanes(dim, nbits, seed))

    banded = ds.map_batches(_band_rows, batch_format="pyarrow")

    def _bucket_pairs(group: pa.Table) -> pa.Table:
        n = len(group)
        if n < 2:
            return pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())]).empty_table()
        if n > max_bucket:
            print(
                f"near_dup_pairs: hot bucket capped {n} -> {max_bucket} "
                f"(band={group.column('band')[0].as_py()}, key={group.column('bkey')[0].as_py()})"
            )
            group = group.sort_by(id_col).slice(0, max_bucket)
            n = max_bucket
        emb = _emb_matrix(group)
        ids = group.column(id_col).to_numpy()
        nrm = np.linalg.norm(emb, axis=1)
        sims = (emb @ emb.T) / (nrm[:, None] * nrm[None, :])
        ai, bj = np.nonzero(sims >= tau)
        keep = ids[ai] < ids[bj]
        return pa.table(
            {
                "doc_a": pa.array(ids[ai][keep], pa.int64()),
                "doc_b": pa.array(ids[bj][keep], pa.int64()),
            }
        )

    pairs = banded.groupby(["band", "bkey"]).map_groups(
        _bucket_pairs, batch_format="pyarrow"
    )

    # distinct (a pair can collide in several bands): shuffle-side dedupe,
    # then the RESULT (pairs only) is small enough to sort on the driver
    def _first(group: pa.Table) -> pa.Table:
        return group.slice(0, 1)

    uniq = pairs.groupby(["doc_a", "doc_b"]).map_groups(_first, batch_format="pyarrow")
    schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())])
    out = uniq.to_pandas()
    if out.empty:
        return schema.empty_table()
    out = out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    return pa.Table.from_pandas(out[["doc_a", "doc_b"]], preserve_index=False).cast(schema)


# --- persisted IVF index (cell-partitioned parquet) -----------------------

def build_ivf_index(ds, out_dir: str, k: int = 16, iters: int = 5) -> dict:
    """Build a PERSISTED IVF index: learn k-means centroids, assign every
    row to its nearest cell, write the corpus as parquet PARTITIONED BY
    CELL (one directory per cell) + a centroids.npy sidecar.

    This is the scale path the in-memory variants approximate: a query
    with nprobe=p reads ONLY p/k of the corpus from storage (partition
    pruning at the read, not post-scan filtering), and a failed build
    resumes per-partition.  Reference analogue: the IVF layout of
    vector-search systems; Lucene-side the closest is the per-segment
    HNSW graph (util/hnsw/) — IVF is the distributed-first choice.
    """
    import os
    import shutil

    import ray

    cents = kmeans(ds, k=k, iters=iters)
    ref = ray.put(cents)

    def _assign(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        emb = _emb_matrix(batch)
        cell = _sq_dists(emb, c).argmin(axis=1).astype(np.int32)
        # ``cell`` becomes the hive partition dir (dropped from file data);
        # ``cell_id`` stays in the files for the query-side row pruning
        return batch.append_column("cell", pa.array(cell)).append_column(
            "cell_id", pa.array(cell)
        )

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    ds.map_batches(_assign, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["cell"]
    )
    np.save(os.path.join(out_dir, "centroids.npy"), cents)
    return {"out_dir": out_dir, "k": int(k), "dim": int(cents.shape[1])}


def ivf_index_topk(
    index_dir: str,
    queries,
    k: int = 10,
    nprobe: int = 4,
    return_stats: bool = False,
):
    """Query a persisted IVF index: read ONLY the probed cells' partitions
    (``read_parquet`` on the cell directories — partition pruning at the
    storage layer), then exact cosine within them."""
    import os

    import ray
    import ray.data as rd

    centroids = np.load(os.path.join(index_dir, "centroids.npy"))
    q_ids, q_mat, q_norm = queries
    cn = np.linalg.norm(centroids, axis=1)
    csim = (q_mat @ centroids.T) / (
        np.linalg.norm(q_mat, axis=1)[:, None] * cn[None, :]
    )
    probe = {
        int(qid): set(np.argsort(-csim[i])[:nprobe].tolist())
        for i, qid in enumerate(q_ids)
    }
    import glob

    cells = sorted({c for s in probe.values() for c in s})
    paths = [
        f
        for c in cells
        for f in sorted(glob.glob(os.path.join(index_dir, f"cell={c}", "*.parquet")))
    ]
    if not paths:
        empty = pa.schema(
            [("query_id", pa.int64()), ("rnk", pa.int64()), ("neighbor_id", pa.int64())]
        ).empty_table()
        return (empty, {"scanned_rows": 0, "total_rows": 0}) if return_stats else empty

    ds = rd.read_parquet(paths)
    q_ref = ray.put(queries)
    probe_ref = ray.put(probe)

    def _cell_fn(batch: pa.Table) -> np.ndarray:
        return batch.column("cell_id").to_numpy().astype(np.int64)

    def _cand(batch: pa.Table) -> pa.Table:
        return _probed_candidates(batch, q_ref, probe_ref, _cell_fn, k, "vec_id")

    cands = ds.map_batches(_cand, batch_format="pyarrow")
    return _finish_topk(cands, k, return_stats)


# --- Product Quantization (compressed-domain ANN) --------------------------


def pq_train(ds, m: int = 8, k_codes: int = 16, iters: int = 8) -> np.ndarray:
    """Train PQ codebooks [m, k_codes, dim/m] (Jégou et al., "Product
    Quantization for Nearest Neighbor Search", TPAMI 2011): split each
    L2-normalized vector into m subspaces and k-means each subspace.

    Reuses the distributed k-means pattern per subspace: per iteration the
    codebooks broadcast via ray.put and map_batches emits tiny per-code
    (sum, count) partials — every subspace's partials ride ONE pass over
    the data, so training is m-independent in scan count.  Deterministic
    init: the first k_codes vectors by id order."""
    import ray

    def _first_k(batch: pa.Table) -> pa.Table:
        return batch.sort_by("vec_id").slice(0, k_codes)

    seed = (
        ds.map_batches(_first_k, batch_format="pyarrow")
        .to_pandas()
        .sort_values("vec_id")
        .head(k_codes)
    )
    seed_m = np.stack([np.asarray(v, dtype=np.float64) for v in seed["embedding"]])
    seed_m /= np.maximum(np.linalg.norm(seed_m, axis=1, keepdims=True), 1e-30)
    dim = seed_m.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    sub = dim // m
    books = seed_m.reshape(k_codes, m, sub).transpose(1, 0, 2).copy()  # (m,k,sub)

    for _ in range(iters):
        ref = ray.put(books)

        def _partial(batch: pa.Table) -> pa.Table:
            b = ray.get(ref)
            emb = _emb_matrix(batch).astype(np.float64)
            emb /= np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-30)
            parts = emb.reshape(len(emb), m, sub)
            rows = []
            for s in range(m):
                d = _sq_dists(parts[:, s, :], b[s])
                assign = d.argmin(axis=1)
                for j in np.unique(assign):
                    sel = parts[assign == j, s, :]
                    rows.append(
                        {
                            "s": int(s),
                            "code": int(j),
                            "vsum": sel.sum(axis=0).tolist(),
                            "n": len(sel),
                        }
                    )
            return pa.Table.from_pylist(rows)

        parts = ds.map_batches(_partial, batch_format="pyarrow").to_pandas()
        new = books.copy()
        for (s, j), g in parts.groupby(["s", "code"]):
            total = np.sum([np.asarray(v) for v in g["vsum"]], axis=0)
            n = int(g["n"].sum())
            if n:
                new[int(s)][int(j)] = total / n
        books = new
    return books


def pq_encode(ds, codebooks: np.ndarray):
    """Encode every vector to m uint8 codes (nearest codeword per
    subspace): 64 floats -> m bytes, a 32x storage cut at m=8 — the
    compressed representation 100TB of embeddings actually ships around.
    Returns a Dataset of (vec_id, codes list<uint8>)."""
    import ray

    m, _k, sub = codebooks.shape
    ref = ray.put(codebooks)

    def _enc(batch: pa.Table) -> pa.Table:
        b = ray.get(ref)
        emb = _emb_matrix(batch).astype(np.float64)
        emb /= np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-30)
        parts = emb.reshape(len(emb), m, sub)
        codes = np.empty((len(emb), m), dtype=np.uint8)
        for s in range(m):
            codes[:, s] = _sq_dists(parts[:, s, :], b[s]).argmin(axis=1)
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "codes": pa.array(list(codes), pa.list_(pa.uint8())),
            }
        )

    return ds.map_batches(_enc, batch_format="pyarrow")


def pq_topk(codes_ds, queries, codebooks: np.ndarray, k: int = 10) -> pa.Table:
    """ADC top-k over PQ codes: per query, an (m, k_codes) lookup table of
    subspace dot products against the codebooks; each batch's scores are
    pure table gathers + sums over the uint8 codes — the scan never touches
    a float vector.  ``queries`` is the load_queries triple.  Approximate
    by construction (quantization error); recall vs brute cosine is pinned
    in tests."""
    m, k_codes, sub = codebooks.shape
    q_ids, q_mat, _q_norms = queries
    qm = np.asarray(q_mat, dtype=np.float64)
    qm /= np.maximum(np.linalg.norm(qm, axis=1, keepdims=True), 1e-30)
    # tables[q, s, c] = <q_sub_s, codeword_c_s>
    tables = np.einsum("qsd,scd->qsc", qm.reshape(len(qm), m, sub), codebooks)

    def _scan(batch: pa.Table, q) -> tuple:
        _qi, t = q
        ids = _ids(batch)
        flat = np.asarray(batch.column("codes").combine_chunks().values)
        codes = flat.reshape(len(ids), m).astype(np.int64)
        # sims[i, q] = sum_s t[q, s, codes[i, s]]
        sims = np.zeros((len(ids), t.shape[0]))
        for s in range(m):
            sims += t[:, s, :][:, codes[:, s]].T
        return ids, sims

    return scored_topk(codes_ds, (np.asarray(q_ids), tables), k, _scan)


def pq_topk_rerank(
    ds, codes_ds, queries, codebooks: np.ndarray, k: int = 10, shortlist: int = 50
) -> pa.Table:
    """ADC shortlist + exact re-rank (the +R of IVFADC+R, Jégou et al.
    2011 §V): the compressed scan nominates ``shortlist`` candidates per
    query, then ONE pass over the raw vectors rescores only nominated ids
    with exact cosine — at scale the rescore is an id-filtered fetch of
    shortlist*queries rows, not a second full scan of floats."""
    short = pq_topk(codes_ds, queries, codebooks, k=shortlist).to_pandas()
    by_q = {
        int(q): set(g["neighbor_id"].tolist()) for q, g in short.groupby("query_id")
    }
    q_ids, q_mat, q_norms = queries

    def _rescore(batch: pa.Table, q) -> tuple:
        ids, sims = _cosine(batch, q)
        # mask out ids not nominated for that query
        for j, qid in enumerate(q[0]):
            keep = np.isin(ids, list(q[3].get(int(qid), ())))
            sims[~keep, j] = -np.inf
        return ids, sims

    return scored_topk(ds, (np.asarray(q_ids), q_mat, q_norms, by_q), k, _rescore)


# --- IVF-PQ (IVFADC): coarse cells + residual PQ codes, persisted ----------


def build_ivfpq_index(
    ds,
    out_dir: str,
    k_cells: int = 16,
    m: int = 8,
    k_codes: int = 256,
    iters: int = 6,
) -> dict:
    """Persisted IVFADC index (Jégou et al. 2011 §IV): coarse k-means
    cells; within each cell, vectors are stored ONLY as m uint8 PQ codes
    of their RESIDUAL (normalized vector - centroid), parquet-partitioned
    by cell with centroids + codebooks as npy sidecars.

    The billion-scale layout: a query reads nprobe/k_cells of the corpus
    from storage (partition pruning at the read) and what it reads is
    32x-compressed codes, never raw floats.  Codebooks train on residuals
    pooled across cells — one scan per k-means iteration, same distributed
    partial pattern as pq_train."""
    import os
    import shutil

    import ray

    cents = kmeans(ds, k=k_cells, iters=iters)
    # normalized centroids of normalized vectors keep residual magnitudes
    # comparable across cells
    c_ref = ray.put(cents)

    def _resid(batch: pa.Table) -> pa.Table:
        c = ray.get(c_ref)
        emb = _emb_matrix(batch).astype(np.float64)
        emb /= np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-30)
        cell = _sq_dists(emb, c).argmin(axis=1).astype(np.int32)
        res = emb - c[cell]
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "cell_id": pa.array(cell),
                "residual": pa.array(list(res), pa.list_(pa.float64())),
            }
        )

    resid = ds.map_batches(_resid, batch_format="pyarrow").materialize()

    # train PQ codebooks on the residual stream (same partial pattern)
    def _first_k(batch: pa.Table) -> pa.Table:
        return batch.sort_by("vec_id").slice(0, k_codes)

    seed = (
        resid.map_batches(_first_k, batch_format="pyarrow")
        .to_pandas()
        .sort_values("vec_id")
        .head(k_codes)
    )
    seed_m = np.stack([np.asarray(v, dtype=np.float64) for v in seed["residual"]])
    dim = seed_m.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    sub = dim // m
    books = seed_m.reshape(k_codes, m, sub).transpose(1, 0, 2).copy()
    for _ in range(iters):
        b_ref = ray.put(books)

        def _partial(batch: pa.Table) -> pa.Table:
            b = ray.get(b_ref)
            res = _emb_matrix(batch, col="residual")
            parts = res.reshape(len(res), m, sub)
            rows = []
            for s in range(m):
                assign = _sq_dists(parts[:, s, :], b[s]).argmin(axis=1)
                for j in np.unique(assign):
                    sel = parts[assign == j, s, :]
                    rows.append(
                        {"s": int(s), "code": int(j), "vsum": sel.sum(axis=0).tolist(), "n": len(sel)}
                    )
            return pa.Table.from_pylist(rows)

        parts = resid.map_batches(_partial, batch_format="pyarrow").to_pandas()
        new = books.copy()
        for (s, j), g in parts.groupby(["s", "code"]):
            total = np.sum([np.asarray(v) for v in g["vsum"]], axis=0)
            n = int(g["n"].sum())
            if n:
                new[int(s)][int(j)] = total / n
        books = new

    b_ref = ray.put(books)

    def _encode(batch: pa.Table) -> pa.Table:
        b = ray.get(b_ref)
        res = _emb_matrix(batch, col="residual")
        parts = res.reshape(len(res), m, sub)
        codes = np.empty((len(res), m), dtype=np.uint8)
        for s in range(m):
            codes[:, s] = _sq_dists(parts[:, s, :], b[s]).argmin(axis=1)
        cell = batch.column("cell_id")
        return pa.table(
            {
                "vec_id": batch.column("vec_id"),
                "cell_id": cell,
                "cell": cell,  # partition dir (dropped from file data)
                "codes": pa.array(list(codes), pa.list_(pa.uint8())),
            }
        )

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    resid.map_batches(_encode, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["cell"]
    )
    np.save(os.path.join(out_dir, "centroids.npy"), cents)
    np.save(os.path.join(out_dir, "codebooks.npy"), books)
    return {"out_dir": out_dir, "k_cells": int(k_cells), "m": int(m), "dim": int(dim)}


def ivfpq_index_topk(
    index_dir: str,
    queries,
    k: int = 10,
    nprobe: int = 4,
    return_stats: bool = False,
):
    """ADC top-k over the persisted IVF-PQ index: per query, probe the
    nprobe nearest cells; READ only those cells' partitions; score codes
    with per-(query, cell) residual lookup tables — sim(q, x) ~ <q, c> +
    <q, r_x> where the second term is m table gathers.  Returns
    (query_id, rnk, neighbor_id) [+ scan stats]."""
    import os

    import ray
    import ray.data as rd

    cents = np.load(os.path.join(index_dir, "centroids.npy"))
    books = np.load(os.path.join(index_dir, "codebooks.npy"))
    m, k_codes, sub = books.shape
    q_ids, q_mat, _ = queries
    qm = np.asarray(q_mat, dtype=np.float64)
    qm /= np.maximum(np.linalg.norm(qm, axis=1, keepdims=True), 1e-30)
    # probe the nprobe nearest cells per query (same rule as ivf_index_topk)
    d2 = _sq_dists(qm, cents)
    probes = np.argsort(d2, axis=1)[:, :nprobe]
    probe_sets = {int(q): set(map(int, probes[j])) for j, q in enumerate(q_ids)}
    base = np.einsum("qd,cd->qc", qm, cents)  # <q, c> per (query, cell)
    tables = np.einsum("qsd,scd->qsc", qm.reshape(len(qm), m, sub), books)
    ref = ray.put((np.asarray(q_ids), probe_sets, base, tables))

    import glob

    wanted = sorted({c for s in probe_sets.values() for c in s})
    paths = [
        f
        for c in wanted
        for f in sorted(glob.glob(os.path.join(index_dir, f"cell={c}", "*.parquet")))
    ]
    if not paths:
        return _finish_topk(
            rd.from_items([]), k, return_stats=return_stats
        )

    def _scan(batch: pa.Table) -> pa.Table:
        qi, psets, bs, t = ray.get(ref)
        ids = batch.column("vec_id").to_numpy()
        cell = batch.column("cell_id").to_numpy()
        flat = np.asarray(batch.column("codes").combine_chunks().values)
        codes = flat.reshape(len(ids), m).astype(np.int64)
        sims = np.zeros((len(ids), len(qi)))
        for s in range(m):
            sims += t[:, s, :][:, codes[:, s]].T
        sims += bs[:, cell].T  # + <q, centroid_of_row>
        # mask rows in cells the query did not probe
        for j, q in enumerate(qi):
            allowed = np.isin(cell, list(psets[int(q)]))
            sims[~allowed, j] = -np.inf
        out = _emit_candidates(qi, ids, sims, k)
        return pa.concat_tables([out, _stats_row(len(ids), len(ids))])

    cands = rd.read_parquet(paths).map_batches(_scan, batch_format="pyarrow")
    return _finish_topk(cands, k, return_stats=return_stats)


# --- late interaction (multi-vector MaxSim) --------------------------------

LATE_TOKENS = 4


def multi_vectors(mat: np.ndarray, n_tok: int = LATE_TOKENS) -> np.ndarray:
    """(rows, n_tok, dim) token vectors: token k = the embedding rolled
    LEFT by k*dim/n_tok elements — a deterministic multi-vector stand-in
    (a real pipeline stores per-token model outputs) that the SQL oracle
    reproduces with list slicing, norm- and variety-preserving."""
    rows, dim = mat.shape
    step = dim // n_tok
    return np.stack([np.roll(mat, -k * step, axis=1) for k in range(n_tok)], axis=1)


def late_scores(dmat3: np.ndarray, qmat3: np.ndarray) -> np.ndarray:
    """SumMaxSimilarity (reference search/LateInteractionFloatValuesSource
    .java:153-177): score(doc, q) = sum_i max_j sim(q_i, d_j) with sim =
    Lucene VectorSimilarityFunction.COSINE's (1 + cos)/2 mapping.  One
    matmul covers every (doc token, query token) pair; max over doc
    tokens, sum over query tokens.  Returns (docs, queries)."""
    b, t, d = dmat3.shape
    q, tq, _ = qmat3.shape
    dflat = dmat3.reshape(b * t, d)
    qflat = qmat3.reshape(q * tq, d)
    dn = np.maximum(np.linalg.norm(dflat, axis=1), 1e-12)
    qn = np.maximum(np.linalg.norm(qflat, axis=1), 1e-12)
    cos = (dflat @ qflat.T) / (dn[:, None] * qn[None, :])
    sims4 = ((1.0 + cos) / 2.0).reshape(b, t, q, tq)
    return sims4.max(axis=1).sum(axis=-1)


def late_interaction_topk(
    ds, queries, k: int = 10, n_tok: int = LATE_TOKENS
) -> pa.Table:
    """ColBERT-style late-interaction top-k over multi-vector embeddings
    (query_id, rnk, neighbor_id), self excluded: the query multi-vector
    matrices broadcast once via ray.put, each batch derives its doc token
    vectors and MaxSim-scores them in one matmul, per-batch partial top-k
    then the usual small candidate reduce.  At 100 TB this composes with
    the IVF/HNSW nominate-then-rescore shape (late interaction is the
    reference's LateInteractionRescorer seam); here it is the exact
    baseline arm."""
    q_ids, q_mat, _ = queries

    def _score(batch: pa.Table, q) -> tuple:
        d3 = multi_vectors(_emb_matrix(batch), q[1].shape[1])
        return _ids(batch), late_scores(d3, q[1])

    return scored_topk(ds, (np.asarray(q_ids), multi_vectors(q_mat, n_tok)), k, _score)


def late_rescored_topk(
    ds, queries, k: int = 10, first_n: int = 50, n_tok: int = LATE_TOKENS
) -> pa.Table:
    """LateInteractionRescorer.create (reference search/
    LateInteractionRescorer.java): a cheap single-vector cosine first pass
    nominates ``first_n`` docs per query, then the MaxSim score REPLACES
    the first-pass score for the final ranking (combine() returns
    sourceValue).  The nominate set broadcasts (first_n ids per query) and
    the rescore pass computes token vectors only for nominated rows — the
    nominate-then-rescore shape that makes late interaction affordable at
    100 TB (full MaxSim touches n_tok^2 times the FLOPs of the first
    pass)."""
    q_ids, q_mat, _ = queries
    first = scored_topk(ds, queries, first_n, _cosine)
    nom: dict[int, list[int]] = {int(q): [] for q in q_ids}
    for r in first.to_pylist():  # bounded: first_n * |queries| rows
        nom[int(r["query_id"])].append(int(r["neighbor_id"]))
    noms = {q: np.array(sorted(v), dtype=np.int64) for q, v in nom.items()}

    def _score(batch: pa.Table, q) -> tuple:
        qi, qm, nm = q
        ids = _ids(batch)
        any_mask = np.isin(ids, np.concatenate(list(nm.values())))
        if not any_mask.any():
            return ids[:0], np.zeros((0, len(qi)))
        sub_ids = ids[any_mask]
        sims = late_scores(multi_vectors(_emb_matrix(batch)[any_mask], qm.shape[1]), qm)
        for j, qid in enumerate(qi):
            sims[~np.isin(sub_ids, nm[int(qid)]), j] = -np.inf
        return sub_ids, sims

    return scored_topk(ds, (np.asarray(q_ids), multi_vectors(q_mat, n_tok), noms), k, _score)


def quantize_fixed_i8(mat: np.ndarray) -> np.ndarray:
    """Fixed elementwise int8 quantization for the BYTE vector family
    (core/document/KnnByteVectorField javadoc: each signed byte is a
    vector dimension): q = clamp(floor(v * 127 + 0.5), -127, 127) — no
    per-block state, so the DuckDB oracle reproduces it with one
    list_transform (floor keeps the .5 rule identical on both sides,
    unlike round's half-even-vs-half-away split)."""
    return np.clip(np.floor(mat * 127.0 + 0.5), -127, 127).astype(np.int64)


def _byte_dot(batch: pa.Table, q) -> tuple:
    # integer dots are exact in float64 (|dot| <= dims * 127^2)
    eb = quantize_fixed_i8(_emb_matrix(batch))
    return _ids(batch), (eb @ quantize_fixed_i8(q[1]).T).astype(np.float64)


def byte_dot_topk(ds, queries, k: int = 10) -> pa.Table:
    """KnnByteVectorQuery / ByteVectorSimilarityQuery with DOT_PRODUCT
    (search/KnnByteVectorQuery.java; VectorSimilarityFunction.java:54-63
    byte arm -> VectorUtil.dotProductScore:380-384, score = 0.5 +
    dot / (dim * 2^15)): the score is strictly monotone in the INTEGER
    dot product, so ranking on the exact int dot gives the reference
    order with no float in the compare path at all.  Vectors quantize
    via quantize_fixed_i8; self excluded; (query_id, rnk, neighbor_id)."""
    return scored_topk(ds, queries, k, _byte_dot)


def _inner_product(batch: pa.Table, q) -> tuple:
    return _ids(batch), _emb_matrix(batch) @ q[1].T


def mip_topk(ds, queries, k: int = 10) -> pa.Table:
    """MAXIMUM_INNER_PRODUCT top-k (VectorSimilarityFunction.java:85-98 +
    VectorUtil.scaleMaxInnerProductScore: score = dot < 0 ? 1/(1-dot)
    : dot+1 — strictly monotone in the dot, so ranking on the raw f64
    inner product gives the reference order; no unit-norm requirement,
    unlike DOT_PRODUCT).  Self excluded; (query_id, rnk, neighbor_id)."""
    return scored_topk(ds, queries, k, _inner_product)


def _neg_sq_l2(batch: pa.Table, q) -> tuple:
    # rank by NEGATIVE squared L2 (EUCLIDEAN score 1/(1+d^2) is monotone
    # decreasing in it); expanded form mirrors list_distance's sum
    emb, q_mat = _emb_matrix(batch), q[1]
    d2 = (
        (emb * emb).sum(axis=1)[:, None]
        + (q_mat * q_mat).sum(axis=1)[None, :]
        - 2.0 * (emb @ q_mat.T)
    )
    return _ids(batch), -d2


def euclidean_topk(ds, queries, k: int = 10) -> pa.Table:
    """EUCLIDEAN top-k (VectorSimilarityFunction.java EUCLIDEAN: score =
    1/(1 + squareDistance) — monotone decreasing in the squared L2, so
    ranking ascends the distance).  Self excluded."""
    return scored_topk(ds, queries, k, _neg_sq_l2)
