"""The exact dense-vector arms of ``ops.ann`` (cosine, maximum inner
product, euclidean, int8 byte dot) against a numpy brute force ranked by
(score desc, id asc), self excluded, on a two-block embedding table whose
k-th score is a three-way tie split across the blocks: per-block pruning
must keep every side of the tie for the global id tie-break."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.ops import ann

K = 3
# ids 3, 4 and 5 score alike under every metric (same first coordinate and
# norm) for both queries; id 3 and 5 sit in one block, id 4 in the other
ROWS = {
    0: [1.0, 0.0, 0.0, 0.0],
    1: [0.9, 0.1, 0.0, 0.0],
    2: [0.8, 0.0, 0.2, 0.0],
    3: [0.5, 1.0, 0.0, 0.0],
    4: [0.5, 0.0, 1.0, 0.0],
    5: [0.5, 0.0, 0.0, 1.0],
    6: [-1.0, 0.0, 0.0, 0.0],
    7: [0.0, 1.0, 1.0, 0.0],
}
BLOCKS = [[0, 1, 4, 6, 7], [2, 3, 5]]
QUERY_IDS = [0, 6]


def _cosine(e, q):
    return (e @ q.T) / (np.linalg.norm(e, axis=1)[:, None] * np.linalg.norm(q, axis=1)[None, :])


def _neg_sq_l2(e, q):
    return -((e * e).sum(axis=1)[:, None] + (q * q).sum(axis=1)[None, :] - 2.0 * (e @ q.T))


def _byte_dot(e, q):
    return (ann.quantize_fixed_i8(e) @ ann.quantize_fixed_i8(q).T).astype(np.float64)


ARMS = {
    "cosine": (ann.brute_topk, _cosine),
    "max_inner_product": (ann.mip_topk, lambda e, q: e @ q.T),
    "euclidean": (ann.euclidean_topk, _neg_sq_l2),
    "byte_dot": (ann.byte_dot_topk, _byte_dot),
}


def _brute(score) -> list[tuple[int, int, int]]:
    ids = np.array(sorted(ROWS))
    emb = np.array([ROWS[i] for i in ids])
    q = np.array([ROWS[i] for i in QUERY_IDS])
    sims = score(emb, q)
    out = []
    for j, qid in enumerate(QUERY_IDS):
        keep = ids != qid
        order = np.lexsort((ids[keep], -sims[keep, j]))[:K]
        out += [(qid, r + 1, int(n)) for r, n in enumerate(ids[keep][order])]
    return out


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_exact_arm_matches_brute_force(arm, ray_session):
    import ray.data as rd

    fn, score = ARMS[arm]
    tables = [
        pa.table(
            {
                "vec_id": pa.array(b, pa.int64()),
                "embedding": pa.array([ROWS[i] for i in b], pa.list_(pa.float64())),
            }
        )
        for b in BLOCKS
    ]
    ds = rd.from_arrow(tables)
    assert ds.num_blocks() == 2
    q_mat = np.array([ROWS[i] for i in QUERY_IDS])
    queries = (np.array(QUERY_IDS), q_mat, np.linalg.norm(q_mat, axis=1))
    want = _brute(score)
    # the k-th score ties three ways across the blocks, the id tie-break
    # keeps the smallest id
    assert [n for q, r, n in want if r == K] == [3, 4]
    got = fn(ds, queries, k=K)
    assert got.schema.names == ["query_id", "rnk", "neighbor_id"]
    assert list(zip(*(got.column(c).to_pylist() for c in got.schema.names))) == want
