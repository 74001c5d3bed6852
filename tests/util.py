"""Test helpers: build tiny indexes directly from token lists."""

from __future__ import annotations

import os
from collections import Counter

import numpy as np

from lucene_ray.index import manifest as mf
from lucene_ray.index.segment import build_segment
from lucene_ray.smallfloat import int_to_byte4


def index_from_token_docs(
    docs: list[list[str]],
    index_dir: str,
    n_segments: int = 1,
) -> None:
    """Build an index where doc i contains exactly ``docs[i]`` as its token
    stream (bypasses the analyzer).  Norm = intToByte4(len(tokens))."""
    os.makedirs(index_dir, exist_ok=True)
    per_seg = (len(docs) + n_segments - 1) // n_segments
    seg_entries = []
    doc_base = 0
    for si in range(n_segments):
        chunk = docs[si * per_seg : (si + 1) * per_seg]
        if not chunk:
            break
        terms, docids, tfs = [], [], []
        norms = np.zeros(len(chunk), dtype=np.uint8)
        for li, toks in enumerate(chunk):
            norms[li] = int_to_byte4(len(toks))
            for t, c in sorted(Counter(toks).items()):
                terms.append(t)
                docids.append(li)
                tfs.append(c)
        name = f"seg_{si:06d}"
        seg_dir = os.path.join(index_dir, name)
        meta = {
            "name": name,
            "max_doc": len(chunk),
            "doc_base": doc_base,
            "lineage": {"signature": f"test-{si}"},
        }
        build_segment(
            np.array(terms, dtype=object),
            np.array(docids, dtype=np.int32),
            np.array(tfs, dtype=np.int32),
            norms,
            None,
            seg_dir,
            meta,
        )
        import json

        with open(os.path.join(seg_dir, "meta.json")) as f:
            m = json.load(f)
        seg_entries.append(
            {
                "name": name,
                "dir": seg_dir,
                "doc_base": doc_base,
                "max_doc": len(chunk),
                "stats": m["stats"],
                "lineage": m["lineage"],
            }
        )
        doc_base += len(chunk)
    mf.write_manifest(
        index_dir,
        {"generation": 1, "analyzer": "none", "segments": seg_entries},
    )


DV_WORDS = "spark join merge window scan alpha beta gamma delta red green blue".split()


def small_dv_index(tmp_path, name: str, n_docs: int = 40, per_segment: int = 20) -> str:
    """An index of ``per_segment``-doc segments over ``n_docs`` generated
    rows (stored ``doc_id`` and numeric ``n``), built in-process."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_ray.index.build import build_index_local

    rng = np.random.default_rng(7)
    texts = [" ".join(rng.choice(DV_WORDS, size=int(rng.integers(3, 12))).tolist()) for _ in range(n_docs)]
    tbl = pa.table({
        "doc_id": pa.array(range(n_docs), pa.int64()),
        "n": pa.array(rng.integers(0, 50, n_docs), pa.int64()),
        "text": pa.array(texts),
    })
    src = str(tmp_path / f"{name}.parquet")
    pq.write_table(tbl, src, row_group_size=per_segment)
    out = str(tmp_path / name)
    build_index_local(src, out, docs_per_segment=per_segment, content_column="text",
                      meta_columns=("doc_id", "n"))
    return out


def dv_counts(index_dir: str) -> tuple[int, int, int]:
    """(docs with stored n == 999, soft-wrapped ``alpha`` count, plain
    ``alpha`` count) — what a doc-values update of ``n`` and a soft delete
    of ``alpha`` change."""
    from lucene_ray.index.softdeletes import wrap_soft_deletes
    from lucene_ray.search.query import StoredFieldRange, TermQuery, bool_query
    from lucene_ray.search.searcher import IndexSearcher

    s = IndexSearcher(index_dir)
    return (
        s.count(bool_query(filter=[StoredFieldRange("n", 999, 1000)])),
        wrap_soft_deletes(s).count(TermQuery("alpha")),
        s.count(TermQuery("alpha")),
    )
