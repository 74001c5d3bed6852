"""MultiReader: one searcher over SEVERAL indexes without copying.

Reference: lucene/core/src/java/org/apache/lucene/index/MultiReader.java
— a composite reader whose leaves are the sub-readers' leaves with
re-chained doc bases; collection statistics aggregate across all of them
(IndexSearcher works on any composite).  The copy-ful twin is
``index/addindexes.py`` (IndexWriter.addIndexes); this is the view-level
one: nothing is written, the composite manifest lives in memory only.

Compatibility rule (same as addIndexes): the member indexes must share
analyzer / index options / term vectors, or scores would be incomparable.
"""

from __future__ import annotations

from ..index.manifest import read_manifest
from .searcher import IndexSearcher

_COMPAT_KEYS = ("analyzer", "index_options", "term_vectors")


class MultiIndexSearcher(IndexSearcher):
    """IndexSearcher over the union of ``index_dirs``' latest generations
    (leaf order = argument order, doc bases re-chained)."""

    def __init__(self, index_dirs: list[str], mmap: bool = True, similarity=None):
        mans = [read_manifest(d) for d in index_dirs]
        for m in mans[1:]:
            for key in _COMPAT_KEYS:
                if m.get(key) != mans[0].get(key):
                    raise ValueError(
                        f"incompatible {key}: {m.get(key)!r} != {mans[0].get(key)!r}"
                    )
        segments = []
        base = 0
        for m in mans:
            for seg in m["segments"]:
                e = dict(seg)
                e["doc_base"] = base
                base += int(seg["max_doc"])
                segments.append(e)
        composite = {
            "generation": -1,  # in-memory view, never committed
            "analyzer": mans[0].get("analyzer"),
            "index_options": mans[0].get("index_options"),
            "term_vectors": mans[0].get("term_vectors"),
            "segments": segments,
        }
        # IndexSearcher over the composite instead of a read manifest
        self.index_dir = index_dirs[0] if index_dirs else ""
        self._open(composite, mmap, similarity)
