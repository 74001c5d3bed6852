"""BKD-style multi-dimensional point index.

Reference: lucene/core/src/java/org/apache/lucene/util/bkd/BKDWriter.java
(recursive widest-dimension median split, leaf blocks of points) and
BKDReader.java (intersect with CELL_INSIDE / CELL_CROSSES / CELL_OUTSIDE
pruning); surfaced through search/PointRangeQuery.java.

Per segment, a block k-d tree over ``ndim`` int64 point columns taken
from the stored fields:

- build: recursive split on the dimension with the widest value range,
  at the median (np.argpartition — O(n) per level), until a subtree holds
  <= leaf_size points.  Points are PERMUTED so every subtree occupies a
  contiguous slice of the value/docid arrays (BKDWriter writes leaves in
  the same nested order) — that makes CELL_INSIDE collection a pure
  slice, zero value comparisons.
- serialize: one ``points-<name>.npz`` per segment holding the sorted
  value matrix, the aligned LOCAL docids, and the node arrays
  (start/end/child indices + per-node bounds) in DFS preorder.
- intersect(lows, highs): iterative stack traversal; a node fully
  outside the box is skipped with its whole subtree, a node fully inside
  contributes its contiguous docid slice wholesale, a crossing leaf is
  masked vectorized.  Bounds are lower-INCLUSIVE / upper-EXCLUSIVE
  (None = open), matching StoredFieldRange / PointRangeQuery's
  [lower, upper) convention used elsewhere in this repo.

The tree is built from stored-field columns AFTER the segment exists
(like the HNSW artifact) rather than inside the indexing chain — same
data, same per-segment granularity, resumable independently.
"""

from __future__ import annotations

import os

import numpy as np

LEAF_SIZE = 512

I64_MIN = np.iinfo(np.int64).min
I64_MAX = np.iinfo(np.int64).max


def build_point_tree(values: np.ndarray, leaf_size: int = LEAF_SIZE) -> dict:
    """Build the tree over ``values`` (n, ndim) int64.

    Returns dict of arrays: ``perm`` (tree order -> original row), node
    arrays ``start end left right`` (left/right = -1 for leaves) and
    bounds ``mins maxs`` (n_nodes, ndim), all in DFS preorder.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    n, ndim = values.shape
    perm = np.arange(n, dtype=np.int64)
    starts, ends, lefts, rights, mins, maxs = [], [], [], [], [], []

    # stack of (start, end, parent_slot): parent_slot is the index in
    # `lefts`/`rights` to patch with this node's id once allocated
    stack = [(0, n, -1, False)]
    while stack:
        start, end, parent, is_right = stack.pop()
        node = len(starts)
        if parent >= 0:
            (rights if is_right else lefts)[parent] = node
        sub = values[perm[start:end]]
        starts.append(start)
        ends.append(end)
        lefts.append(-1)
        rights.append(-1)
        lo = sub.min(axis=0) if len(sub) else np.zeros(ndim, np.int64)
        hi = sub.max(axis=0) if len(sub) else np.zeros(ndim, np.int64)
        mins.append(lo)
        maxs.append(hi)
        if end - start <= leaf_size:
            continue
        split_dim = int(np.argmax(hi - lo))
        mid = (end - start) // 2
        # partition the subrange by the split dimension's median
        order = np.argpartition(sub[:, split_dim], mid)
        perm[start:end] = perm[start:end][order]
        # push right first so left is visited next (DFS preorder)
        stack.append((start + mid, end, node, True))
        stack.append((start, start + mid, node, False))

    return {
        "perm": perm,
        "start": np.asarray(starts, np.int64),
        "end": np.asarray(ends, np.int64),
        "left": np.asarray(lefts, np.int64),
        "right": np.asarray(rights, np.int64),
        "mins": np.asarray(mins, np.int64).reshape(len(starts), ndim),
        "maxs": np.asarray(maxs, np.int64).reshape(len(starts), ndim),
    }


class PointTree:
    """In-memory reader for one segment's point tree."""

    def __init__(
        self,
        values: np.ndarray,
        docids: np.ndarray,
        nodes: dict,
    ):
        self.values = values  # (n, ndim), TREE order
        self.docids = docids  # (n,), LOCAL docids aligned with values
        self.nodes = nodes

    @classmethod
    def build(cls, values: np.ndarray, docids: np.ndarray, leaf_size: int = LEAF_SIZE):
        t = build_point_tree(values, leaf_size)
        perm = t.pop("perm")
        return cls(
            np.ascontiguousarray(values[perm], dtype=np.int64),
            np.asarray(docids, np.int64)[perm],
            t,
        )

    def save(self, path: str) -> None:
        import io

        from .. import store

        buf = io.BytesIO()
        np.savez_compressed(buf, values=self.values, docids=self.docids, **self.nodes)
        store.write_bytes_atomic(path, buf.getvalue())

    @classmethod
    def load(cls, path: str) -> "PointTree":
        z = np.load(path)
        nodes = {k: z[k] for k in ("start", "end", "left", "right", "mins", "maxs")}
        return cls(z["values"], z["docids"], nodes)

    def intersect(
        self,
        lows: tuple[int | None, ...],
        highs: tuple[int | None, ...],
    ) -> tuple[np.ndarray, dict]:
        """LOCAL docids inside the box [low, high) per dimension (None =
        open).  Returns (sorted unique docids, traversal stats) — the
        stats prove the pruning (BKDReader.intersect's three cell cases).
        """
        nd = self.values.shape[1]
        lo = np.array([I64_MIN if v is None else v for v in lows], np.int64)
        # upper EXCLUSIVE -> inclusive bound for the cell comparison
        hi = np.array([I64_MAX if v is None else v - 1 for v in highs], np.int64)
        start, end = self.nodes["start"], self.nodes["end"]
        left, right = self.nodes["left"], self.nodes["right"]
        mins, maxs = self.nodes["mins"], self.nodes["maxs"]

        out: list[np.ndarray] = []
        stats = {"nodes_visited": 0, "points_scanned": 0, "points_bulk": 0}
        stack = [0] if len(start) else []
        while stack:
            node = stack.pop()
            stats["nodes_visited"] += 1
            nmin, nmax = mins[node], maxs[node]
            if (nmin > hi).any() or (nmax < lo).any():
                continue  # CELL_OUTSIDE_QUERY: whole subtree skipped
            s, e = start[node], end[node]
            if (nmin >= lo).all() and (nmax <= hi).all():
                # CELL_INSIDE_QUERY: contiguous slice, zero comparisons
                out.append(self.docids[s:e])
                stats["points_bulk"] += int(e - s)
                continue
            if left[node] < 0:  # crossing leaf: vectorized mask
                vals = self.values[s:e]
                m = ((vals >= lo) & (vals <= hi)).all(axis=1)
                stats["points_scanned"] += int(e - s)
                if m.any():
                    out.append(self.docids[s:e][m])
                continue
            stack.append(int(right[node]))
            stack.append(int(left[node]))

        if not out:
            return np.empty(0, np.int64), stats
        docs = np.concatenate(out)
        docs.sort()
        return docs, stats

    def nearest(
        self, center: tuple[int, ...], k: int
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Best-first k-nearest-neighbor over the tree (reference
        document/NearestNeighbor.java behind
        LatLonPointPrototypeQueries.nearest): cells pop from a priority
        queue keyed by their MINIMUM squared distance to the query point;
        a cell is pruned only when its min distance STRICTLY exceeds the
        current k-th best (NearestNeighbor.java Cell ordering + the
        `cell.distanceSortKey > hit` skip), so distance ties still
        surface the lower docid (visit(): `distanceSortKey ==
        hit.distanceSortKey && fullDocID < hit.docID`).  Integer math end
        to end.  Returns (docids, dist2) sorted by (dist2, docid) plus
        traversal stats proving the pruning."""
        import heapq

        c = np.asarray(center, np.int64)
        start, end = self.nodes["start"], self.nodes["end"]
        left, right = self.nodes["left"], self.nodes["right"]
        mins, maxs = self.nodes["mins"], self.nodes["maxs"]
        if not len(start):
            return np.empty(0, np.int64), np.empty(0, np.int64), {}

        def cell_d2(node: int) -> int:
            # squared distance to the cell's closest corner — via the
            # shared overflow-safe helper (object ints), NOT raw int64:
            # large-magnitude coordinates would wrap silently and make
            # best-first prune true neighbors
            return _dist2_bounds(mins[node], maxs[node], c)[0]

        stats = {"nodes_visited": 0, "points_scanned": 0, "cells_pruned": 0}
        # best: max-heap of the k closest as (-d2, -docid)
        best: list[tuple[int, int]] = []
        heap: list[tuple[int, int]] = [(cell_d2(0), 0)]
        while heap:
            d2c, node = heapq.heappop(heap)
            if len(best) == k and d2c > -best[0][0]:
                stats["cells_pruned"] += 1
                continue
            stats["nodes_visited"] += 1
            if left[node] >= 0:
                for ch in (int(left[node]), int(right[node])):
                    d2ch = cell_d2(ch)
                    if len(best) < k or d2ch <= -best[0][0]:
                        heapq.heappush(heap, (d2ch, ch))
                    else:
                        stats["cells_pruned"] += 1
                continue
            s, e = int(start[node]), int(end[node])
            diff = self.values[s:e].astype(object) - c  # no int64 wrap
            d2 = (diff * diff).sum(axis=1)
            ids = self.docids[s:e]
            stats["points_scanned"] += e - s
            for d2p, doc in zip(d2.tolist(), ids.tolist()):
                key = (-d2p, -doc)
                if len(best) < k:
                    heapq.heappush(best, key)
                elif key > best[0]:  # (d2, doc) smaller than current worst
                    heapq.heapreplace(best, key)
        out = sorted((-d2p, -doc) for d2p, doc in best)
        return (
            np.array([doc for _d, doc in out], np.int64),
            np.array([d for d, _doc in out], np.int64),
            stats,
        )

    def in_set(self, dim: int, values) -> tuple[np.ndarray, dict]:
        """Docids whose ``dim`` coordinate is IN the value set — one tree
        traversal shared by every value (reference
        search/PointInSetQuery.java MergePointVisitor: the sorted value
        iterator advances alongside the cell bounds, so each cell is
        visited at most once regardless of set size, vs one intersect per
        value).  A cell is pruned when no set value falls inside its
        [min, max] range on ``dim``; a leaf is masked with one vectorized
        isin.  Returns (sorted docids, traversal stats)."""
        vs = np.unique(np.asarray(values, np.int64))
        start, end = self.nodes["start"], self.nodes["end"]
        left, right = self.nodes["left"], self.nodes["right"]
        mins, maxs = self.nodes["mins"], self.nodes["maxs"]
        out: list[np.ndarray] = []
        stats = {"nodes_visited": 0, "points_scanned": 0, "points_bulk": 0}
        stack = [0] if len(start) and len(vs) else []
        while stack:
            node = stack.pop()
            stats["nodes_visited"] += 1
            lo, hi = int(mins[node][dim]), int(maxs[node][dim])
            i = int(np.searchsorted(vs, lo, side="left"))
            if i >= len(vs) or vs[i] > hi:
                continue  # CELL_OUTSIDE: no set value inside the range
            s, e = int(start[node]), int(end[node])
            if lo == hi:  # single-valued cell whose value IS in the set
                out.append(self.docids[s:e])
                stats["points_bulk"] += e - s
                continue
            if left[node] < 0:  # crossing leaf: one vectorized isin
                m = np.isin(self.values[s:e, dim], vs)
                stats["points_scanned"] += e - s
                if m.any():
                    out.append(self.docids[s:e][m])
                continue
            stack.append(int(right[node]))
            stack.append(int(left[node]))
        if not out:
            return np.empty(0, np.int64), stats
        docs = np.concatenate(out)
        docs.sort()
        return docs, stats

    def histogram(
        self, dim: int, width: int, max_buckets: int = 1024
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Match-all histogram of ``floorDiv(value[dim], width)`` counted
        from the tree (reference sandbox/facet/plain/histograms/
        HistogramCollector.java bucket math + PointTreeBulkCollector.java
        bulk path): a cell whose [min, max] on ``dim`` maps into ONE
        bucket contributes its weight (end - start) without visiting any
        value; only bucket-crossing leaves scan, vectorized.  Raises like
        the reference's checkMaxBuckets when distinct buckets exceed
        ``max_buckets``.  Returns (buckets asc, counts, traversal stats).
        """
        if width <= 0:
            raise ValueError("bucket width must be positive")
        start, end = self.nodes["start"], self.nodes["end"]
        left, right = self.nodes["left"], self.nodes["right"]
        mins, maxs = self.nodes["mins"], self.nodes["maxs"]
        counts: dict[int, int] = {}
        stats = {"nodes_visited": 0, "points_scanned": 0, "points_bulk": 0}
        stack = [0] if len(start) else []
        while stack:
            node = stack.pop()
            stats["nodes_visited"] += 1
            blo = int(mins[node][dim]) // width  # == Math.floorDiv
            bhi = int(maxs[node][dim]) // width
            s, e = int(start[node]), int(end[node])
            if s == e:
                continue  # an empty segment's root cell holds no point
            if blo == bhi:
                # whole cell inside one bucket: count wholesale
                counts[blo] = counts.get(blo, 0) + (e - s)
                stats["points_bulk"] += e - s
                continue
            if left[node] < 0:  # bucket-crossing leaf: vectorized scan
                b, c = np.unique(
                    np.floor_divide(self.values[s:e, dim], width),
                    return_counts=True,
                )
                stats["points_scanned"] += e - s
                for bi, ci in zip(b, c):
                    counts[int(bi)] = counts.get(int(bi), 0) + int(ci)
                continue
            stack.append(int(right[node]))
            stack.append(int(left[node]))
            if len(counts) > max_buckets:
                raise ValueError(
                    f"histogram needs more than max_buckets={max_buckets}"
                )
        if len(counts) > max_buckets:
            raise ValueError(
                f"histogram needs more than max_buckets={max_buckets}"
            )
        b = np.array(sorted(counts), np.int64)
        return b, np.array([counts[int(x)] for x in b], np.int64), stats

    def estimate_count(
        self,
        lows: tuple[int | None, ...],
        highs: tuple[int | None, ...],
    ) -> int:
        """Cheap match-count ESTIMATE for the box without touching the
        value arrays (reference util/bkd/BKDReader.java
        estimatePointCount / PointValues.estimatePointCount): fully-inside
        cells count wholesale, crossing LEAVES are assumed half-matching,
        outside cells contribute nothing.  Used by
        IndexOrDocValuesQuery's cost rule."""
        lo = np.array([I64_MIN if v is None else v for v in lows], np.int64)
        hi = np.array([I64_MAX if v is None else v - 1 for v in highs], np.int64)
        start, end = self.nodes["start"], self.nodes["end"]
        left, right = self.nodes["left"], self.nodes["right"]
        mins, maxs = self.nodes["mins"], self.nodes["maxs"]
        est = 0
        stack = [0] if len(start) else []
        while stack:
            node = stack.pop()
            nmin, nmax = mins[node], maxs[node]
            if (nmin > hi).any() or (nmax < lo).any():
                continue
            s, e = start[node], end[node]
            if (nmin >= lo).all() and (nmax <= hi).all():
                est += int(e - s)
                continue
            if left[node] < 0:  # crossing leaf: assume half matches
                est += int(e - s + 1) // 2
                continue
            stack.append(int(right[node]))
            stack.append(int(left[node]))
        return est


def _dist2_bounds(nmin, nmax, center):
    """(min, max) squared euclidean distance from `center` to any point in
    the box [nmin, nmax] — integer math throughout."""
    below = np.maximum(nmin - center, 0)
    above = np.maximum(center - nmax, 0)
    gap = np.maximum(below, above).astype(object)  # python ints: no overflow
    dmin = int(np.sum(gap * gap))
    far = np.maximum(np.abs(center - nmin), np.abs(nmax - center)).astype(object)
    dmax = int(np.sum(far * far))
    return dmin, dmax


def _intersect_distance(
    self, center: tuple[int, ...], r2: int
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Distance traversal over the same tree (reference
    document/LatLonPointDistanceQuery via BKD intersect: cells are skipped
    when their closest corner is outside the radius, bulk-collected when
    their farthest corner is inside).
    (local docids, squared distances, stats) of points with
    ||p - center||^2 <= r2, integer-exact."""
    c = np.asarray(center, np.int64)
    start, end = self.nodes["start"], self.nodes["end"]
    left, right = self.nodes["left"], self.nodes["right"]
    mins, maxs = self.nodes["mins"], self.nodes["maxs"]
    out_d: list[np.ndarray] = []
    out_s: list[np.ndarray] = []
    stats = {"nodes_visited": 0, "points_scanned": 0, "points_bulk": 0}

    def _d2(vals: np.ndarray) -> np.ndarray:
        diff = vals.astype(np.int64) - c
        return np.sum(diff * diff, axis=1)

    stack = [0] if len(start) else []
    while stack:
        node = stack.pop()
        stats["nodes_visited"] += 1
        dmin, dmax = _dist2_bounds(mins[node], maxs[node], c)
        if dmin > r2:
            continue  # cell entirely outside the radius
        s, e = start[node], end[node]
        if dmax <= r2:
            out_d.append(self.docids[s:e])
            out_s.append(_d2(self.values[s:e]))
            stats["points_bulk"] += int(e - s)
            continue
        if left[node] < 0:
            d2 = _d2(self.values[s:e])
            m = d2 <= r2
            stats["points_scanned"] += int(e - s)
            if m.any():
                out_d.append(self.docids[s:e][m])
                out_s.append(d2[m])
            continue
        stack.append(int(right[node]))
        stack.append(int(left[node]))
    if not out_d:
        return np.empty(0, np.int64), np.empty(0, np.int64), stats
    docs = np.concatenate(out_d)
    d2 = np.concatenate(out_s)
    order = np.argsort(docs)
    return docs[order], d2[order], stats


PointTree.intersect_distance = _intersect_distance


def point_file(seg_dir: str, name: str) -> str:
    return os.path.join(seg_dir, f"points-{name}.npz")


def build_segment_points(
    seg_dir: str, fields: tuple[str, ...], leaf_size: int = LEAF_SIZE
) -> str:
    """Build + persist one segment's point tree from its stored-field
    columns (idempotent: returns the existing file when present)."""
    from .segment import SegmentReader

    from .. import store

    name = "_".join(fields)
    path = point_file(seg_dir, name)
    if store.exists(path):
        return path
    r = SegmentReader(seg_dir)
    cols = [
        r.stored_column(f).to_numpy(zero_copy_only=False).astype(np.int64)
        for f in fields
    ]
    values = np.stack(cols, axis=1)
    tree = PointTree.build(values, np.arange(r.max_doc, dtype=np.int64), leaf_size)
    tree.save(path)
    return path


def build_point_index(
    index_dir: str, fields: tuple[str, ...], leaf_size: int = LEAF_SIZE
) -> list[str]:
    """Persist a point tree for every segment (one Ray task per segment;
    each task builds one tree from segment-local columns — no data crosses
    the exchange).  Resumable per segment."""
    from .. import store
    from ..tasks import run_tasks
    from . import manifest as mf

    man = mf.read_manifest(index_dir)
    dirs = [s["dir"] for s in man["segments"]]
    todo = [d for d in dirs if not store.exists(point_file(d, "_".join(fields)))]
    run_tasks(build_segment_points, [(d, fields, leaf_size) for d in todo])
    return [point_file(d, "_".join(fields)) for d in dirs]


def build_point_index_fn(
    index_dir: str, name: str, values_fn, leaf_size: int = LEAF_SIZE
) -> list[str]:
    """Like build_point_index but over DERIVED per-doc values:
    ``values_fn(SegmentReader) -> (max_doc, ndim) int64`` — the seam range
    fields use (document/LongRange.java encodes [min, max] as a 2*ndim
    point; here the derivation runs segment-local in the same one-task-
    per-segment dispatch, no exchange)."""
    from .. import store
    from ..tasks import run_tasks
    from . import manifest as mf
    from .segment import SegmentReader

    man = mf.read_manifest(index_dir)
    dirs = [s["dir"] for s in man["segments"]]
    todo = [d for d in dirs if not store.exists(point_file(d, name))]

    def _build(d: str) -> None:
        r = SegmentReader(d)
        values = np.ascontiguousarray(values_fn(r), dtype=np.int64)
        PointTree.build(values, np.arange(r.max_doc, dtype=np.int64), leaf_size).save(
            point_file(d, name)
        )

    run_tasks(_build, [(d,) for d in todo])
    return [point_file(d, name) for d in dirs]


def check_points(path: str, max_doc: int | None = None) -> list[str]:
    """CheckIndex.testPoints analogue for one persisted tree: verify node
    bounds are TIGHT over their value ranges, children exactly partition
    their parent, leaves tile [0, n) disjointly, and docids are unique and
    in range.  Returns human-readable violations (empty = clean)."""
    t = PointTree.load(path)
    errors: list[str] = []
    n = len(t.docids)
    start, end = t.nodes["start"], t.nodes["end"]
    left, right = t.nodes["left"], t.nodes["right"]
    mins, maxs = t.nodes["mins"], t.nodes["maxs"]
    leaf_cover = np.zeros(n, dtype=np.int32)
    for i in range(len(start)):
        s, e = int(start[i]), int(end[i])
        if not (0 <= s <= e <= n):
            errors.append(f"node {i} range [{s},{e}) outside [0,{n})")
            continue
        sub = t.values[s:e]
        if len(sub):
            if not (sub.min(axis=0) == mins[i]).all() or not (
                sub.max(axis=0) == maxs[i]
            ).all():
                errors.append(f"node {i} bounds not tight")
        li, ri = int(left[i]), int(right[i])
        if (li == -1) != (ri == -1):
            errors.append(f"node {i} has exactly one child")
        elif li == -1:
            leaf_cover[s:e] += 1
        else:
            if not (
                int(start[li]) == s
                and int(end[li]) == int(start[ri])
                and int(end[ri]) == e
            ):
                errors.append(f"node {i} children do not partition it")
    if not (leaf_cover == 1).all():
        errors.append("leaves do not tile the value rows exactly once")
    if len(np.unique(t.docids)) != n:
        errors.append("duplicate docids in the tree")
    if max_doc is not None and n and (
        int(t.docids.min()) < 0 or int(t.docids.max()) >= max_doc
    ):
        errors.append("docid out of [0, max_doc)")
    return errors


# --- polygon queries (LatLonPointInPolygonQuery + Polygon2D analogue) -----


def point_in_polygon(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd (ray casting) point-in-polygon, vectorized over ``pts``
    (n, 2) against ``poly`` (m, 2) int vertices (auto-closed).  Points ON
    an edge count as INSIDE (matching the reference's GeoUtils orient/
    on-boundary contract closely enough for integer grids; the brute
    differential uses this same function, and the SQL/brute crosschecks
    evaluate containment identically)."""
    pts = np.asarray(pts, np.int64)
    poly = np.asarray(poly, np.int64)
    if not np.array_equal(poly[0], poly[-1]):
        poly = np.vstack([poly, poly[:1]])
    x, y = pts[:, 0][:, None].astype(np.float64), pts[:, 1][:, None].astype(np.float64)
    x1, y1 = poly[:-1, 0][None, :], poly[:-1, 1][None, :]
    x2, y2 = poly[1:, 0][None, :], poly[1:, 1][None, :]
    # boundary: collinear AND within the segment bbox (integer-exact)
    cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
    on_seg = (
        (cross == 0)
        & (np.minimum(x1, x2) <= x)
        & (x <= np.maximum(x1, x2))
        & (np.minimum(y1, y2) <= y)
        & (y <= np.maximum(y1, y2))
    ).any(axis=1)
    # crossing count for a ray going in +x, half-open vertex rule
    cond = (y1 <= y) != (y2 <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    crossings = (cond & (x < xint)).sum(axis=1)
    return on_seg | (crossings % 2 == 1)


def _segments_intersect_rect(poly: np.ndarray, lo, hi) -> bool:
    """True if any polygon edge intersects the axis-aligned rect [lo, hi]
    (boundary touching counts)."""
    poly = np.asarray(poly, np.float64)
    if not np.array_equal(poly[0], poly[-1]):
        poly = np.vstack([poly, poly[:1]])
    p1, p2 = poly[:-1], poly[1:]
    lo = np.asarray(lo, np.float64)
    hi = np.asarray(hi, np.float64)
    # quick reject: edge bbox vs rect
    emin = np.minimum(p1, p2)
    emax = np.maximum(p1, p2)
    cand = ~((emax < lo).any(axis=1) | (emin > hi).any(axis=1))
    if not cand.any():
        return False
    corners = np.array(
        [[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]]
    )
    rect_edges = [(corners[i], corners[(i + 1) % 4]) for i in range(4)]

    def seg_int(a1, a2, b1, b2) -> np.ndarray:
        def orient(p, q, r1, r2):
            return (q[..., 0] - p[..., 0]) * (r2 - p[..., 1]) - (
                q[..., 1] - p[..., 1]
            ) * (r1 - p[..., 0])

        d1 = orient(a1, a2, b1[0], b1[1])
        d2 = orient(a1, a2, b2[0], b2[1])
        d3 = (b2[0] - b1[0]) * (a1[:, 1] - b1[1]) - (b2[1] - b1[1]) * (
            a1[:, 0] - b1[0]
        )
        d4 = (b2[0] - b1[0]) * (a2[:, 1] - b1[1]) - (b2[1] - b1[1]) * (
            a2[:, 0] - b1[0]
        )
        proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
        # collinear-touch cases: endpoint on the other segment's bbox line
        touch = (d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0)
        bbox_overlap = ~(
            (np.maximum(a1[:, 0], a2[:, 0]) < min(b1[0], b2[0]))
            | (np.minimum(a1[:, 0], a2[:, 0]) > max(b1[0], b2[0]))
            | (np.maximum(a1[:, 1], a2[:, 1]) < min(b1[1], b2[1]))
            | (np.minimum(a1[:, 1], a2[:, 1]) > max(b1[1], b2[1]))
        )
        return proper | (touch & bbox_overlap)

    a1, a2 = p1[cand], p2[cand]
    for b1, b2 in rect_edges:
        if seg_int(a1, a2, b1, b2).any():
            return True
    return False


def _relate_rect_polygon(lo, hi, poly: np.ndarray) -> str:
    """'inside' (rect fully within polygon), 'outside', or 'crosses' —
    the Polygon2D.relate contract the BKD traversal needs."""
    corners = np.array(
        [[lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]]],
        np.int64,
    )
    inside = point_in_polygon(corners, poly)
    if _segments_intersect_rect(poly, lo, hi):
        return "crosses"
    # polygon strictly inside the rect (no edge touches the boundary but
    # vertices are in): the cell still contains both in- and out-points
    pv = np.asarray(poly, np.int64)
    if (
        (pv[:, 0] >= lo[0])
        & (pv[:, 0] <= hi[0])
        & (pv[:, 1] >= lo[1])
        & (pv[:, 1] <= hi[1])
    ).any():
        return "crosses"
    # no contact at all: all-in or all-out by any corner
    return "inside" if bool(inside.all()) else "outside"


def _intersect_polygon(self, poly) -> tuple[np.ndarray, dict]:
    """Polygon traversal (document/LatLonPointInPolygonQuery via BKD
    intersect + Polygon2D.relate): cells fully inside the polygon are
    bulk-collected with ZERO point tests, disjoint cells are skipped,
    crossing cells recurse; leaf points get the vectorized ray cast.
    Returns (sorted local docids, stats)."""
    poly = np.asarray(poly, np.int64)
    start, end = self.nodes["start"], self.nodes["end"]
    left, right = self.nodes["left"], self.nodes["right"]
    mins, maxs = self.nodes["mins"], self.nodes["maxs"]
    out: list[np.ndarray] = []
    stats = {"nodes_visited": 0, "points_scanned": 0, "points_bulk": 0}
    stack = [0] if len(start) else []
    while stack:
        node = stack.pop()
        stats["nodes_visited"] += 1
        rel = _relate_rect_polygon(mins[node], maxs[node], poly)
        if rel == "outside":
            continue
        s, e = int(start[node]), int(end[node])
        if rel == "inside":
            out.append(self.docids[s:e])
            stats["points_bulk"] += e - s
            continue
        if left[node] < 0:
            m = point_in_polygon(self.values[s:e], poly)
            stats["points_scanned"] += e - s
            if m.any():
                out.append(self.docids[s:e][m])
            continue
        stack.append(int(right[node]))
        stack.append(int(left[node]))
    docs = np.concatenate(out) if out else np.empty(0, np.int64)
    return np.sort(docs), stats


PointTree.intersect_polygon = _intersect_polygon
