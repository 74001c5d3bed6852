"""Indexed 2-D shapes: tessellation + triangle BKD + spatial relations.

Reference: lucene/core/src/java/org/apache/lucene/document/Tessellator.java
(ear-clipping polygon triangulation), document/ShapeField.java (triangles as
the indexed unit, QueryRelation INTERSECTS / WITHIN / DISJOINT / CONTAINS),
document/LatLonShape.java + document/SpatialQuery.java (per-triangle BKD
traversal with exact component tests on crossing leaves), and
geo/Component2D.java (the exact triangle/box predicates).

Lucene indexes a polygon as its tessellated triangles: each triangle is one
7-dim BKD point (4-dim bounding box + vertex payload) and a query relates
every candidate triangle to the query geometry exactly, then folds triangle
verdicts into a per-document verdict (ANY for INTERSECTS, ALL for WITHIN).
This module is the same design over this repo's int64 planar point tree:

- ``tessellate`` ear-clips a simple polygon (CCW-normalized) into
  ``n - 2`` non-degenerate triangles.  Deviation from Tessellator.java:
  holes (bridge edges) and self-intersection repair are not supported —
  simple polygons only, asserted.
- ``build_shape_index`` persists per segment: the triangle table
  (doc-local id + 6 vertex ints), the per-doc triangle counts, and a 4-dim
  point tree over each triangle's (minx, maxx, miny, maxy) whose "docids"
  are TRIANGLE row indices — so a box query prunes to candidate triangles
  with the ordinary BKD traversal, exactly like ShapeQuery's first phase.
- ``ShapeReader.query_box`` / ``query_point`` run the BKD prefilter, then
  the exact vectorized predicate (separating-axis triangle-box test /
  sign-consistent point-in-triangle), then the per-doc fold:
  INTERSECTS = any triangle matches; WITHIN = every triangle of the doc is
  inside (a triangle is inside an axis-aligned box iff its bbox is);
  DISJOINT = has a shape and no triangle matches; CONTAINS (point) = the
  point is in any triangle (the union of triangles IS the polygon).

Scale: the artifact is per-segment (one Ray task per segment, no
exchange), queries fan out over the segment list and return bounded
partials (top-k + count) — the same pattern as the point-tree queries.
"""

from __future__ import annotations

import io
import os

import numpy as np

from .points import PointTree, build_point_tree

I64 = np.int64


def _signed_area2(xs: np.ndarray, ys: np.ndarray) -> int:
    """Twice the signed area (shoelace), positive = CCW."""
    x2 = np.roll(xs, -1)
    y2 = np.roll(ys, -1)
    return int(np.sum(xs * y2 - x2 * ys))


def tessellate(xs, ys) -> np.ndarray:
    """Ear-clip a SIMPLE polygon into triangles.

    Returns (n-2, 6) int64 [ax, ay, bx, by, cx, cy].  Collinear vertices
    are clipped without emitting the degenerate triangle (Tessellator.java
    drops zero-area ears the same way).  Raises ValueError when no ear can
    be found (non-simple input).
    """
    xs = np.asarray(xs, dtype=I64)
    ys = np.asarray(ys, dtype=I64)
    n = len(xs)
    if n < 3:
        raise ValueError("polygon needs >= 3 vertices")
    if _signed_area2(xs, ys) < 0:  # normalize to CCW
        xs, ys = xs[::-1].copy(), ys[::-1].copy()
    idx = list(range(n))
    tris: list[tuple[int, int, int, int, int, int]] = []

    def cross(i, j, k) -> int:
        return int(
            (xs[j] - xs[i]) * (ys[k] - ys[i])
            - (ys[j] - ys[i]) * (xs[k] - xs[i])
        )

    def any_point_inside(i, j, k, inclusive: bool) -> bool:
        # any OTHER remaining vertex inside triangle (i, j, k)?  The
        # inclusive variant also blocks vertices ON the ear's boundary
        # (a reflex vertex on the chord would make the pieces overlap);
        # when every ear is boundary-blocked the strict variant — the
        # classical two-ears-theorem test — breaks the tie.
        for m in idx:
            if m in (i, j, k):
                continue
            d1 = cross(i, j, m)
            d2 = cross(j, k, m)
            d3 = cross(k, i, m)
            if inclusive:
                if d1 >= 0 and d2 >= 0 and d3 >= 0:
                    return True
            elif d1 > 0 and d2 > 0 and d3 > 0:
                return True
        return False

    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 2 * n * n:
            raise ValueError("tessellation failed: polygon is not simple")
        clipped = False
        for inclusive in (True, False):
            for pos in range(len(idx)):
                i = idx[pos - 1]
                j = idx[pos]
                k = idx[(pos + 1) % len(idx)]
                c = cross(i, j, k)
                if c < 0:
                    continue  # reflex vertex, not an ear
                if c == 0:
                    # collinear: clip the middle vertex, emit nothing
                    idx.pop(pos)
                    clipped = True
                    break
                if any_point_inside(i, j, k, inclusive):
                    continue
                tris.append((xs[i], ys[i], xs[j], ys[j], xs[k], ys[k]))
                idx.pop(pos)
                clipped = True
                break
            if clipped:
                break
        if not clipped:
            raise ValueError("tessellation failed: no ear found")
    i, j, k = idx
    if cross(i, j, k) != 0:
        tris.append((xs[i], ys[i], xs[j], ys[j], xs[k], ys[k]))
    return np.asarray(tris, dtype=I64).reshape(len(tris), 6)


# --- exact predicates (geo/Component2D.java analogues) ---------------------


def tri_box_intersect_mask(
    tris: np.ndarray, qxlo: int, qxhi: int, qylo: int, qyhi: int
) -> np.ndarray:
    """Boundary-inclusive triangle / axis-aligned-box intersection via the
    separating-axis test (both convex: the 2 box axes + 3 edge normals are
    the complete axis set).  Vectorized over (n, 6) triangles."""
    ax, ay, bx, by, cx, cy = (tris[:, i] for i in range(6))
    txlo = np.minimum(np.minimum(ax, bx), cx)
    txhi = np.maximum(np.maximum(ax, bx), cx)
    tylo = np.minimum(np.minimum(ay, by), cy)
    tyhi = np.maximum(np.maximum(ay, by), cy)
    m = (txlo <= qxhi) & (txhi >= qxlo) & (tylo <= qyhi) & (tyhi >= qylo)
    for px, py, qx, qy in ((ax, ay, bx, by), (bx, by, cx, cy), (cx, cy, ax, ay)):
        nx = -(qy - py)
        ny = qx - px
        pa_ = nx * ax + ny * ay
        pb_ = nx * bx + ny * by
        pc_ = nx * cx + ny * cy
        tmin = np.minimum(np.minimum(pa_, pb_), pc_)
        tmax = np.maximum(np.maximum(pa_, pb_), pc_)
        bmin = nx * np.where(nx >= 0, qxlo, qxhi) + ny * np.where(ny >= 0, qylo, qyhi)
        bmax = nx * np.where(nx >= 0, qxhi, qxlo) + ny * np.where(ny >= 0, qyhi, qylo)
        m &= ~((tmax < bmin) | (bmax < tmin))
    return m


def point_in_tri_mask(tris: np.ndarray, px: int, py: int) -> np.ndarray:
    """Boundary-inclusive point-in-triangle: the three edge cross products
    must not have strictly mixed signs (orientation-free)."""
    ax, ay, bx, by, cx, cy = (tris[:, i] for i in range(6))
    d1 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    d2 = (cx - bx) * (py - by) - (cy - by) * (px - bx)
    d3 = (ax - cx) * (py - cy) - (ay - cy) * (px - cx)
    has_neg = (d1 < 0) | (d2 < 0) | (d3 < 0)
    has_pos = (d1 > 0) | (d2 > 0) | (d3 > 0)
    return ~(has_neg & has_pos)


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, px, py):
    """Collinear p within segment bbox (caller guarantees orient == 0)."""
    return (
        (np.minimum(ax, bx) <= px)
        & (px <= np.maximum(ax, bx))
        & (np.minimum(ay, by) <= py)
        & (py <= np.maximum(ay, by))
    )


def _seg_cross_masks(ax, ay, bx, by, cx, cy, dx, dy):
    """(touch_or_cross, proper_cross) for segment arrays AB vs segment
    CD — integer-exact orientation signs, boundary-inclusive touch."""
    d1 = _orient(cx, cy, dx, dy, ax, ay)
    d2 = _orient(cx, cy, dx, dy, bx, by)
    d3 = _orient(ax, ay, bx, by, cx, cy)
    d4 = _orient(ax, ay, bx, by, dx, dy)
    proper = (
        (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0)))
        & (((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0)))
    )
    touch = (
        proper
        | ((d1 == 0) & _on_segment(cx, cy, dx, dy, ax, ay))
        | ((d2 == 0) & _on_segment(cx, cy, dx, dy, bx, by))
        | ((d3 == 0) & _on_segment(ax, ay, bx, by, cx, cy))
        | ((d4 == 0) & _on_segment(ax, ay, bx, by, dx, dy))
    )
    return touch, proper


def tri_polygon_masks(tris: np.ndarray, poly: np.ndarray):
    """(intersects, within) masks for (n, 6) triangles against one simple
    (possibly non-convex) integer polygon (reference document/
    LatLonShapeQuery.java with a Polygon component: Component2D
    relateTriangle / withinTriangle semantics, boundary-inclusive):

    - intersects: any triangle vertex inside the polygon, any polygon
      vertex inside the triangle, or any triangle edge touching any
      polygon edge.
    - within: all three vertices inside AND no PROPER edge crossing
      (boundary touches stay within — a shape hugging the query polygon's
      rim is contained, matching the inclusive contract of the box path).
      For non-convex polygons a triangle edge can exit and re-enter
      exactly through a reflex polygon vertex with only degenerate
      (orient == 0) touches, so two extra guards reject those
      false-withins: a polygon vertex interior to a triangle edge whose
      two polygon-edge neighbours lie on strictly opposite sides of that
      edge counts as a crossing, and all three triangle-edge midpoints
      (tested exactly at doubled coordinates) must lie inside the polygon.
    """
    from .points import point_in_polygon

    poly = np.asarray(poly, np.int64)
    if not np.array_equal(poly[0], poly[-1]):
        poly = np.vstack([poly, poly[:1]])
    ax, ay, bx, by, cx, cy = (tris[:, i].astype(np.int64) for i in range(6))

    v_in = (
        point_in_polygon(tris[:, 0:2], poly)
        | point_in_polygon(tris[:, 2:4], poly)
        | point_in_polygon(tris[:, 4:6], poly)
    )
    all_in = (
        point_in_polygon(tris[:, 0:2], poly)
        & point_in_polygon(tris[:, 2:4], poly)
        & point_in_polygon(tris[:, 4:6], poly)
    )
    pv_in = np.zeros(len(tris), bool)
    for px, py in poly[:-1]:
        pv_in |= point_in_tri_mask(tris, int(px), int(py))

    touch_any = np.zeros(len(tris), bool)
    proper_any = np.zeros(len(tris), bool)
    tri_edges = ((ax, ay, bx, by), (bx, by, cx, cy), (cx, cy, ax, ay))
    for i in range(len(poly) - 1):
        px1, py1 = int(poly[i, 0]), int(poly[i, 1])
        px2, py2 = int(poly[i + 1, 0]), int(poly[i + 1, 1])
        for ex1, ey1, ex2, ey2 in tri_edges:
            t, p = _seg_cross_masks(ex1, ey1, ex2, ey2, px1, py1, px2, py2)
            touch_any |= t
            proper_any |= p
    # degenerate through-vertex crossings: a polygon vertex V collinear
    # with (and inside) a triangle edge whose neighbours P, N lie on
    # strictly opposite sides of that edge means the boundary crosses the
    # edge AT V with orient == 0 everywhere — proper-cross never fires
    m = len(poly) - 1  # poly is closed; m distinct vertices
    for i in range(m):
        vpx, vpy = int(poly[(i - 1) % m, 0]), int(poly[(i - 1) % m, 1])
        vx, vy = int(poly[i, 0]), int(poly[i, 1])
        vnx, vny = int(poly[(i + 1) % m, 0]), int(poly[(i + 1) % m, 1])
        for ex1, ey1, ex2, ey2 in tri_edges:
            # V strictly interior to the edge: a touch AT a triangle
            # vertex is a corner contact, not an edge crossing
            on_edge = (
                (_orient(ex1, ey1, ex2, ey2, vx, vy) == 0)
                & _on_segment(ex1, ey1, ex2, ey2, vx, vy)
                & ~((ex1 == vx) & (ey1 == vy))
                & ~((ex2 == vx) & (ey2 == vy))
            )
            side_p = _orient(ex1, ey1, ex2, ey2, vpx, vpy)
            side_n = _orient(ex1, ey1, ex2, ey2, vnx, vny)
            proper_any |= on_edge & (
                ((side_p > 0) & (side_n < 0)) | ((side_p < 0) & (side_n > 0))
            )
    # midpoint containment at doubled coordinates (exact: 2*mid is int)
    poly2 = poly * 2
    mid_in = (
        point_in_polygon(np.stack([ax + bx, ay + by], 1), poly2)
        & point_in_polygon(np.stack([bx + cx, by + cy], 1), poly2)
        & point_in_polygon(np.stack([cx + ax, cy + ay], 1), poly2)
    )
    return v_in | pv_in | touch_any, all_in & ~proper_any & mid_in


def tri_line_intersect_mask(tris: np.ndarray, line: np.ndarray) -> np.ndarray:
    """Boundary-inclusive triangle / POLYLINE intersection, vectorized
    over (n, 6) triangles against an (m, 2) integer line string
    (reference LatLonShapeQuery with a Line component, Line2D
    relateTriangle): a line meets a triangle iff any line vertex lies in
    the triangle or any line segment touches any triangle edge.  (A line
    has no interior, so tri-vertex-in-line adds nothing.)"""
    line = np.asarray(line, np.int64)
    ax, ay, bx, by, cx, cy = (tris[:, i].astype(np.int64) for i in range(6))
    hit = np.zeros(len(tris), bool)
    for px, py in line:
        hit |= point_in_tri_mask(tris, int(px), int(py))
    tri_edges = ((ax, ay, bx, by), (bx, by, cx, cy), (cx, cy, ax, ay))
    for i in range(len(line) - 1):
        px1, py1 = int(line[i, 0]), int(line[i, 1])
        px2, py2 = int(line[i + 1, 0]), int(line[i + 1, 1])
        for ex1, ey1, ex2, ey2 in tri_edges:
            t, _ = _seg_cross_masks(ex1, ey1, ex2, ey2, px1, py1, px2, py2)
            hit |= t
    return hit


def polygon_bbox(poly: np.ndarray) -> tuple[int, int, int, int]:
    poly = np.asarray(poly, np.int64)
    return (
        int(poly[:, 0].min()),
        int(poly[:, 0].max()),
        int(poly[:, 1].min()),
        int(poly[:, 1].max()),
    )


# --- per-segment artifact ---------------------------------------------------


def shape_file(seg_dir: str, name: str) -> str:
    return os.path.join(seg_dir, f"shapes-{name}.npz")


def build_segment_shapes(seg_dir: str, name: str, shape_fn) -> str:
    """Tessellate every doc's polygon and persist the triangle table + the
    4-dim bbox tree.  ``shape_fn(reader) -> list[(xs, ys) | None]`` derives
    one polygon (or None = no shape) per local doc from stored fields."""
    from .. import store
    from .segment import SegmentReader

    path = shape_file(seg_dir, name)
    if store.exists(path):
        return path
    r = SegmentReader(seg_dir)
    polys = shape_fn(r)
    assert len(polys) == r.max_doc
    write_shape_artifact(path, polys)
    return path


def write_shape_artifact(path: str, polys) -> None:
    """Persist the triangle table + bbox tree for ``polys`` (one
    ``(xs, ys) | None`` per local doc)."""
    from .. import store

    tri_rows, tri_docs = [], []
    counts = np.zeros(len(polys), dtype=I64)
    for local, poly in enumerate(polys):
        if poly is None:
            continue
        t = tessellate(*poly)
        counts[local] = len(t)
        tri_rows.append(t)
        tri_docs.append(np.full(len(t), local, dtype=I64))
    tris = (
        np.concatenate(tri_rows) if tri_rows else np.empty((0, 6), dtype=I64)
    )
    docs = np.concatenate(tri_docs) if tri_docs else np.empty(0, dtype=I64)
    # bbox matrix (minx, maxx, miny, maxy) — the BKD dims, ShapeField.java
    if len(tris):
        bbox = np.stack(
            [
                np.minimum(np.minimum(tris[:, 0], tris[:, 2]), tris[:, 4]),
                np.maximum(np.maximum(tris[:, 0], tris[:, 2]), tris[:, 4]),
                np.minimum(np.minimum(tris[:, 1], tris[:, 3]), tris[:, 5]),
                np.maximum(np.maximum(tris[:, 1], tris[:, 3]), tris[:, 5]),
            ],
            axis=1,
        )
    else:
        bbox = np.empty((0, 4), dtype=I64)
    tree = build_point_tree(bbox)
    perm = tree.pop("perm")
    buf = io.BytesIO()
    np.savez(
        buf,
        tris=tris[perm] if len(tris) else tris,
        tri_doc=docs[perm] if len(docs) else docs,
        doc_tri_count=counts,
        values=bbox[perm] if len(bbox) else bbox,
        **{f"node_{k}": v for k, v in tree.items()},
    )
    store.write_bytes_atomic(path, buf.getvalue())


def build_shape_index(index_dir: str, name: str, shape_fn) -> list[str]:
    """One Ray task per segment (idempotent, resumable) — same dispatch as
    build_point_index: segment-local columns only, no exchange."""
    from .. import store
    from ..tasks import run_tasks
    from . import manifest as mf

    man = mf.read_manifest(index_dir)
    dirs = [s["dir"] for s in man["segments"]]
    todo = [d for d in dirs if not store.exists(shape_file(d, name))]
    run_tasks(build_segment_shapes, [(d, name, shape_fn) for d in todo])
    return [shape_file(d, name) for d in dirs]


class ShapeReader:
    """One segment's triangle index (SpatialQuery.java per-leaf phase)."""

    def __init__(self, seg_dir: str, name: str):
        self._load(shape_file(seg_dir, name))

    @classmethod
    def from_file(cls, path: str) -> "ShapeReader":
        self = cls.__new__(cls)
        self._load(path)
        return self

    def _load(self, path: str) -> None:
        from .. import store

        with store.open_read(path) as f:
            z = np.load(f)
            self.tris = z["tris"]
            self.tri_doc = z["tri_doc"]
            self.doc_tri_count = z["doc_tri_count"]
            nodes = {
                k[len("node_") :]: z[k] for k in z.files if k.startswith("node_")
            }
            self.tree = PointTree(
                z["values"], np.arange(len(self.tris), dtype=I64), nodes
            )

    def _docs_any(self, tri_ids: np.ndarray, exact_mask: np.ndarray) -> np.ndarray:
        return np.unique(self.tri_doc[tri_ids[exact_mask]])

    def query_box(
        self, qxlo: int, qxhi: int, qylo: int, qyhi: int, relation: str
    ) -> np.ndarray:
        """Local docids matching the [qxlo, qxhi] x [qylo, qyhi] box
        (boundary-inclusive) under ShapeField.QueryRelation semantics."""
        if relation == "within":
            # a triangle lies inside an axis-aligned box iff its bbox does:
            # pure BKD predicate, no exact phase needed
            cand, _ = self.tree.intersect(
                (qxlo, None, qylo, None), (None, qxhi + 1, None, qyhi + 1)
            )
            inside = np.bincount(
                self.tri_doc[cand], minlength=len(self.doc_tri_count)
            )
            return np.flatnonzero(
                (self.doc_tri_count > 0) & (inside == self.doc_tri_count)
            )
        # candidate triangles whose bbox overlaps the query box
        cand, _ = self.tree.intersect(
            (None, qxlo, None, qylo), (qxhi + 1, None, qyhi + 1, None)
        )
        hit = self._docs_any(
            cand, tri_box_intersect_mask(self.tris[cand], qxlo, qxhi, qylo, qyhi)
        )
        if relation == "intersects":
            return hit
        if relation == "disjoint":
            has = np.flatnonzero(self.doc_tri_count > 0)
            return np.setdiff1d(has, hit, assume_unique=True)
        raise ValueError(f"unknown relation {relation!r}")

    def query_polygon(self, poly, relation: str) -> np.ndarray:
        """Local docids related to a simple integer POLYGON geometry
        (LatLonShapeQuery / XYShapeQuery with a Polygon component): BKD
        pre-filter on the polygon's bbox, exact tri_polygon_masks on the
        crossing candidates, per-doc ANY (intersects/disjoint) or ALL
        (within) fold — the same fold shape as query_box."""
        qxlo, qxhi, qylo, qyhi = polygon_bbox(poly)
        if relation == "within":
            # candidates: triangles whose bbox overlaps the poly bbox;
            # anything fully OUTSIDE the bbox can never be within
            cand, _ = self.tree.intersect(
                (None, qxlo, None, qylo), (qxhi + 1, None, qyhi + 1, None)
            )
            _, win = tri_polygon_masks(self.tris[cand], poly)
            inside = np.bincount(
                self.tri_doc[cand[win]], minlength=len(self.doc_tri_count)
            )
            return np.flatnonzero(
                (self.doc_tri_count > 0) & (inside == self.doc_tri_count)
            )
        cand, _ = self.tree.intersect(
            (None, qxlo, None, qylo), (qxhi + 1, None, qyhi + 1, None)
        )
        inter, _ = tri_polygon_masks(self.tris[cand], poly)
        hit = self._docs_any(cand, inter)
        if relation == "intersects":
            return hit
        if relation == "disjoint":
            has = np.flatnonzero(self.doc_tri_count > 0)
            return np.setdiff1d(has, hit, assume_unique=True)
        raise ValueError(f"unknown relation {relation!r}")

    def query_polygon_dv(self, poly, relation: str) -> np.ndarray:
        """Doc-values twin of query_polygon: every triangle tested, no
        tree — the lazy-verification / equivalence path."""
        inter, win = tri_polygon_masks(self.tris, poly)
        if relation == "within":
            inside = np.bincount(
                self.tri_doc[win], minlength=len(self.doc_tri_count)
            )
            return np.flatnonzero(
                (self.doc_tri_count > 0) & (inside == self.doc_tri_count)
            )
        hit = np.unique(self.tri_doc[inter])
        if relation == "intersects":
            return hit
        if relation == "disjoint":
            has = np.flatnonzero(self.doc_tri_count > 0)
            return np.setdiff1d(has, hit, assume_unique=True)
        raise ValueError(f"unknown relation {relation!r}")

    def query_line(self, line, relation: str) -> np.ndarray:
        """Local docids whose shape INTERSECTS / is DISJOINT from a
        polyline geometry (Line2D analogue; lines have no interior, so
        WITHIN is undefined here like the reference's CONTAINS
        limitations): bbox pre-filter + exact tri_line_intersect_mask."""
        qxlo, qxhi, qylo, qyhi = polygon_bbox(line)
        cand, _ = self.tree.intersect(
            (None, qxlo, None, qylo), (qxhi + 1, None, qyhi + 1, None)
        )
        hit = self._docs_any(
            cand, tri_line_intersect_mask(self.tris[cand], line)
        )
        if relation == "intersects":
            return hit
        if relation == "disjoint":
            has = np.flatnonzero(self.doc_tri_count > 0)
            return np.setdiff1d(has, hit, assume_unique=True)
        raise ValueError(f"unknown relation {relation!r}")

    def query_point(self, px: int, py: int) -> np.ndarray:
        """CONTAINS(point): docs whose shape covers (px, py)."""
        cand, _ = self.tree.intersect(
            (None, px, None, py), (px + 1, None, py + 1, None)
        )
        return self._docs_any(cand, point_in_tri_mask(self.tris[cand], px, py))

    def query_box_dv(
        self, qxlo: int, qxhi: int, qylo: int, qyhi: int, relation: str
    ) -> np.ndarray:
        """The doc-values twin (document/ShapeDocValues.java +
        LatLonShapeDocValuesQuery / BaseShapeDocValuesQuery): no tree —
        every stored triangle is tested directly, the per-doc fold is the
        same.  This is the lazy VERIFICATION side an IndexOrDocValuesQuery
        would pick when a selective lead iterator makes the BKD traversal
        not worth it; also the equivalence oracle for the tree path."""
        all_tris = np.arange(len(self.tris), dtype=I64)
        if relation == "within":
            b = self.tree.values  # (minx, maxx, miny, maxy), tree order
            # careful: values are in TREE order, tri_doc too — aligned
            inside_mask = (
                (b[:, 0] >= qxlo)
                & (b[:, 1] <= qxhi)
                & (b[:, 2] >= qylo)
                & (b[:, 3] <= qyhi)
            )
            inside = np.bincount(
                self.tri_doc[inside_mask], minlength=len(self.doc_tri_count)
            )
            return np.flatnonzero(
                (self.doc_tri_count > 0) & (inside == self.doc_tri_count)
            )
        hit = self._docs_any(
            all_tris, tri_box_intersect_mask(self.tris, qxlo, qxhi, qylo, qyhi)
        )
        if relation == "intersects":
            return hit
        if relation == "disjoint":
            has = np.flatnonzero(self.doc_tri_count > 0)
            return np.setdiff1d(has, hit, assume_unique=True)
        raise ValueError(f"unknown relation {relation!r}")
