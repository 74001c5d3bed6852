"""Index splitting: partition one index into N standalone indexes.

Reference: lucene/misc MultiPassIndexSplitter.java — each output is a view
of the source with the OTHER parts' docs marked deleted ("it uses simple
FilterIndexReader that returns false from its deletedDocs"), optionally
compacted afterwards.  Two part assignments, like the reference: ``seq``
(contiguous global-docid ranges) and ``round_robin`` (docid % n).

Composition, not new machinery: each part is a ``replicate.sync`` of the
source (incremental file copy), plus one livedocs generation masking
foreign docs, plus a delete-expunging ``force_merge`` — the same expunge
path every delete takes, so postings/norms/stored-fields/positions all
renumber through the already-tested sectioned merge.

Scale: parts are independent — one Ray task per part; the copy is
file-level (no decode), the expunge merge streams.
"""

from __future__ import annotations

import os

import numpy as np

from . import manifest as mf
from .addindexes import add_indexes
from .deletion_policy import prune_generations
from .merge import expunge_deletes, force_merge, gc_unreferenced
from .replicate import sync


def split_index(
    index_dir: str,
    out_dirs: list[str],
    mode: str = "round_robin",
    compact: bool = True,
) -> list[dict]:
    """Split ``index_dir`` into ``len(out_dirs)`` standalone indexes.

    mode="round_robin": global docid % n == part (MultiPassIndexSplitter
    default); mode="seq": n contiguous global-docid ranges.  With
    ``compact`` each part is force-merged so foreign docs are physically
    expunged (docids renumber dense per part); without it the parts keep
    source docids behind livedocs masks, exactly like the reference's
    fake-deletes view.  Returns each part's final manifest.
    """
    n = len(out_dirs)
    if n < 2:
        raise ValueError("need at least 2 parts")
    src_man = mf.read_manifest(index_dir)
    total = sum(int(s["max_doc"]) for s in src_man["segments"])
    bounds = np.linspace(0, total, n + 1).astype(np.int64)

    def mask_for(part: int, seg: dict) -> np.ndarray:
        base = int(seg["doc_base"])
        gids = base + np.arange(int(seg["max_doc"]), dtype=np.int64)
        if mode == "round_robin":
            return (gids % n) == part
        if mode == "seq":
            return (gids >= bounds[part]) & (gids < bounds[part + 1])
        raise ValueError(f"unknown mode {mode!r}")

    return _write_parts(index_dir, out_dirs, mask_for, compact)


def _write_parts(index_dir, out_dirs, mask_for, compact: bool) -> list[dict]:
    """Shared part-writing protocol: each part is a sync of the source
    plus one livedocs generation masking foreign docs
    (``mask_for(part, seg) -> bool[max_doc]``), optionally compacted."""
    manifests = []
    for part, out in enumerate(out_dirs):
        sync(index_dir, out)

        def mutate(man, gen, part=part, out=out):
            live_dir = os.path.join(out, "livedocs")
            os.makedirs(live_dir, exist_ok=True)
            entries = []
            for seg in man["segments"]:
                mine = mask_for(part, seg)
                lp = seg.get("livedocs")
                live = np.load(lp) if lp else np.ones(len(mine), dtype=bool)
                live = live & mine
                path = os.path.join(live_dir, f"{seg['name']}-g{gen:04d}.npy")
                np.save(path, live)
                entry = dict(seg)
                entry["livedocs"] = path
                entry["del_count"] = int(len(live) - live.sum())
                entries.append(entry)
            return {**man, "segments": entries}

        new_man = mf.commit(out, mutate)
        if compact:
            new_man = force_merge(out, max_segments=1)
            # a part that is already a single segment skips force_merge's
            # planner; its foreign docs still need physical expunging
            new_man = expunge_deletes(out)
            prune_generations(out, keep_last=1)
            gc_unreferenced(out)
        manifests.append(new_man)
    return manifests


def split_index_by_query(
    index_dir: str,
    out1: str,
    out2: str,
    query,
    compact: bool = True,
) -> list[dict]:
    """PKIndexSplitter (reference misc/index/PKIndexSplitter.java:41-52):
    documents matching ``query`` go to ``out1``, the remainder to
    ``out2`` — the same sync + livedocs-mask + expunge composition as
    split_index, with the part assignment computed per segment from the
    query's matches (rewritten and weighed like a search of it)."""
    from ..search.query import build_scorer
    from ..search.scorers import live_docids
    from ..search.searcher import IndexSearcher

    searcher = IndexSearcher(index_dir)
    query, weight = searcher.weigh(query)
    match_by_seg: dict[str, np.ndarray] = {}
    for reader, seg in zip(searcher.readers, searcher.manifest["segments"]):
        mask = np.zeros(reader.max_doc, dtype=bool)
        scorer = build_scorer(query, weight, reader, 1.0, "COMPLETE_NO_SCORES")
        mask[live_docids(scorer, reader.live)] = True
        match_by_seg[seg["name"]] = mask

    def mask_for(part: int, seg: dict) -> np.ndarray:
        mask = match_by_seg[seg["name"]]
        return mask if part == 0 else ~mask

    return _write_parts(index_dir, (out1, out2), mask_for, compact)


def rearrange_index(
    index_dir: str,
    out_dir: str,
    selectors: list,
    tmp_root: str | None = None,
) -> dict:
    """IndexRearranger (reference misc/index/IndexRearranger.java:30-60):
    copy + rearrange an index so output segment i holds EXACTLY the
    global docids of ``selectors[i]`` — selector order becomes segment
    order, and an empty selection produces no segment (the reference
    discards all-deleted segments).  Built from the existing parts
    machinery: one compacted single-segment part per selector, assembled
    with addIndexes."""
    import shutil
    import tempfile

    tmp = tempfile.mkdtemp(prefix="rearrange-", dir=tmp_root)
    try:
        parts = []
        for i, sel in enumerate(selectors):
            sel_arr = np.asarray(sorted({int(d) for d in sel}), dtype=np.int64)
            if not len(sel_arr):
                continue  # empty selector: skip the whole sync+compact

            def mask_for(part: int, seg: dict, sel_arr=sel_arr) -> np.ndarray:
                base = int(seg["doc_base"])
                n = int(seg["max_doc"])
                mask = np.zeros(n, dtype=bool)
                mine = sel_arr[(sel_arr >= base) & (sel_arr < base + n)] - base
                mask[mine] = True
                return mask

            out = os.path.join(tmp, f"part{i:04d}")
            man = _write_parts(index_dir, [out], mask_for, compact=True)[0]
            if sum(int(s["max_doc"]) for s in man["segments"]):
                parts.append(out)
        if not parts:
            raise ValueError("all selectors empty: nothing to rearrange")
        sync(parts[0], out_dir)
        if len(parts) > 1:
            result = add_indexes(out_dir, parts[1:])
        else:
            result = mf.read_manifest(out_dir)
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
