"""Index manifest: segment listing, generations, lineage, resume.

The manifest is the ``segments_N`` analogue (reference index/SegmentInfos.
java:56-135): a JSON commit point listing segments in ordinal order (the
order is semantically significant — it is the tie-break for equal scores,
SURVEY §7.5).  Each entry carries the segment's partial collection stats,
its lineage (input fragment list + row ranges) and build metrics, which is
the "per-partition lineage + metrics" requirement of the north rule.

Write protocol: per-segment directories are written atomically by their
build tasks (segment.py); the manifest generation file is written LAST —
the durability point (IndexWriter.commit analogue, SegmentInfos two-phase
commit).  Every writer commits through ``commit(index_dir, mutate)``: it
reads the latest generation N (or none for a fresh build), calls
``mutate(base, N + 1)`` — the mutation reads only ``base`` and writes its
artifacts under names carrying N + 1 — and publishes the returned manifest
as generation N + 1.  Publishing is exclusive (``write_manifest`` creates
the file or raises ``FileExistsError``), so two writers that read the same
base cannot both publish N + 1: one wins, the other raises instead of
silently replacing it (the Delta Lake put-if-absent log protocol).
Resume: a rerun skips partitions whose segment directory already exists
with a matching lineage signature (``segment_is_complete``).
"""

from __future__ import annotations

import json
import os

import numpy as np

from .. import store


def manifest_path(index_dir: str, gen: int) -> str:
    return os.path.join(index_dir, f"manifest-{gen:06d}.json")


def generations(index_dir: str, prefix: str = "manifest-") -> list[int]:
    """Every committed generation, ascending (``prefix="pending-manifest-"``
    lists staged two-phase commits instead)."""
    gens = []
    for name in store.glob_names(os.path.join(index_dir, f"{prefix}*.json")):
        try:
            gens.append(int(name[len(prefix) : -len(".json")]))
        except ValueError:
            continue
    return sorted(gens)


def latest_generation(index_dir: str) -> int | None:
    gens = generations(index_dir)
    return gens[-1] if gens else None


def read_manifest(index_dir: str, gen: int | None = None) -> dict:
    if gen is None:
        gen = latest_generation(index_dir)
        if gen is None:
            raise FileNotFoundError(f"no manifest in {index_dir}")
    return store.read_json(manifest_path(index_dir, gen))


def write_manifest(index_dir: str, manifest: dict) -> str:
    """Publish ``manifest`` as its generation; raises FileExistsError when
    that generation already exists (the file is left untouched)."""
    gen = int(manifest["generation"])
    path = manifest_path(index_dir, gen)
    data = json.dumps(manifest, indent=1, default=_json_default).encode("utf-8")
    store.create_bytes(path, data)
    return path


def next_manifest(index_dir: str, mutate) -> tuple[dict | None, dict | None]:
    """(base, proposed): the latest manifest (None for a fresh index) and
    ``mutate(base, gen)`` stamped with ``gen`` = base generation + 1, or
    None when the mutation is a no-op.  ``commit`` publishes the proposal;
    ``twophase.prepare_commit`` stages it."""
    gen = latest_generation(index_dir)
    base = None if gen is None else read_manifest(index_dir, gen)
    gen = (gen or 0) + 1
    new = mutate(base, gen)
    return base, (None if new is None else {**new, "generation": gen})


def commit(index_dir: str, mutate) -> dict | None:
    """The one commit path: publish ``mutate(base, gen)`` as generation
    ``gen``; returns the new manifest, or ``base`` when ``mutate`` returns
    None.  A concurrent writer that published ``gen`` first makes this
    raise FileExistsError; nothing is retried."""
    base, new = next_manifest(index_dir, mutate)
    if new is None:
        return base
    write_manifest(index_dir, new)
    return new


def segment_entry(seg_dir: str, doc_base: int, docs_dir: str) -> dict:
    """Manifest entry for a finished segment directory, from its
    ``meta.json`` (max_doc, stats, metrics, lineage)."""
    meta = store.read_json(os.path.join(seg_dir, "meta.json"))
    return {
        "name": os.path.basename(seg_dir.rstrip("/")),
        "dir": seg_dir,
        "doc_base": doc_base,
        "max_doc": meta["max_doc"],
        "stats": meta["stats"],
        "metrics": meta.get("metrics", {}),
        "lineage": meta.get("lineage", {}),
        "docs_dir": docs_dir,
    }


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    raise TypeError(type(o))


def collection_stats_from(manifest: dict) -> dict:
    """Final aggregation of the per-segment partial stats (partial+final
    pattern, SURVEY §2.6 CollectionStatistics row)."""
    max_doc = doc_count = sum_ttf = sum_df = 0
    for seg in manifest["segments"]:
        s = seg["stats"]
        max_doc += s["max_doc"]
        doc_count += s["doc_count"]
        sum_ttf += s["sum_total_term_freq"]
        sum_df += s["sum_doc_freq"]
    return {
        "max_doc": max_doc,
        "doc_count": doc_count,
        "sum_total_term_freq": sum_ttf,
        "sum_doc_freq": sum_df,
    }


def segment_is_complete(seg_dir: str, lineage_sig: str) -> bool:
    """True if a prior run already produced this segment for the same input
    (checkpoint/resume, FIXTURES F7)."""
    meta_path = os.path.join(seg_dir, "meta.json")
    if not store.exists(meta_path):
        return False
    try:
        meta = store.read_json(meta_path)
        return meta.get("lineage", {}).get("signature") == lineage_sig
    except (json.JSONDecodeError, OSError, ValueError):
        return False
