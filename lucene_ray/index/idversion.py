"""Versioned primary-key lookups — the sandbox idversion codec's surface.

Reference: sandbox/codecs/idversion/IDVersionPostingsFormat.java (a long
version rides each unique-ID term; MIN_VERSION=0, MAX_VERSION=2^62-1,
:57-62), IDVersionSegmentTermsEnum.seekExact(target, minIDVersion)
(:238 — fail-fast when the block's maxIDVersion is below minIDVersion
:378-388, and a positioned term whose version is below minIDVersion
still returns false :518), and the test-framework's PerThreadPKLookup
(tests/index/PerThreadPKLookup.java — segments consulted NEWEST FIRST,
first live hit wins, per-thread cached enums).

Here the ID is a stored string column and the version a stored long
column of the ordinary index segments — the sidecar arrays this class
builds (ids sorted bytewise, aligned docids + versions, a per-segment
max_version standing in for the block tree's per-block maxIDVersion)
are the in-RAM analogue of the idversion FST, built once per lookup
actor the way PerThreadPKLookup caches its TermsEnums.
"""

from __future__ import annotations

import numpy as np

from ..search.searcher import IndexSearcher

MIN_VERSION = 0
MAX_VERSION = (1 << 62) - 1  # IDVersionPostingsFormat.MAX_VERSION


class PKLookup:
    """PerThreadPKLookup with IDVersion semantics over stored columns."""

    def __init__(
        self,
        index_dir: str,
        id_field: str = "doc_id",
        version_field: str = "n_chars",
    ):
        self.searcher = IndexSearcher(index_dir)
        self.id_field = id_field
        self.version_field = version_field
        self.segments = []  # newest first
        man = self.searcher.manifest
        for reader, seg in zip(
            reversed(self.searcher.readers), reversed(man["segments"])
        ):
            ids = np.array(
                [str(v).encode("utf-8") for v in reader.stored_column(id_field).to_pylist()],
                dtype=object,
            )
            versions = np.asarray(
                reader.stored_column(version_field).to_numpy(zero_copy_only=False),
                dtype=np.int64,
            )
            if len(versions) and (
                versions.min() < MIN_VERSION or versions.max() > MAX_VERSION
            ):
                raise ValueError(
                    f"version must be in [{MIN_VERSION}, {MAX_VERSION}]"
                )
            order = np.argsort(ids, kind="stable")
            self.segments.append(
                {
                    "reader": reader,
                    "doc_base": seg["doc_base"],
                    "ids": ids[order],
                    "docids": order.astype(np.int64),
                    "versions": versions[order],
                    "max_version": int(versions.max()) if len(versions) else -1,
                }
            )
        # fail-fast observability (the seekExact version-skip counters)
        self.stats = {"version_skips": 0, "seeks": 0}

    def _find(self, seg, key: bytes):
        """First sorted slot holding key, or None; duplicate ids within a
        segment resolve to the LOWEST local docid among live docs (the
        PerThreadPKLookup first-live-hit rule applied within a segment —
        stable argsort keeps docid order inside an id run)."""
        ids = seg["ids"]
        lo = int(np.searchsorted(ids, key, side="left"))
        hi = int(np.searchsorted(ids, key, side="right"))
        live = getattr(seg["reader"], "live", None)
        for slot in range(lo, hi):
            d = int(seg["docids"][slot])
            if live is None or live[d]:
                return slot, d
        return None

    def lookup(self, id_value) -> tuple[int, int] | None:
        """(global docid, version) of the NEWEST live occurrence of the
        id, or None — PerThreadPKLookup.lookup."""
        key = str(id_value).encode("utf-8")
        for seg in self.segments:
            hit = self._find(seg, key)
            if hit is not None:
                slot, d = hit
                return seg["doc_base"] + d, int(seg["versions"][slot])
        return None

    def seek_exact(self, id_value, min_version: int = 0) -> int | None:
        """IDVersionSegmentTermsEnum.seekExact(target, minIDVersion): the
        id's version when it exists (newest live occurrence) AND that
        version >= min_version, else None.  The block-tree maxIDVersion
        fail-fast (:378-388) appears twice: when NO segment's
        max_version reaches min_version the whole seek returns without a
        single dictionary probe, and a segment holding the id under a
        too-low max_version answers None without comparing the stored
        version (both counted in stats).  The scan always stops at the
        NEWEST segment containing the id — an older (superseded)
        occurrence can never satisfy the seek on its behalf."""
        key = str(id_value).encode("utf-8")
        self.stats["seeks"] += 1
        if all(seg["max_version"] < min_version for seg in self.segments):
            self.stats["version_skips"] += 1
            return None
        for seg in self.segments:
            hit = self._find(seg, key)
            if hit is None:
                continue
            if seg["max_version"] < min_version:
                # every version here is below min_version: fail fast
                self.stats["version_skips"] += 1
                return None
            slot, _d = hit
            v = int(seg["versions"][slot])
            return v if v >= min_version else None
        return None


def versioned_update(
    index_dir: str,
    table,
    id_field: str = "doc_id",
    version_field: str = "n_chars",
    content_column: str = "text",
) -> dict:
    """Optimistic-concurrency update (TestIDVersionPostingsFormat's
    usage pattern): a row is applied only when its version EXCEEDS the
    currently indexed version for its id (equal versions are stale —
    monotone global versions); applied rows go through the
    delete-by-key + append updateDocument path as ONE generation, and the
    version check reads the generation that commit replaces (a writer
    that commits in between makes the exclusive publish raise).  Returns
    {"applied", "rejected", "manifest"}."""
    from . import manifest as mf
    from .deletes import _update

    # intra-batch dedupe FIRST: only the highest-version row per id may
    # apply (applying several would leave duplicate ids in the appended
    # segment, where the lowest-docid occurrence would win later lookups
    # and break the monotone-version invariant); ties keep the first row
    best: dict = {}
    for i in range(table.num_rows):
        idv = table.column(id_field)[i].as_py()
        newv = int(table.column(version_field)[i].as_py())
        if not (MIN_VERSION <= newv <= MAX_VERSION):
            raise ValueError(f"version {newv} out of range")
        if idv not in best or newv > best[idv][1]:
            best[idv] = (i, newv)
    out = {}

    def mutate(man, gen):
        # the latest generation here IS ``man``: if another writer has
        # published since, it took ``gen`` and this commit will raise
        pk = PKLookup(index_dir, id_field, version_field)
        keep = []
        for idv, (i, newv) in best.items():
            cur = pk.lookup(idv)
            if cur is None or cur[1] < newv:
                keep.append(i)
        keep.sort()
        out.update(applied=len(keep), rejected=table.num_rows - len(keep))
        if not keep:
            return None
        return _update(index_dir, man, gen, id_field, table.take(keep), content_column)

    man = mf.commit(index_dir, mutate)
    if out["applied"]:
        out["manifest"] = man
    return out
