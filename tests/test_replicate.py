"""Replica sync (replicator/nrt analogue): incremental copy, commit-last,
unreferenced-file deletion, bit-identical search results."""

from __future__ import annotations

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_ray.corpus import generate_corpus
from lucene_ray.index.build import build_index_local
from lucene_ray.index.deletes import delete_by_query
from lucene_ray.index.merge import force_merge
from lucene_ray.index.replicate import revision, sync
from lucene_ray.search.query import TermQuery, bool_query
from lucene_ray.search.searcher import IndexSearcher


@pytest.fixture(scope="module")
def primary(tmp_path_factory):
    root = tmp_path_factory.mktemp("repl")
    d = root / "corpus"
    d.mkdir()
    pq.write_table(generate_corpus(400, seed=5), str(d / "c.parquet"), row_group_size=50)
    out = str(root / "primary")
    build_index_local(str(d), out, docs_per_segment=80)
    return out


def _hits(idx):
    s = IndexSearcher(idx)
    out = []
    for q in (TermQuery("package"), bool_query(should=[TermQuery("def"), TermQuery("import")])):
        out.append([(d, np.float32(s_)) for d, s_ in s.search(q, 20)])
    return out


def test_initial_sync_is_full_and_identical(primary, tmp_path):
    replica = str(tmp_path / "replica")
    stats = sync(primary, replica)
    assert stats["copied"] == len(revision(primary)["files"]) - 1  # manifest separate
    assert stats["skipped"] == 0
    assert _hits(replica) == _hits(primary)


def test_resync_after_delete_ships_only_livedocs(primary, tmp_path):
    replica = str(tmp_path / "replica2")
    sync(primary, replica)
    delete_by_query(primary, TermQuery("package"))
    stats = sync(primary, replica)
    # segment payloads unchanged: only livedocs files (one per touched
    # segment) cross; every prior file is skipped bit-identically
    assert stats["copied"] >= 1
    assert stats["skipped"] > 0
    rev = revision(primary)
    n_livedocs = sum(1 for rel in rev["files"] if "livedocs" in rel)
    assert stats["copied"] == n_livedocs
    assert _hits(replica) == _hits(primary)


def test_resync_after_merge_ships_merged_and_deletes_old(primary, tmp_path):
    replica = str(tmp_path / "replica3")
    sync(primary, replica)
    force_merge(primary, max_segments=1)
    from lucene_ray.index.deletion_policy import prune_generations
    from lucene_ray.index.merge import gc_unreferenced

    prune_generations(primary, keep_last=1)
    gc_unreferenced(primary)
    stats = sync(primary, replica)
    assert stats["copied"] > 0       # the merged segment
    assert stats["deleted"] > 0      # the old segment files
    assert _hits(replica) == _hits(primary)
    # replica holds EXACTLY the revision file set + manifest
    rev = revision(primary)
    on_disk = set()
    for root, _d, names in os.walk(replica):
        for n in names:
            on_disk.add(os.path.relpath(os.path.join(root, n), replica))
    assert on_disk == set(rev["files"])
