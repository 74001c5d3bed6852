"""The one commit path (index/manifest.commit): an update publishes ONE
generation in which every key is live exactly once, and publishing a
generation is exclusive — a second writer of the same generation raises
instead of silently replacing the first."""

import threading

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray import store
from lucene_ray.index import manifest as mf
from lucene_ray.index.build import build_index_local
from lucene_ray.index.check import check_index
from lucene_ray.index.deletes import update_documents
from lucene_ray.index.idversion import versioned_update
from lucene_ray.search.query import StoredFieldFilter
from lucene_ray.search.searcher import IndexSearcher


def _tbl(rows):
    return pa.table(
        {
            "id": pa.array([r[0] for r in rows], pa.string()),
            "ver": pa.array([r[1] for r in rows], pa.int64()),
            "text": pa.array([r[2] for r in rows], pa.string()),
        }
    )


@pytest.fixture()
def idx(tmp_path):
    d = tmp_path / "c"
    d.mkdir()
    rows = [(f"id{i}", i, f"doc number {i} alpha beta") for i in range(20)]
    pq.write_table(_tbl(rows), str(d / "c.parquet"), row_group_size=5)
    out = str(tmp_path / "idx")
    build_index_local(
        str(d), out, docs_per_segment=5, content_column="text",
        meta_columns=("id", "ver"),
    )
    return out


def test_update_is_one_generation_with_every_key_live_once(idx):
    keys = ["id1", "id7", "id12"]
    gens = [mf.latest_generation(idx)]
    for r, batch in enumerate([keys[:2], keys, keys[1:]]):
        rows = [(k, 100 * (r + 1), f"round {r} {k} gamma") for k in batch]
        update_documents(idx, "id", _tbl(rows), content_column="text")
        gens.append(mf.latest_generation(idx))
    res = versioned_update(
        idx, _tbl([("id1", 1000, "newest one"), ("id12", 1000, "newest twelve")]),
        id_field="id", version_field="ver", content_column="text",
    )
    assert res["applied"] == 2
    gens.append(mf.latest_generation(idx))
    # each update advanced the commit point by exactly one generation
    assert gens == list(range(gens[0], gens[0] + len(gens)))
    # and no generation ever shows a key deleted-but-not-re-added (0) or
    # re-added-but-not-deleted (2)
    for g in mf.generations(idx):
        s = IndexSearcher(idx, generation=g)
        assert [s.count(StoredFieldFilter("id", k)) for k in keys] == [1, 1, 1], g
        assert check_index(idx, generation=g, use_ray=False)["ok"]


@pytest.fixture(params=["local", "file"])
def root(request, tmp_path):
    p = tmp_path / "idx"
    p.mkdir()
    return str(p) if request.param == "local" else f"file://{p}"


def test_write_manifest_refuses_an_existing_generation(root):
    mf.commit(root, lambda base, gen: {"segments": []})
    path = mf.manifest_path(root, 1)
    before = store.read_bytes(path)
    with pytest.raises(FileExistsError):
        mf.write_manifest(root, {"generation": 1, "segments": [], "forged": True})
    assert store.read_bytes(path) == before
    assert store.listdir(root) == ["manifest-000001.json"]  # no tmp left


def test_noop_mutation_publishes_nothing(root):
    base = mf.commit(root, lambda base, gen: {"segments": []})
    assert mf.commit(root, lambda base, gen: None) == base
    assert mf.generations(root) == [1]


def test_concurrent_commits_on_one_base_have_one_winner(root):
    mf.commit(root, lambda base, gen: {"segments": [], "writer": None})
    barrier = threading.Barrier(2)
    results = {}

    def writer(name):
        def mutate(base, gen):
            barrier.wait(timeout=30)  # both have read generation 1
            return {**base, "writer": name}

        try:
            results[name] = mf.commit(root, mutate)
        except FileExistsError as e:
            results[name] = e

    threads = [threading.Thread(target=writer, args=(n,)) for n in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    winners = [n for n, r in results.items() if isinstance(r, dict)]
    losers = [n for n, r in results.items() if isinstance(r, FileExistsError)]
    assert len(winners) == 1 and len(losers) == 1
    assert mf.generations(root) == [1, 2]
    assert results[winners[0]]["generation"] == 2
    assert mf.read_manifest(root)["writer"] == winners[0]
