"""CLI verbs for the round-3 index utilities (sync, split)."""

from __future__ import annotations

import json
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

from lucene_ray.corpus import generate_corpus
from lucene_ray.index.build import build_index_local


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliv")
    d = root / "c"
    d.mkdir()
    pq.write_table(generate_corpus(120, seed=13), str(d / "c.parquet"))
    out = str(root / "idx")
    build_index_local(str(d), out, docs_per_segment=40)
    return out


def test_cli_sync(idx, tmp_path, capsys):
    from lucene_ray.cli import main

    dst = str(tmp_path / "replica")
    assert main(["sync", "--src", idx, "--dst", dst]) == 0
    stats = json.loads(capsys.readouterr().out.strip())
    assert stats["copied"] > 0 and stats["skipped"] == 0
    assert main(["sync", "--src", idx, "--dst", dst]) == 0
    stats2 = json.loads(capsys.readouterr().out.strip())
    assert stats2["copied"] == 0 and stats2["skipped"] == stats["copied"]


def test_cli_split_subprocess(idx, tmp_path):
    outs = [str(tmp_path / f"p{i}") for i in range(2)]
    r = subprocess.run(
        [sys.executable, "-m", "lucene_ray.cli", "split", "--index", idx,
         "--out", ",".join(outs)],
        capture_output=True, text=True, timeout=300,
        env={**__import__("os").environ, "RAY_GRAFT_CPUS": "4"},
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert sum(p["docs"] for p in out["parts"]) == 120


def test_cli_addindexes(idx, tmp_path, capsys, ray_session):
    import shutil

    from lucene_ray.cli import main

    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    shutil.copytree(idx, a)
    shutil.copytree(idx, b)
    assert main(["addindexes", "--dest", a, "--src", b]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["max_doc"] == 240 and out["segments"] >= 2


def test_cli_sortmerge_and_dvupdate(tmp_path, capsys, ray_session):
    import os

    import pyarrow.parquet as pq2

    from lucene_ray.cli import main
    from lucene_ray.index.build import build_index
    from lucene_ray.pipelines import fulltext as ft

    src = str(tmp_path / "docs.parquet")
    pq2.write_table(
        pq2.read_table("/root/testdata/sf0.001/documents.parquet"),
        src, row_group_size=150,
    )
    a = str(tmp_path / "sorted")
    build_index(
        src, a, content_column="text",
        meta_columns=("doc_id", "lang", "source", "n_chars"),
        docs_per_segment=150, index_sort=ft.INDEX_SORT,
    )
    assert main(["sortmerge", "--index", a]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["segments"] == 1 and out["max_doc"] == 500
    assert main(
        ["dvupdate", "--index", a, "--term", "spark", "--field", "doc_id",
         "--value", "999999"]
    ) == 0
    out2 = json.loads(capsys.readouterr().out.strip())
    assert out2["generation"] == out["generation"] + 1


def test_cli_bpmerge(tmp_path, capsys, ray_session):
    import pyarrow.parquet as pq2

    from lucene_ray.cli import main
    from lucene_ray.index.build import build_index

    src = str(tmp_path / "docs.parquet")
    pq2.write_table(
        pq2.read_table("/root/testdata/sf0.001/documents.parquet"),
        src, row_group_size=150,
    )
    a = str(tmp_path / "plain")
    build_index(
        src, a, content_column="text",
        meta_columns=("doc_id", "lang", "source", "n_chars"),
        docs_per_segment=150,
    )
    assert main(["bpmerge", "--index", a, "--min-doc-freq", "2"]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["segments"] == 1 and out["max_doc"] == 500
    from lucene_ray.index.check import check_index

    check_index(a)


def test_cli_terminfo(idx, capsys):
    from lucene_ray.cli import main
    from lucene_ray.search.query import TermQuery
    from lucene_ray.search.searcher import IndexSearcher

    assert main(["terminfo", "--index", idx, "--term", "package"]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["doc_freq"] == IndexSearcher(idx).count(TermQuery("package")) > 0
    assert out["total_term_freq"] >= out["doc_freq"]
    # absent term: zeros, not an error
    assert main(["terminfo", "--index", idx, "--term", "zzzznothere"]) == 0
    out = json.loads(capsys.readouterr().out.strip())
    assert out["doc_freq"] == 0 and out["total_term_freq"] == 0
