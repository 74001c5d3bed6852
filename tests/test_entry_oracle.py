"""Driver-mimic correctness gate: every queries() entry vs its DuckDB
oracle at sf0.001 (the driver itself runs the same comparison at sf0.01;
tools/check_oracles.py runs either scale standalone)."""

from __future__ import annotations

import os
import sys

import duckdb
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_DIR = "/root/testdata/sf0.001"

import __ray_entry__ as entry_mod  # noqa: E402

from tools.check_oracles import compare, to_pandas  # noqa: E402

QUERIES = entry_mod.queries()
ORACLES = entry_mod.oracle_sql()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in ["documents", "embeddings", "events"]:
        c.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return c


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_query_matches_oracle(name, con, ray_session):
    ray_df = to_pandas(QUERIES[name](SF_DIR))
    if name not in ORACLES:
        assert len(ray_df) >= 0  # rows-only check
        return
    sql_df = con.sql(ORACLES[name]).df()
    problems = compare(name, ray_df, sql_df)
    assert not problems, problems


# families that reduce per-segment (or per-batch) partials, divide by
# collection statistics or need positions: on an empty corpus every
# partial is empty and they must still return typed columns (the other
# ft_* families' empty-corpus behaviour is ROADMAP item 5)
EMPTY_CORPUS_FAMILIES = [
    "ft_bm25_topk_variants",
    "ft_combined_field_topk",
    "ft_phrase_topk",
    "ft_proximity_matches",
    "ft_parsed_topk",
    "ft_top_terms",
    "ft_suggest_family",
    "ft_grouped_topk",
    "ft_join_topk",
    "ft_mlt_topk",
    "ft_percolate_counts",
    "ft_highlight_passages",
    "ft_point_distance",
    "ft_sort_family",
    "ft_facet_counts",
    "ft_term_stats",
    "ft_term_postings",
]


@pytest.fixture(scope="module")
def empty_sf(tmp_path_factory):
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("empty_sf")
    docs = pq.read_table(f"{SF_DIR}/documents.parquet")
    pq.write_table(docs.slice(0, 0), str(d / "documents.parquet"))
    # the embeddings and events stay: only the corpus is empty
    for t in ["embeddings", "events"]:
        os.symlink(f"{SF_DIR}/{t}.parquet", str(d / f"{t}.parquet"))
    return str(d)


@pytest.mark.parametrize("name", EMPTY_CORPUS_FAMILIES)
def test_empty_corpus_keeps_columns(name, empty_sf, con, empty_con, ray_session, monkeypatch):
    monkeypatch.setenv("LUCENE_RAY_INDEX_ROOT", os.path.join(empty_sf, "idx"))
    got = to_pandas(QUERIES[name](empty_sf))
    # zero rows, except the per-query count rows every count family keeps
    assert len(got) == len(empty_con.sql(ORACLES[name]).df())
    # the family's normal columns are its oracle's
    assert sorted(got.columns) == sorted(con.sql(ORACLES[name]).df().columns)


@pytest.fixture(scope="module")
def empty_con(empty_sf):
    c = duckdb.connect()
    c.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{empty_sf}/documents.parquet')"
    )
    for t in ["embeddings", "events"]:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')")
    return c


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_runs_on_empty_corpus(name, empty_con, con):
    # the shared collection preamble's doc_count = 0 path: every oracle
    # runs over a zero-row documents table and keeps its columns
    got = empty_con.sql(ORACLES[name]).df()
    assert list(got.columns) == con.sql(ORACLES[name]).columns


@pytest.mark.parametrize("name", list(QUERIES))
def test_empty_corpus_matches_oracle(name, empty_sf, empty_con, ray_session, monkeypatch):
    # one rule on both sides: a per-query count or stat row exists even
    # when nothing matches, and an empty result keeps its typed columns,
    # so every entry agrees with its oracle over a zero-row documents
    # table (with the embeddings and events) too
    monkeypatch.setenv("LUCENE_RAY_INDEX_ROOT", os.path.join(empty_sf, "idx"))
    got = to_pandas(QUERIES[name](empty_sf))
    problems = compare(name, got, empty_con.sql(ORACLES[name]).df())
    assert not problems, problems


def test_recall_gate_fails_an_empty_result(ray_session):
    # the approximate ANN arms return the exact top-k only behind the
    # recall gate; an arm that finds nothing must turn its row red
    import pyarrow as pa

    def nothing(sf_dir):
        return pa.table({c: pa.array([], pa.int64()) for c in ("query_id", "rnk", "neighbor_id")})

    with pytest.raises(AssertionError, match="recall@10 regression"):
        entry_mod._recall_gated("empty", nothing, entry_mod.LSH_MIN_RECALL)(SF_DIR)


def test_queries_and_oracles_share_one_table():
    # queries() and oracle_sql() are views of one (name, pipeline, oracle)
    # table: the same names in the same order
    assert list(QUERIES) == list(ORACLES)
    assert [name for name, _pipeline, _sql in entry_mod._table()] == list(QUERIES)


def test_queries_fit_driver_cap():
    # the driver checks at most the FIRST 50 queries() entries
    # (CORRECTNESS_r02 had 50 rows for 60 entries — the tail was silently
    # unverified); keep the registry at <= 50 so EVERY entry gets a row
    assert len(QUERIES) <= 50, f"{len(QUERIES)} entries exceed the 50-entry driver cap"
    assert set(ORACLES) <= set(QUERIES)


def test_every_query_has_oracle_or_is_flagged():
    missing = sorted(set(QUERIES) - set(ORACLES))
    # round 4: EVERY entry is oracle-checked — ann_hnsw_topk gained one
    # (the callable asserts HNSW recall >= 0.9 vs the in-engine exact
    # top-k, then returns the exact top-k the SQL oracle reproduces); a
    # new rows-only entry must be a CONSCIOUS decision that edits this
    assert missing == []


def test_entry_returns_stable_frame(ray_session):
    df = entry_mod.entry()
    assert list(df.columns) == ["qid", "rnk", "doc_id", "family"]
    assert len(df) > 0
