"""Driver-mimic: run every queries() entry and compare against oracle_sql()
via DuckDB (row-count + schema-width + order-insensitive value equality).

Usage: python tools/check_oracles.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys

import duckdb
import pandas as pd


def to_pandas(result) -> pd.DataFrame:
    from lucene_ray.ops.util import gather

    if isinstance(result, pd.DataFrame):
        return result
    return gather(result).to_pandas()  # a Table, or a ray Dataset


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(f"columns differ: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}")
        return problems
    if len(ray_df) != len(sql_df):
        problems.append(f"row count differs: ray={len(ray_df)} sql={len(sql_df)}")
    a, b = normalize(ray_df), normalize(sql_df)
    if len(a) == len(b):
        for c in a.columns:
            av, bv = a[c].to_numpy(), b[c].to_numpy()
            neq = av != bv
            if neq.any():
                i = int(neq.argmax())
                problems.append(
                    f"column {c}: {int(neq.sum())} mismatches, first at row {i}: "
                    f"ray={av[i]!r} sql={bv[i]!r}"
                )
    return problems


def run(sf_dir: str, only: list[str] | None = None) -> int:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in [
        "region", "nation", "customer", "supplier", "part", "orders",
        "lineitem", "events", "documents", "embeddings",
    ]:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    qs = e.queries()
    oracles = e.oracle_sql()
    failures = 0
    total = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        total += 1
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as ex:
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            failures += 1
            continue
        if name not in oracles:
            print(f"ok   {name}: rows={len(ray_df)} (rows-only, no oracle)")
            continue
        try:
            sql_df = con.sql(oracles[name]).df()
        except Exception as ex:
            print(f"FAIL {name}: oracle raised {type(ex).__name__}: {ex}")
            failures += 1
            continue
        problems = compare(name, ray_df, sql_df)
        if problems:
            failures += 1
            print(f"FAIL {name}: " + "; ".join(problems))
        else:
            print(f"ok   {name}: rows={len(ray_df)} match")
    print(f"{total - failures} ok, {failures} failed of {total}")
    return failures


if __name__ == "__main__":
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = sys.argv[2:] or None
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    try:
        rc = run(sf_dir, only)
    finally:
        ray.shutdown()
    sys.exit(1 if rc else 0)
