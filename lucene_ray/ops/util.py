"""Shared utilities for the training-data-pipeline operators.

Every hash here is chosen for *exact* cross-engine parity with DuckDB's
SQL functions so the driver's oracle comparisons are bit-deterministic:

- ``md5_u64(s)``  == DuckDB ``md5_number_lower(s)``  (little-endian uint64
  of the LAST 8 bytes of the md5 digest; verified against duckdb 1.0.0).
- ``md5_u64_hi(s)`` == DuckDB ``md5_number_upper(s)`` (LE uint64 of the
  FIRST 8 bytes).
- token pattern ``[a-z0-9_]+`` over unicode-lowercased text
  == DuckDB ``regexp_extract_all(lower(text), '[a-z0-9_]+')``.

At 100 TB scale md5-per-shingle is still fine (hashlib releases the GIL and
runs at ~500 MB/s/core), but the batch functions below are written so a
vectorized polynomial hash could be swapped in behind the same signature.
"""

from __future__ import annotations

import hashlib
import re
import struct

import numpy as np

TOKEN_PATTERN = "[a-z0-9_]+"
_TOKEN_RE = re.compile(TOKEN_PATTERN)


def md5_u64(s: str | bytes) -> int:
    """DuckDB ``md5_number_lower`` parity: LE uint64 of digest bytes [8:16]."""
    if isinstance(s, str):
        s = s.encode("utf-8")
    return struct.unpack("<Q", hashlib.md5(s).digest()[8:16])[0]


def md5_u64_hi(s: str | bytes) -> int:
    """DuckDB ``md5_number_upper`` parity: LE uint64 of digest bytes [0:8]."""
    if isinstance(s, str):
        s = s.encode("utf-8")
    return struct.unpack("<Q", hashlib.md5(s).digest()[:8])[0]


def md5_hex(s: str | bytes) -> str:
    if isinstance(s, str):
        s = s.encode("utf-8")
    return hashlib.md5(s).hexdigest()


def tokenize(text: str) -> list[str]:
    """Lowercase + ``[a-z0-9_]+`` runs (SQL-parity tokenizer for the ops
    layer; the index path uses the full UAX#29 StandardAnalyzer)."""
    return _TOKEN_RE.findall((text or "").lower())


def word_shingles(tokens: list[str], n: int = 3) -> list[str]:
    """Distinct word n-gram shingles, joined by a single space.

    Documents shorter than ``n`` tokens contribute one shingle = the whole
    token list (so short docs still participate in MinHash); empty docs
    contribute none.  Mirrors the oracle SQL slice
    ``ts[i+1 : i+n]  for i in range(greatest(len(ts)-(n-1), 1))``.
    """
    if not tokens:
        return []
    if len(tokens) < n:
        return [" ".join(tokens)]
    out = {" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)}
    return sorted(out)


def dedupe_sorted(out: set[str]) -> list[str]:
    return sorted(out)


# MinHash permutation constants: h_i = (A[i] * base + B[i]) % MINHASH_P with
# base = md5_u64(shingle) % 2**32.  A[i] < 2**31 keeps every intermediate
# below 2**63, so the same arithmetic is exact in DuckDB BIGINT, numpy
# uint64 and Python int.
MINHASH_P = 2147483647  # 2**31 - 1 (prime)
MINHASH_BASE_MOD = 4294967296  # 2**32
MINHASH_A = [1103515245, 1299709, 15485863, 32452843, 49979687, 67867967, 86028121, 104395301]
MINHASH_B = [12345, 7919, 104729, 1299721, 15485867, 32452867, 49979693, 67867979]
NUM_MINHASH = 8
LSH_ROWS_PER_BAND = 2  # 4 bands of 2 rows


def minhash_signature(shingles: list[str]) -> np.ndarray:
    """uint64[NUM_MINHASH] signature; empty input -> all MINHASH_P."""
    if not shingles:
        return np.full(NUM_MINHASH, MINHASH_P, dtype=np.uint64)
    base = np.array([md5_u64(s) % MINHASH_BASE_MOD for s in shingles], dtype=np.uint64)
    a = np.array(MINHASH_A, dtype=np.uint64)[:, None]
    b = np.array(MINHASH_B, dtype=np.uint64)[:, None]
    return ((a * base[None, :] + b) % np.uint64(MINHASH_P)).min(axis=1)


def gather(result, schema=None):
    """A bounded Ray Dataset (a pyarrow Table passes through) as one Arrow
    table on the driver.  ``Dataset.to_pandas()`` of an all-empty result
    has no columns; Arrow blocks straight out of one map keep their
    schema, but Ray drops empty blocks after a shuffle or a chained map,
    so a reduced result names its ``schema`` for that case."""
    import pyarrow as pa
    import ray

    if isinstance(result, pa.Table):
        return result
    tables = [t for t in ray.get(result.to_arrow_refs()) if t.num_columns]
    if not tables:
        return (schema or pa.schema([])).empty_table()
    return pa.concat_tables(tables, promote_options="default")


def read_parquet(path: str, columns=None):
    """One parquet file as a Ray Dataset of ``columns`` (every column when
    None), read with the file's schema minus its metadata: the testdata
    files carry a ``pandas`` metadata blob, and blocks that carry it make
    Ray log "Failed to hash the schemas" at every shuffle."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    schema = pq.read_schema(path)
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return rd.read_parquet(
        path,
        columns=list(columns) if columns is not None else None,
        schema=schema.remove_metadata(),
    )


def strip_schema_metadata(batch):
    """Drop Arrow schema metadata (pandas round-trip blobs make schemas
    unhashable, so every Ray groupby reduce logs "Failed to hash the
    schemas" — stripping at the pipeline head silences it and lets Ray
    dedupe block schemas)."""
    if batch.schema.metadata:
        return batch.replace_schema_metadata(None)
    return batch


def rank_rows(df, by, order=(), ascending=(), k=None, rnk="rnk"):
    """``df`` (pandas) sorted by (*by, *order), with a 1-based ``rnk``
    column counting the rows of each ``by`` group in that order; only the
    first ``k`` rows of each group when ``k`` is given."""
    by, order = list(by), list(order)
    df = df.sort_values(by + order, ascending=[True] * len(by) + list(ascending))
    df[rnk] = df.groupby(by).cumcount() + 1
    return df if k is None else df[df[rnk] <= k]


def top_rows(parts, order, ascending, k=None, by=("qid",), cols=("doc_id",)):
    """Final merge of gathered partial rows (an Arrow table): per ``by``
    group, the first ``k`` rows (all rows when None) by ``order`` as
    (*by, rnk, *cols), rnk counting from 1."""
    import pyarrow as pa

    df = rank_rows(parts.to_pandas(), by, order, ascending, k)
    schema = pa.schema(
        [parts.schema.field(c) for c in by]
        + [pa.field("rnk", pa.int64())]
        + [parts.schema.field(c) for c in cols]
    )
    return pa.Table.from_pandas(df[schema.names], schema=schema, preserve_index=False)
