"""CLI entry points (reference demo/IndexFiles.java:130-148, SearchFiles.java).

    python -m lucene_ray.cli build  --corpus DIR [--index DIR]
                                    [--docs-per-segment N] [--analyzer standard]
    python -m lucene_ray.cli search --index DIR --query "t1 t2 ..." [-k 10]
                                    [--op should|must] [--workers N]
    python -m lucene_ray.cli merge  --index DIR [--max-segments 1]
    python -m lucene_ray.cli stats  --index DIR

These own a Ray session (ray.init/shutdown); library code never does.
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
    return ray


def cmd_build(args) -> int:
    ray = _init_ray()
    from .index.build import build_index

    manifest = build_index(
        args.corpus,
        args.index,
        analyzer=args.analyzer,
        docs_per_segment=args.docs_per_segment,
        content_column=args.content_column,
        resume=not args.no_resume,
        index_options=args.index_options,
    )
    n_docs = sum(s["max_doc"] for s in manifest["segments"])
    print(
        json.dumps(
            {
                "generation": manifest["generation"],
                "segments": len(manifest["segments"]),
                "docs": n_docs,
                "built_sec": manifest["built_sec"],
                "skipped_segments": len(manifest.get("skipped_segments", [])),
            }
        )
    )
    ray.shutdown()
    return 0


def cmd_search(args) -> int:
    ray = _init_ray()
    from .analysis.analyzers import make_analyzer
    from .search.query import TermQuery, bool_query
    from .search.searcher import DistributedSearcher, IndexSearcher

    analyzer = make_analyzer(args.analyzer)
    terms = [analyzer.normalize(t) for t in args.query.split()]
    if args.parse:
        from .search.parser import parse_query

        q = parse_query(args.query, analyzer)
        if q is None:
            print("empty query", file=sys.stderr)
            return 2
    elif args.phrase:
        from .search.query import PhraseQuery

        q = PhraseQuery(tuple(terms))
    elif len(terms) == 1:
        q = TermQuery(terms[0])
    elif args.op == "must":
        q = bool_query(must=[TermQuery(t) for t in terms])
    else:
        q = bool_query(should=[TermQuery(t) for t in terms])
    if args.workers > 0:
        searcher = DistributedSearcher(args.index, num_workers=args.workers)
    else:
        searcher = IndexSearcher(args.index)
    hits = searcher.search(q, args.k)
    for rank, (doc, score) in enumerate(hits, start=1):
        print(f"{rank}\t{doc}\t{float(score):.6f}")
    ray.shutdown()
    return 0


def cmd_merge(args) -> int:
    ray = _init_ray()
    from .index.merge import force_merge, maybe_merge

    if args.max_segments:
        man = force_merge(args.index, max_segments=args.max_segments)
    else:
        man = maybe_merge(args.index)
    print(
        json.dumps(
            {"generation": man["generation"], "segments": len(man["segments"])}
        )
    )
    ray.shutdown()
    return 0


def cmd_check(args) -> int:
    ray = _init_ray()
    from .index.check import check_index

    report = check_index(args.index, raise_on_error=False)
    print(json.dumps(report))
    ray.shutdown()
    return 0 if report["ok"] else 1


def cmd_sync(args) -> int:
    from .index.replicate import sync

    stats = sync(args.src, args.dst)
    print(json.dumps(stats))
    return 0


def cmd_addindexes(args) -> int:
    _init_ray()
    from .index.addindexes import add_indexes

    man = add_indexes(args.dest, [x for x in args.src.split(",") if x])
    print(
        json.dumps(
            {
                "generation": man["generation"],
                "segments": len(man["segments"]),
                "max_doc": sum(int(s["max_doc"]) for s in man["segments"]),
            }
        )
    )
    return 0


def cmd_bpmerge(args) -> int:
    _init_ray()
    from .index.bp import bp_reorder_merge

    man = bp_reorder_merge(
        args.index,
        min_doc_freq=args.min_doc_freq,
        max_doc_freq=args.max_doc_freq,
        max_iters=args.max_iters,
    )
    print(
        json.dumps(
            {
                "generation": man["generation"],
                "segments": len(man["segments"]),
                "max_doc": sum(int(s["max_doc"]) for s in man["segments"]),
            }
        )
    )
    return 0


def cmd_sortmerge(args) -> int:
    _init_ray()
    from .index.merge import force_merge_sorted

    man = force_merge_sorted(args.index)
    print(
        json.dumps(
            {
                "generation": man["generation"],
                "segments": len(man["segments"]),
                "max_doc": sum(int(s["max_doc"]) for s in man["segments"]),
            }
        )
    )
    return 0


def cmd_dvupdate(args) -> int:
    _init_ray()
    from .index.deletes import update_numeric_docvalue
    from .search.query import TermQuery

    man = update_numeric_docvalue(
        args.index, TermQuery(args.term), args.field, args.value
    )
    print(json.dumps({"generation": man["generation"]}))
    return 0


def cmd_split(args) -> int:
    ray = _init_ray()
    from .index.split import split_index

    outs = [p for p in args.out.split(",") if p]
    mans = split_index(args.index, outs, mode=args.mode, compact=not args.no_compact)
    print(
        json.dumps(
            {
                "parts": [
                    {"dir": o, "docs": sum(int(s["max_doc"]) for s in m["segments"])}
                    for o, m in zip(outs, mans)
                ]
            }
        )
    )
    ray.shutdown()
    return 0


def cmd_ingest(args) -> int:
    ray = _init_ray()
    from .sources.ingest import ingest

    cmap = None
    if args.map:
        cmap = dict(kv.split("=", 1) for kv in args.map.split(","))
    out = ingest(args.src, args.out, fmt=args.format, column_map=cmap)
    print(json.dumps(out))
    ray.shutdown()
    return 0


def cmd_stats(args) -> int:
    from .index.manifest import collection_stats_from, read_manifest

    man = read_manifest(args.index)
    out = collection_stats_from(man)
    out["segments"] = len(man["segments"])
    out["generation"] = man["generation"]
    print(json.dumps(out))
    return 0


def cmd_terminfo(args) -> int:
    """GetTermInfo analogue (reference misc/GetTermInfo.java): docFreq +
    totalTermFreq of one term, summed across segments."""
    from .index.manifest import read_manifest
    from .index.segment import SegmentReader

    man = read_manifest(args.index)
    df = ttf = 0
    for seg in man["segments"]:
        d, t = SegmentReader(seg["dir"]).term_stats(args.term)
        df += int(d)
        ttf += int(t)
    print(json.dumps({"term": args.term, "doc_freq": df, "total_term_freq": ttf}))
    return 0


def cmd_delete(args) -> int:
    from .analysis.analyzers import make_analyzer
    from .index.deletes import delete_by_key, delete_by_query, live_doc_count
    from .search.parser import parse_query

    if args.field:
        man = delete_by_key(args.index, args.field, args.values.split(","))
    else:
        q = parse_query(args.query, make_analyzer(args.analyzer))
        if q is None:
            print(json.dumps({"error": "empty query"}))
            return 1
        man = delete_by_query(args.index, q)
    print(
        json.dumps(
            {
                "generation": man["generation"],
                "live_docs": live_doc_count(man),
                "deleted": sum(int(s.get("del_count", 0)) for s in man["segments"]),
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="lucene_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("--corpus", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--docs-per-segment", type=int, default=65536)
    b.add_argument("--analyzer", default="standard")
    b.add_argument("--content-column", default="content")
    b.add_argument("--no-resume", action="store_true")
    b.add_argument("--index-options", default="docs_freqs",
                   choices=["docs_freqs", "positions", "offsets"])
    b.set_defaults(fn=cmd_build)

    s = sub.add_parser("search")
    s.add_argument("--index", required=True)
    s.add_argument("--query", required=True)
    s.add_argument("-k", type=int, default=10)
    s.add_argument("--op", default="should", choices=["should", "must"])
    s.add_argument("--phrase", action="store_true",
                   help="exact phrase (requires an index built with positions)")
    s.add_argument("--parse", action="store_true",
                   help='query syntax: +must -not "phrase" pre* w?ld fuzzy~1 /rege.x/ [a TO b]')
    s.add_argument("--workers", type=int, default=0)
    s.add_argument("--analyzer", default="standard")
    s.set_defaults(fn=cmd_search)

    m = sub.add_parser("merge")
    m.add_argument("--index", required=True)
    m.add_argument("--max-segments", type=int, default=0)
    m.set_defaults(fn=cmd_merge)

    st = sub.add_parser("stats")
    st.add_argument("--index", required=True)
    st.set_defaults(fn=cmd_stats)

    ck = sub.add_parser("check")
    ck.add_argument("--index", required=True)
    ck.set_defaults(fn=cmd_check)

    ti = sub.add_parser("terminfo", help="docFreq/totalTermFreq of one term")
    ti.add_argument("--index", required=True)
    ti.add_argument("--term", required=True)
    ti.set_defaults(fn=cmd_terminfo)

    dl = sub.add_parser("delete", help="live-docs delete by query or stored-field key")
    dl.add_argument("--index", required=True)
    dl.add_argument("--query", default=None, help="query-string syntax (see search --parse)")
    dl.add_argument("--field", default=None, help="stored field for delete-by-key")
    dl.add_argument("--values", default="", help="comma-separated key values")
    dl.add_argument("--analyzer", default="standard")
    dl.set_defaults(fn=cmd_delete)

    sy = sub.add_parser("sync", help="incremental replica sync (replicator analogue)")
    sy.add_argument("--src", required=True)
    sy.add_argument("--dst", required=True)
    sy.set_defaults(fn=cmd_sync)

    sp = sub.add_parser("split", help="partition an index into N standalone parts")
    sp.add_argument("--index", required=True)
    sp.add_argument("--out", required=True, help="comma-separated output dirs")
    sp.add_argument("--mode", default="round_robin", choices=["round_robin", "seq"])
    sp.add_argument("--no-compact", action="store_true")
    sp.set_defaults(fn=cmd_split)

    ig = sub.add_parser("ingest")
    ig.add_argument("--src", required=True)
    ig.add_argument("--out", required=True)
    ig.add_argument("--format", default=None, choices=[None, "jsonl", "csv", "parquet"])
    ig.add_argument("--map", default=None, help="src=dst[,src=dst...] column renames")
    ig.set_defaults(fn=cmd_ingest)

    ai = sub.add_parser("addindexes", help="import another index's segments (IndexWriter.addIndexes)")
    ai.add_argument("--dest", required=True)
    ai.add_argument("--src", required=True, help="comma-separated source index dirs")
    ai.set_defaults(fn=cmd_addindexes)

    sm = sub.add_parser("sortmerge", help="force-merge an index-sorted index (Sorter contract)")
    sm.add_argument("--index", required=True)
    sm.set_defaults(fn=cmd_sortmerge)

    bpm = sub.add_parser(
        "bpmerge",
        help="force-merge with BP doc reordering (BPIndexReorderer, recursive graph bisection)",
    )
    bpm.add_argument("--index", required=True)
    bpm.add_argument("--min-doc-freq", dest="min_doc_freq", type=int, default=1)
    bpm.add_argument("--max-doc-freq", dest="max_doc_freq", type=float, default=1.0)
    bpm.add_argument("--max-iters", dest="max_iters", type=int, default=20)
    bpm.set_defaults(fn=cmd_bpmerge)

    dv = sub.add_parser("dvupdate", help="numeric doc-values update by term (updateNumericDocValue)")
    dv.add_argument("--index", required=True)
    dv.add_argument("--term", required=True)
    dv.add_argument("--field", required=True)
    dv.add_argument("--value", required=True, type=int)
    dv.set_defaults(fn=cmd_dvupdate)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
