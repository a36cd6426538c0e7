"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``encode FILE.xml`` — parse + binarize, print the code table;
* ``query FILE.xml //a//b`` — evaluate a path query, print matches;
* ``explain FILE.xml //a//b`` — print the plan of every join step;
* ``stats FILE.xml`` — document and coding-space statistics;
* ``save FILE.xml IMAGE`` — encode and persist element sets to a
  disk image;
* ``image-query IMAGE //a//b`` — run a path query against a saved
  image (no XML parsing, pure storage-engine work);
* ``shard-build FILE.xml DIR`` — encode and persist element sets as a
  sharded corpus (per-shard disk images + shard map; docs/sharding.md);
* ``bench`` — run an algorithm line-up over a synthetic Table-2
  dataset and (optionally) emit a ``BENCH_*.json`` summary;
  ``--shards N`` runs it scatter-gather over a level-``l`` sharded
  layout instead;
* ``serve`` — run the multi-tenant query server over a loaded corpus
  (see docs/service.md);
* ``remote-query`` — send one path query to a running server.

Global observability flags (before the command): ``--trace`` prints the
span-tree cost breakdown, ``--trace-out FILE`` dumps it as JSON lines,
``--metrics-out FILE`` writes the metrics registry, e.g.
``python -m repro --trace bench --algorithms VPJ``.
"""

from __future__ import annotations

import argparse
import sys

from .core import pbitree
from .core.binarize import binarize
from .datatree.xml_parser import parse_xml
from .db import ContainmentDatabase

__all__ = [
    "main",
    "cmd_encode",
    "cmd_query",
    "cmd_explain",
    "cmd_stats",
    "cmd_save",
    "cmd_image_query",
    "cmd_shard_build",
    "cmd_bench",
    "cmd_update_bench",
    "cmd_serve",
    "cmd_remote_query",
]


def _make_tracer(args: argparse.Namespace):
    """A live Tracer when any tracing flag is set, else None."""
    if args.trace or args.trace_out:
        from .obs.tracer import Tracer

        return Tracer()
    return None


def _emit_observability(args: argparse.Namespace, tracer, metrics) -> None:
    """Print/write whatever the global observability flags asked for."""
    if tracer is not None and args.trace:
        from .obs.export import format_span_tree

        print(file=sys.stderr)
        print(format_span_tree(tracer), file=sys.stderr)
    if tracer is not None and args.trace_out:
        from .obs.export import write_trace_jsonl

        write_trace_jsonl(tracer, args.trace_out)
        print(f"# wrote trace to {args.trace_out}", file=sys.stderr)
    if metrics is not None and args.metrics_out:
        import json

        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(metrics.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"# wrote metrics to {args.metrics_out}", file=sys.stderr)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_xml(handle.read())


def cmd_encode(args: argparse.Namespace) -> int:
    tree = _load(args.file)
    encoding = binarize(tree)
    print(f"# {len(tree)} nodes, PBiTree height H = {encoding.tree_height}")
    print(f"{'node':>6} {'code':>12} {'height':>6} {'level':>6} "
          f"{'start':>12} {'end':>12}  tag")
    limit = args.limit if args.limit > 0 else len(tree)
    for node in list(tree.iter_preorder())[:limit]:
        code = tree.codes[node]
        start, end = pbitree.region_of(code)
        print(
            f"{node:>6} {code:>12} {pbitree.height_of(code):>6} "
            f"{pbitree.level_of(code, encoding.tree_height):>6} "
            f"{start:>12} {end:>12}  {tree.tags[node]}"
        )
    return 0


def _fault_injector(args: argparse.Namespace):
    """Build a FaultInjector from ``--fault-*`` flags, or None."""
    from .storage.faults import FaultConfig, FaultInjector

    if not (args.fault_read_rate or args.fault_write_rate or args.fault_torn_rate):
        return None
    return FaultInjector(
        FaultConfig(
            seed=args.fault_seed,
            read_error_rate=args.fault_read_rate,
            write_error_rate=args.fault_write_rate,
            torn_page_rate=args.fault_torn_rate,
        )
    )


def cmd_query(args: argparse.Namespace) -> int:
    from .obs.metrics import MetricsRegistry

    faults = _fault_injector(args)
    tracer = _make_tracer(args)
    metrics = MetricsRegistry() if args.metrics_out else None
    db = ContainmentDatabase(
        buffer_pages=args.buffer_pages,
        faults=faults,
        tracer=tracer,
        metrics=metrics,
    )
    doc = db.load_tree(_load(args.file), name=args.file)
    result = db.query(doc, args.path)
    for node in result:
        print(f"node {node.id}: <{node.tag}> code={node.code}")
    for index, report in enumerate(result.reports, 1):
        print(
            f"# step {index}: {report.algorithm}, "
            f"{report.result_count} pairs, {report.total_pages} page I/Os",
            file=sys.stderr,
        )
    print(f"# {len(result)} matches", file=sys.stderr)
    if faults is not None:
        io = db.io_stats
        print(
            f"# faults: seed={args.fault_seed} "
            f"injected={faults.stats.total_injected} "
            f"(read={faults.stats.read_errors} write={faults.stats.write_errors} "
            f"torn={faults.stats.torn_reads}), "
            f"retries={io.retries}, giveups={io.giveups}",
            file=sys.stderr,
        )
    _emit_observability(args, tracer, metrics)
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    db = ContainmentDatabase(buffer_pages=args.buffer_pages)
    doc = db.load_tree(_load(args.file), name=args.file)
    print(db.explain(doc, args.path))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    tree = _load(args.file)
    encoding = binarize(tree)
    print(f"nodes:            {len(tree)}")
    print(f"document height:  {tree.height()}")
    print(f"max fanout:       {tree.max_fanout()}")
    print(f"PBiTree height H: {encoding.tree_height}")
    print(f"coding space:     [1, {pbitree.max_code(encoding.tree_height)}]")
    print(f"bits per code:    {encoding.bits_per_code}")
    occupancy = len(tree) / pbitree.max_code(encoding.tree_height)
    print(f"occupancy:        {occupancy:.2e} (the rest are virtual nodes)")
    print("top tags:")
    counts = sorted(
        tree.tag_counts().items(), key=lambda item: -item[1]
    )[:args.limit]
    for tag, count in counts:
        print(f"  {tag:<24} {count}")
    return 0


def cmd_save(args: argparse.Namespace) -> int:
    from .core.binarize import binarize as _binarize
    from .storage.buffer import BufferManager
    from .storage.disk import DiskManager
    from .storage.elementset import ElementSet
    from .storage.persist import save_image

    tree = _load(args.file)
    encoding = _binarize(tree)
    disk = DiskManager()
    bufmgr = BufferManager(disk, 64)
    wanted = (
        [tag.strip() for tag in args.tags.split(",") if tag.strip()]
        if args.tags
        else sorted(
            tag for tag in tree.tag_counts()
            if not tag.startswith(("@", "#"))
        )
    )
    element_sets = {}
    for tag in wanted:
        element_sets[tag] = ElementSet.from_tree_tag(
            bufmgr, tree, tag, encoding.tree_height, name=tag
        )
    bufmgr.flush_all()
    save_image(disk, args.image, element_sets)
    print(
        f"saved {len(element_sets)} element sets "
        f"({disk.num_allocated} pages) to {args.image}"
    )
    return 0


def cmd_image_query(args: argparse.Namespace) -> int:
    from .datatree.paths import PathQuery
    from .join.pipeline import PathPipeline
    from .storage.persist import load_image

    image = load_image(args.image, buffer_pages=args.buffer_pages)
    query = PathQuery(args.path)
    try:
        steps = [image.element_sets[tag] for tag in query.steps]
    except KeyError as exc:
        print(f"error: element set {exc} not in the image "
              f"(available: {', '.join(sorted(image.element_sets))})",
              file=sys.stderr)
        return 1
    result = PathPipeline(image.bufmgr).execute(steps)
    for code in result.codes:
        print(code)
    print(
        f"# {len(result.codes)} matches, direction={result.direction}, "
        f"{result.total_io} page I/Os",
        file=sys.stderr,
    )
    return 0


def cmd_shard_build(args: argparse.Namespace) -> int:
    from .core.binarize import binarize as _binarize
    from .shard import ShardedCorpus

    tree = _load(args.file)
    encoding = _binarize(tree)
    wanted = (
        [tag.strip() for tag in args.tags.split(",") if tag.strip()]
        if args.tags
        else sorted(
            tag for tag in tree.tag_counts()
            if not tag.startswith(("@", "#"))
        )
    )
    corpus = ShardedCorpus(
        encoding.tree_height,
        args.shards,
        level=args.level,
        page_size=args.page_size,
        buffer_pages=args.buffer_pages,
    )
    for tag in wanted:
        corpus.add_set(
            tag, [tree.codes[node] for node in tree.iter_by_tag(tag)]
        )
    corpus.save(args.directory)
    print(
        f"sharded {len(wanted)} element sets over {corpus.num_shards} "
        f"shards ({corpus.num_slots} level-{corpus.map.level} slots, "
        f"H={corpus.tree_height}) into {args.directory}"
    )
    for index, store in enumerate(corpus.shards):
        print(
            f"  shard {index}: {store.disk.num_allocated} pages, "
            f"{len(corpus.map.slots_of_shard(index))} slots"
        )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .core.execconfig import current
    from .experiments.harness import (
        REGION_ALGORITHMS,
        make_lineup,
        run_lineup,
    )
    from .obs.export import bench_summary, write_bench_summary
    from .obs.metrics import MetricsRegistry
    from .workloads.synthetic import generate, spec_by_name

    try:
        spec = spec_by_name(args.dataset, large=args.large, small=args.small)
    except KeyError:
        print(f"error: unknown dataset {args.dataset!r}", file=sys.stderr)
        return 1
    data = generate(spec, seed=args.seed)
    if args.algorithms:
        algorithms = [
            name.strip() for name in args.algorithms.split(",") if name.strip()
        ]
    else:
        algorithms = make_lineup(single_height=not spec.multi_height)

    tracer = _make_tracer(args)
    metrics = MetricsRegistry()
    try:
        lineup = run_lineup(
            args.dataset,
            data.a_codes,
            data.d_codes,
            data.tree_height,
            buffer_pages=args.buffer_pages,
            algorithms=algorithms,
            tracer=tracer,
            metrics=metrics,
            workers=args.workers,
            exec=current().override(
                batch_size=args.batch_size,
                flat_index=args.flat_index,
                sanitize=args.sanitize,
            ),
            shards=args.shards,
            shard_level=args.shard_level,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    have_baseline = any(
        result.name in REGION_ALGORITHMS for result in lineup.results
    )
    print(
        f"{'algorithm':<12} {'io':>8} {'reads':>8} {'writes':>8} "
        f"{'rand':>8} {'wall_ms':>9}" + ("  speedup" if have_baseline else "")
    )
    for result in lineup.results:
        total = result.report.total_io
        line = (
            f"{result.name:<12} {total.total:>8} {total.reads:>8} "
            f"{total.writes:>8} {total.random_reads:>8} "
            f"{result.report.wall_seconds * 1000.0:>9.2f}"
        )
        if have_baseline:
            line += f"  {lineup.speedup(result.name):.2f}x"
        print(line)
    print(
        f"# dataset {args.dataset}: |A|={len(data.a_codes)} "
        f"|D|={len(data.d_codes)} H={data.tree_height} "
        f"results={lineup.result_count}",
        file=sys.stderr,
    )

    _emit_observability(args, tracer, metrics)
    if args.bench_out:
        summary = bench_summary(
            f"bench-{args.dataset}",
            [
                (result.name, args.dataset, result.report)
                for result in lineup.results
            ],
            metrics=metrics.as_dict(),
        )
        write_bench_summary(summary, args.bench_out)
        print(f"# wrote {args.bench_out}", file=sys.stderr)
    return 0


def cmd_update_bench(args: argparse.Namespace) -> int:
    from .core.codec import available_codecs, get_codec
    from .join.base import JoinReport
    from .obs.export import bench_summary, write_bench_summary
    from .obs.metrics import MetricsRegistry
    from .workloads.updates import UpdateWorkloadSpec, run_update_workload

    if args.codec == "all":
        names = available_codecs()
    else:
        names = [n.strip() for n in args.codec.split(",") if n.strip()]
    try:
        codecs = [get_codec(name) for name in names]
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1

    spec = UpdateWorkloadSpec(
        nodes=args.nodes,
        updates=args.updates,
        insert_ratio=args.insert_ratio,
        hotspot=args.hotspot,
        seed=args.seed,
        buffer_pages=args.buffer_pages,
    )
    metrics = MetricsRegistry()
    results = [
        run_update_workload(spec, codec, metrics=metrics) for codec in codecs
    ]

    print(
        f"{'codec':<18} {'inserts':>8} {'deletes':>8} {'local_rl':>9} "
        f"{'relabelled':>11} {'growths':>8} {'rl/insert':>10} "
        f"{'skipped':>8} {'log_rec':>8} {'wall_ms':>9}"
    )
    for result in results:
        stats = result.stats
        print(
            f"{result.codec:<18} {stats['inserts']:>8} {stats['deletes']:>8} "
            f"{stats['local_relabels']:>9} {stats['relabelled_nodes']:>11} "
            f"{stats['tree_growths']:>8} {result.relabelled_per_insert:>10.3f} "
            f"{result.skipped_inserts:>8} {result.log_records_applied:>8} "
            f"{result.wall_seconds * 1000.0:>9.2f}"
        )
    print(
        f"# update storm: {spec.nodes} initial nodes, {spec.updates} ops, "
        f"insert ratio {spec.insert_ratio}, hotspot {spec.hotspot}, "
        f"seed {spec.seed}",
        file=sys.stderr,
    )

    _emit_observability(args, None, metrics)
    if args.bench_out:
        bench_metrics: dict[str, object] = {}
        for result in results:
            bench_metrics.update(result.as_metrics())
        summary = bench_summary(
            "update-bench",
            [
                (
                    f"updates:{result.codec}",
                    "update-storm",
                    JoinReport(
                        algorithm=f"updates:{result.codec}",
                        result_count=result.log_records_applied,
                        join_io=result.io,
                        wall_seconds=result.wall_seconds,
                    ),
                )
                for result in results
            ],
            metrics=bench_metrics,
        )
        write_bench_summary(summary, args.bench_out)
        print(f"# wrote {args.bench_out}", file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .datatree.builder import random_tree
    from .obs.metrics import MetricsRegistry
    from .service import ContainmentServer, QueryService, TenantQuota

    metrics = MetricsRegistry()
    db = ContainmentDatabase(
        buffer_pages=args.buffer_pages,
        metrics=metrics,
        shards=args.shards,
        shard_level=args.shard_level,
    )
    if args.file:
        db.load_tree(_load(args.file), name=args.name)
    else:
        db.load_tree(
            random_tree(args.random, max_fanout=5, seed=args.seed),
            name=args.name,
        )
    quota = None
    if args.tenant_max_in_flight:
        quota = TenantQuota(max_in_flight=args.tenant_max_in_flight)
    service = QueryService(
        db,
        max_in_flight=args.max_in_flight,
        session_pages=args.session_pages,
        default_quota=quota,
        plan_cache_size=args.plan_cache,
    )
    server = ContainmentServer(service, host=args.host, port=args.port)

    async def run() -> None:
        await server.start()
        print(
            f"# serving {args.name!r} on {server.host}:{server.port} "
            f"(max_in_flight={args.max_in_flight}, "
            f"session_pages={service.session_pages})",
            file=sys.stderr,
        )
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("# server stopped", file=sys.stderr)
    return 0


def cmd_remote_query(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    with ServiceClient(args.host, args.port) as client:
        # query_all follows continuation cursors, so result sets past
        # the wire cap still print in full
        response = client.query_all(
            args.document, args.path, tenant=args.tenant
        )
    status = response.get("status")
    if status == "ok":
        for code in response.get("codes", []):
            print(code)
        print(
            f"# {response.get('count')} matches, "
            f"direction={response.get('direction')}, "
            f"cache_hit={response.get('cache_hit')}, "
            f"planning_io={response.get('planning_io')}",
            file=sys.stderr,
        )
        return 0
    if status == "rejected":
        print(
            f"# rejected ({response.get('code')}): {response.get('error')} "
            f"— retry after {response.get('retry_after')}s",
            file=sys.stderr,
        )
        return 2
    print(f"# error: {response.get('error')}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PBiTree containment-join toolkit (ICDE 2003 reproduction)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="collect a span tree and print the per-phase cost table",
    )
    parser.add_argument(
        "--trace-out", default="",
        help="write the span tree as JSON lines to this file",
    )
    parser.add_argument(
        "--metrics-out", default="",
        help="write the metrics registry as JSON to this file",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="print the PBiTree code table")
    enc.add_argument("file")
    enc.add_argument("--limit", type=int, default=50)
    enc.set_defaults(func=cmd_encode)

    qry = sub.add_parser("query", help="run a //a//b path query")
    qry.add_argument("file")
    qry.add_argument("path")
    qry.add_argument("--buffer-pages", type=int, default=64)
    qry.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the storage fault injector",
    )
    qry.add_argument(
        "--fault-read-rate", type=float, default=0.0,
        help="probability of a transient error per page read",
    )
    qry.add_argument(
        "--fault-write-rate", type=float, default=0.0,
        help="probability of a transient error per page write",
    )
    qry.add_argument(
        "--fault-torn-rate", type=float, default=0.0,
        help="probability of a torn (checksum-failing) page read",
    )
    qry.set_defaults(func=cmd_query)

    exp = sub.add_parser("explain", help="show the plan of every join step")
    exp.add_argument("file")
    exp.add_argument("path")
    exp.add_argument("--buffer-pages", type=int, default=64)
    exp.set_defaults(func=cmd_explain)

    sts = sub.add_parser("stats", help="document / coding statistics")
    sts.add_argument("file")
    sts.add_argument("--limit", type=int, default=10)
    sts.set_defaults(func=cmd_stats)

    sav = sub.add_parser("save", help="persist encoded element sets")
    sav.add_argument("file")
    sav.add_argument("image")
    sav.add_argument("--tags", default="", help="comma-separated (default: all)")
    sav.set_defaults(func=cmd_save)

    imq = sub.add_parser("image-query", help="query a saved image")
    imq.add_argument("image")
    imq.add_argument("path")
    imq.add_argument("--buffer-pages", type=int, default=64)
    imq.set_defaults(func=cmd_image_query)

    shb = sub.add_parser(
        "shard-build",
        help="persist element sets as a sharded corpus directory",
    )
    shb.add_argument("file")
    shb.add_argument("directory")
    shb.add_argument(
        "--shards", type=int, default=2, help="number of shards (>= 1)"
    )
    shb.add_argument(
        "--level", type=int, default=None,
        help="VPJ partitioning level l (default: auto from height/shards)",
    )
    shb.add_argument("--page-size", type=int, default=1024)
    shb.add_argument("--buffer-pages", type=int, default=64)
    shb.add_argument(
        "--tags", default="", help="comma-separated (default: all)"
    )
    shb.set_defaults(func=cmd_shard_build)

    bch = sub.add_parser(
        "bench", help="run an algorithm line-up over a synthetic dataset"
    )
    bch.add_argument(
        "--dataset", default="MSSL",
        help="Table-2 dataset shorthand (e.g. SLSL, SSSL, MSSL)",
    )
    bch.add_argument(
        "--large", type=int, default=5_000,
        help="element count of a 'large' set (paper: 50000)",
    )
    bch.add_argument(
        "--small", type=int, default=500,
        help="element count of a 'small' set",
    )
    bch.add_argument("--buffer-pages", type=int, default=50)
    bch.add_argument("--seed", type=int, default=0)
    bch.add_argument(
        "--algorithms", default="",
        help="comma-separated algorithm names (default: the Figure-6 line-up)",
    )
    bch.add_argument(
        "--bench-out", default="",
        help="write a schema-checked BENCH_*.json summary to this file",
    )
    bch.add_argument(
        "--workers", type=int, default=1,
        help="worker processes: one cold join per algorithm (or per "
        "slot with --shards) on each; default 1 = serial",
    )
    bch.add_argument(
        "--batch-size", type=int, default=None,
        help="execution batch size for the vectorized hot path "
        "(0 = scalar oracle; default: REPRO_BATCH_SIZE or 1024)",
    )
    bch.add_argument(
        "--flat-index", action="store_true", default=None,
        help="probe flat-array static indexes instead of the pointer "
        "oracle (default: REPRO_FLAT_INDEX or off)",
    )
    bch.add_argument(
        "--sanitize", action="store_true", default=None,
        help="run under the view-lifetime sanitizer: borrowed page "
        "views are tracked and use-after-unpin raises "
        "(default: REPRO_SANITIZE or off)",
    )
    bch.add_argument(
        "--shards", type=int, default=0,
        help="run the line-up scatter-gather over a level-l sharded "
        "layout (0 = unsharded; merged reports are shard-count-"
        "invariant, see docs/sharding.md)",
    )
    bch.add_argument(
        "--shard-level", type=int, default=None,
        help="VPJ partitioning level l for --shards (default: auto)",
    )
    bch.set_defaults(func=cmd_bench)

    upd = sub.add_parser(
        "update-bench",
        help="relabel cost per insert across containment codecs",
    )
    upd.add_argument(
        "--updates", type=int, default=1_000,
        help="update operations in the storm",
    )
    upd.add_argument(
        "--nodes", type=int, default=400,
        help="initial document size (nodes)",
    )
    upd.add_argument(
        "--codec", default="all",
        help="comma-separated codec names, or 'all' (default)",
    )
    upd.add_argument(
        "--insert-ratio", type=float, default=0.7,
        help="fraction of operations that insert (rest delete)",
    )
    upd.add_argument(
        "--hotspot", type=float, default=0.5,
        help="fraction of inserts aimed at the rotating hot parent",
    )
    upd.add_argument("--buffer-pages", type=int, default=64)
    upd.add_argument("--seed", type=int, default=0)
    upd.add_argument(
        "--bench-out", default="",
        help="write a schema-checked BENCH_updates.json to this file",
    )
    upd.set_defaults(func=cmd_update_bench)

    srv = sub.add_parser(
        "serve", help="run the multi-tenant query server over a corpus"
    )
    srv.add_argument(
        "--file", default="", help="XML corpus file (default: synthetic)"
    )
    srv.add_argument(
        "--random", type=int, default=2_000,
        help="synthetic corpus size in nodes when no --file is given",
    )
    srv.add_argument("--seed", type=int, default=23)
    srv.add_argument("--name", default="corpus", help="document name")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7723)
    srv.add_argument("--buffer-pages", type=int, default=64)
    srv.add_argument(
        "--max-in-flight", type=int, default=4,
        help="global concurrent-join ceiling (bounds frame memory)",
    )
    srv.add_argument(
        "--session-pages", type=int, default=None,
        help="buffer pages per session pool (default: --buffer-pages)",
    )
    srv.add_argument(
        "--tenant-max-in-flight", type=int, default=0,
        help="per-tenant concurrency quota (0 = unlimited)",
    )
    srv.add_argument(
        "--plan-cache", type=int, default=128,
        help="plan cache capacity (0 disables)",
    )
    srv.add_argument(
        "--shards", type=int, default=0,
        help="serve queries scatter-gather over a sharded layout "
        "(0 = session pipelines)",
    )
    srv.add_argument(
        "--shard-level", type=int, default=None,
        help="VPJ partitioning level l for --shards (default: auto)",
    )
    srv.set_defaults(func=cmd_serve)

    rmq = sub.add_parser(
        "remote-query", help="send one path query to a running server"
    )
    rmq.add_argument("document")
    rmq.add_argument("path")
    rmq.add_argument("--host", default="127.0.0.1")
    rmq.add_argument("--port", type=int, default=7723)
    rmq.add_argument("--tenant", default="default")
    rmq.set_defaults(func=cmd_remote_query)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
