"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``encode FILE.xml`` — parse + binarize, print the code table;
* ``query SOURCE //a//b`` — evaluate a path query over an XML file
  and print matches; ``--explain`` prints the plan of every join step,
  ``--image`` queries a saved image, ``--remote`` a running server;
* ``stats FILE.xml`` — document and coding-space statistics;
* ``save FILE.xml IMAGE`` — encode and persist element sets to a
  disk image;
* ``bench`` — run an algorithm line-up serially over a synthetic
  Table-2 dataset and (optionally) emit a ``BENCH_*.json`` summary;
* ``serve`` — run the multi-tenant query server over a loaded corpus
  (see docs/service.md).

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
    "cmd_stats",
    "cmd_save",
    "cmd_bench",
    "cmd_update_bench",
    "cmd_serve",
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


def _write_bench(args: argparse.Namespace, name: str, rows, metrics) -> None:
    """Write a schema-checked BENCH summary to ``--bench-out``, if set."""
    from .obs.export import bench_summary, write_bench_summary

    if args.bench_out:
        write_bench_summary(bench_summary(name, rows, metrics=metrics), args.bench_out)
        print(f"# wrote {args.bench_out}", file=sys.stderr)


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


#: ``query`` modes besides the default (``xml``: run over an XML file)
_QUERY_MODES = {
    "explain": "print the plan of every join step instead of running it",
    "image": "SOURCE is a saved image (see save)",
    "remote": "SOURCE is a document on a running server (see serve)",
}

#: ``query`` option -> (type, default, the modes it applies to, help);
#: given outside its modes it is an argparse error, never ignored
_QUERY_OPTIONS = {
    "--buffer-pages": (int, 64, ("xml", "explain", "image"), "buffer pool pages"),
    "--fault-seed": (int, 0, ("xml",), "seed for the storage fault injector"),
    "--fault-read-rate": (float, 0.0, ("xml",), "transient-error odds per page read"),
    "--fault-write-rate": (float, 0.0, ("xml",), "transient-error odds per page write"),
    "--fault-torn-rate": (float, 0.0, ("xml",), "torn-page odds per page read"),
    "--host": (str, "127.0.0.1", ("remote",), "server host"),
    "--port": (int, 7723, ("remote",), "server port"),
    "--tenant": (str, "default", ("remote",), "tenant the query runs as"),
}


def _check_query_options(parser: argparse.ArgumentParser, args) -> None:
    """Reject options the chosen mode does not read; fill defaults."""
    mode = next((mode for mode in _QUERY_MODES if getattr(args, mode)), "xml")
    for flag, (_kind, default, modes, _help) in _QUERY_OPTIONS.items():
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif mode not in modes:
            parser.error(f"{flag} applies only to {'/'.join(modes)} queries")


def cmd_query(args: argparse.Namespace) -> int:
    from .obs.metrics import MetricsRegistry

    if args.image:
        return _query_image(args)
    if args.remote:
        return _query_remote(args)

    faults = _fault_injector(args)
    tracer = _make_tracer(args)
    metrics = MetricsRegistry() if args.metrics_out else None
    db = ContainmentDatabase(
        buffer_pages=args.buffer_pages,
        faults=faults,
        tracer=tracer,
        metrics=metrics,
    )
    doc = db.load_tree(_load(args.source), name=args.source)
    if args.explain:
        try:
            print(db.explain(doc, args.path))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    result = db.query(doc, args.path)
    for node in result:
        print(f"node {node.id}: <{node.tag}> code={node.code}")
    # a //t1//t2 path step is a semijoin; extended syntax joins pairs
    counted = "pairs" if db._is_extended_path(args.path) else "survivors"
    for index, report in enumerate(result.reports, 1):
        print(
            f"# step {index}: {report.algorithm}, "
            f"{report.result_count} {counted}, {report.total_pages} page I/Os",
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


def _query_image(args: argparse.Namespace) -> int:
    from .datatree.paths import PathQuery
    from .join.pipeline import PathPipeline
    from .storage.persist import load_image

    try:
        query = PathQuery(args.path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    image = load_image(args.source, buffer_pages=args.buffer_pages)
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


def _query_remote(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    with ServiceClient(args.host, args.port) as client:
        # query_all follows continuation cursors, so result sets past
        # the wire cap still print in full
        response = client.query_all(
            args.source, args.path, tenant=args.tenant
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
    from .storage.buffer import BufferManager
    from .storage.disk import DiskManager
    from .storage.elementset import ElementSet
    from .storage.persist import save_image

    tree = _load(args.file)
    height = binarize(tree).tree_height
    if args.tags:
        wanted = [tag.strip() for tag in args.tags.split(",") if tag.strip()]
    else:  # every element tag, not the @attribute / #text pseudo-tags
        wanted = sorted(t for t in tree.tag_counts() if not t.startswith(("@", "#")))
    disk = DiskManager()
    bufmgr = BufferManager(disk, 64)
    element_sets = {
        tag: ElementSet.from_tree_tag(bufmgr, tree, tag, height, name=tag)
        for tag in wanted
    }
    bufmgr.flush_all()
    save_image(disk, args.image, element_sets)
    print(
        f"saved {len(element_sets)} element sets "
        f"({disk.num_allocated} pages) to {args.image}"
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .experiments.harness import (
        REGION_ALGORITHMS,
        make_lineup,
        run_lineup,
    )
    from .obs.metrics import MetricsRegistry
    from .workloads.synthetic import generate, spec_by_name

    try:
        spec = spec_by_name(args.dataset, large=args.large, small=args.small)
    except KeyError:
        print(f"error: unknown dataset {args.dataset!r}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(
            f"error: --large {args.large} --small {args.small}: {exc}",
            file=sys.stderr,
        )
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
    _write_bench(
        args,
        f"bench-{args.dataset}",
        [(result.name, args.dataset, result.report) for result in lineup.results],
        metrics.as_dict(),
    )
    return 0


def cmd_update_bench(args: argparse.Namespace) -> int:
    from .join.base import JoinReport
    from .obs.metrics import MetricsRegistry
    from .workloads.updates import UpdateWorkloadSpec, run_update_workload

    try:
        spec = UpdateWorkloadSpec(
            nodes=args.nodes,
            updates=args.updates,
            insert_ratio=args.insert_ratio,
            hotspot=args.hotspot,
            seed=args.seed,
            buffer_pages=args.buffer_pages,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = MetricsRegistry()
    result = run_update_workload(spec, metrics=metrics)

    stats = result.stats
    print(
        f"{'inserts':>8} {'deletes':>8} {'local_rl':>9} "
        f"{'relabelled':>11} {'growths':>8} {'rl/insert':>10} "
        f"{'skipped':>8} {'log_rec':>8} {'wall_ms':>9}"
    )
    print(
        f"{stats['inserts']:>8} {stats['deletes']:>8} "
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
    report = JoinReport(
        algorithm="updates",
        result_count=result.log_records_applied,
        join_io=result.io,
        wall_seconds=result.wall_seconds,
    )
    rows = [("updates", "update-storm", report)]
    _write_bench(args, "update-bench", rows, dict(result.as_metrics()))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .datatree.builder import random_tree
    from .obs.metrics import MetricsRegistry
    from .service import ContainmentServer, QueryService, TenantQuota

    metrics = MetricsRegistry()
    db = ContainmentDatabase(buffer_pages=args.buffer_pages, metrics=metrics)
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
    qry.add_argument("source", help="an XML file, an image or a document name")
    qry.add_argument("path")
    how = qry.add_mutually_exclusive_group()
    for mode, text in _QUERY_MODES.items():
        how.add_argument(f"--{mode}", action="store_true", help=text)
    for flag, (kind, default, modes, text) in _QUERY_OPTIONS.items():
        qry.add_argument(
            flag, type=kind, help=f"{text} ({'/'.join(modes)}; default {default})"
        )
    qry.set_defaults(func=cmd_query)

    sts = sub.add_parser("stats", help="document / coding statistics")
    sts.add_argument("file")
    sts.add_argument("--limit", type=int, default=10)
    sts.set_defaults(func=cmd_stats)

    sav = sub.add_parser("save", help="persist encoded element sets")
    sav.add_argument("file")
    sav.add_argument("image")
    sav.add_argument("--tags", default="", help="comma-separated (default: all)")
    sav.set_defaults(func=cmd_save)

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
    bch.set_defaults(func=cmd_bench)

    upd = sub.add_parser(
        "update-bench",
        help="relabel cost per insert under an update storm",
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
    srv.set_defaults(func=cmd_serve)

    args = parser.parse_args(argv)
    if args.command == "query":
        _check_query_options(qry, args)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
