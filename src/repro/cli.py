"""Command-line interface.

``python -m repro`` (or the ``repro-query`` console script) evaluates an
XPath query of the fragment ``X`` over an XML file, optionally fragmenting
and "distributing" it first, and reports the answers together with the run
statistics the paper's guarantees are about.

Examples
--------
Evaluate centrally (no fragmentation)::

    python -m repro query catalog.xml "//book[price < 30]/title"

Fragment into ~2000-element pieces, one simulated site each, run PaX2 with
XPath-annotations and show the statistics::

    python -m repro query catalog.xml "//book[price < 30]/title" \
        --fragment-size 2000 --algorithm pax2 --annotations --stats

Inspect how a document would be fragmented::

    python -m repro fragment catalog.xml --fragment-size 2000

Generate an XMark-like document for experiments::

    python -m repro generate --bytes 200000 --sites 2 --output sites.xml

Serve a batch of queries concurrently through the service layer (queries
read one per line from a file, or from stdin with ``-``) and report cache
and latency metrics::

    python -m repro serve catalog.xml --queries queries.txt \
        --fragment-size 2000 --concurrency 32 --repeat 4

Host several named documents behind one shared scheduler (queries are
routed round-robin across documents, or pinned with a ``name::query``
prefix)::

    python -m repro serve --doc store=catalog.xml --doc bids=auctions.xml \
        --queries queries.txt --fragment-size 2000

Serve with tracing on: write every request's span tree as JSON lines, a
Chrome trace for https://ui.perfetto.dev, a slow-query log, and expose
Prometheus metrics while the workload runs::

    python -m repro serve catalog.xml --queries queries.txt \
        --chrome-trace trace.json --slow-log slow.jsonl --metrics-port 9464

Fetch the Prometheus text exposition (or ``--json`` for the full stats
document) from a running ``serve --metrics-port`` endpoint::

    python -m repro stats http://127.0.0.1:9464
"""

from __future__ import annotations

import argparse
import re
import sys
import traceback
from typing import Optional, Sequence

from repro.core.engine import ALGORITHMS, DistributedQueryEngine
from repro.core.kernel.dispatch import ENGINES, EngineUnavailableError
from repro.distributed.placement import one_site_per_fragment, round_robin_placement
from repro.fragments.fragment_tree import build_fragmentation
from repro.fragments.fragmenters import cut_by_size, cut_matching
from repro.workloads.xmark import SiteSpec, generate_sites_document
from repro.xmltree.errors import XMLSyntaxError
from repro.xmltree.parser import parse_xml_file
from repro.xmltree.serializer import serialize
from repro.xpath.centralized import evaluate_centralized
from repro.xpath.errors import XPathError
from repro.xpath.parser import parse_xpath

__all__ = ["main", "build_parser"]


def _int_at_least(minimum: int):
    """An argparse ``type`` for integers >= *minimum*; anything else exits 2
    with a usage line."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed XPath evaluation with performance guarantees (SIGMOD 2007)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser("query", help="evaluate an XPath query over an XML file")
    query.add_argument("document", help="path to the XML document")
    query.add_argument("xpath", help="query of the fragment X")
    query.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS) + ["centralized"], default="pax2",
        help="evaluation strategy (default: pax2)",
    )
    query.add_argument(
        "--fragment-size", type=int, default=None, metavar="N",
        help="fragment the document into pieces of about N elements",
    )
    query.add_argument(
        "--fragment-at", default=None, metavar="QUERY",
        help="fragment at every node selected by this (qualifier-free) query",
    )
    query.add_argument(
        "--sites", type=int, default=None, metavar="K",
        help="distribute fragments over K sites round-robin (default: one site per fragment)",
    )
    query.add_argument("--annotations", action="store_true",
                       help="enable the XPath-annotation optimization")
    query.add_argument(
        "--engine", choices=list(ENGINES), default=None,
        help="per-fragment pass implementation (default: kernel)",
    )
    query.add_argument("--stats", action="store_true", help="print run statistics")
    query.add_argument("--xml", action="store_true", help="print answers as XML snippets")
    query.add_argument("--limit", type=int, default=None, help="print at most this many answers")

    fragment = commands.add_parser("fragment", help="show how a document would be fragmented")
    fragment.add_argument("document", help="path to the XML document")
    fragment.add_argument("--fragment-size", type=int, default=None, metavar="N")
    fragment.add_argument("--fragment-at", default=None, metavar="QUERY")

    generate = commands.add_parser("generate", help="generate an XMark-like document")
    generate.add_argument("--bytes", type=int, default=100_000, dest="approx_bytes",
                          help="approximate size per site subtree (default 100000)")
    generate.add_argument("--sites", type=int, default=1, help="number of XMark site subtrees")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", default=None, help="write to this file instead of stdout")

    serve = commands.add_parser(
        "serve", help="serve a batch of queries concurrently through the service layer"
    )
    serve.add_argument("document", nargs="?", default=None,
                       help="path to the XML document (single-document mode)")
    serve.add_argument(
        "--doc", action="append", default=None, metavar="NAME=PATH", dest="docs",
        help="host a named document (repeatable; replaces the positional"
             " document and routes queries across all names)",
    )
    serve.add_argument(
        "--queries", default="-", metavar="FILE",
        help="file with one XPath query per line ('-' reads stdin; default)",
    )
    serve.add_argument("--fragment-size", type=int, default=None, metavar="N")
    serve.add_argument("--fragment-at", default=None, metavar="QUERY")
    serve.add_argument("--sites", type=int, default=None, metavar="K",
                       help="distribute fragments over K sites round-robin")
    serve.add_argument(
        "--engine", choices=[name for name, tier in ENGINES.items() if tier.columnar],
        default=None,
        help="columnar per-fragment pass every read runs on (default: kernel)",
    )
    serve.add_argument("--concurrency", type=int, default=16,
                       help="simultaneous clients issuing the batch (default 16)")
    serve.add_argument("--repeat", type=int, default=1,
                       help="issue the query list this many times (exercises the cache)")
    serve.add_argument("--site-parallelism", type=_int_at_least(1), default=4,
                       help="concurrent requests each site serves (default 4)")
    serve.add_argument("--cache-capacity", type=_int_at_least(0), default=256,
                       help="result-cache entries (0 disables caching)")
    serve.add_argument("--answers", action="store_true",
                       help="print the answer count of every request")
    serve.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                       help="serve /metrics, /stats.json and /healthz on this port"
                            " while the workload runs (0 picks a free port)")
    serve.add_argument("--linger", type=float, default=0.0, metavar="SECONDS",
                       help="keep the metrics endpoint up this long after the"
                            " workload finishes (default 0)")
    serve.add_argument("--trace", default=None, metavar="FILE",
                       help="append every request's span tree to FILE as JSON lines")
    serve.add_argument("--chrome-trace", default=None, metavar="FILE",
                       help="write a Chrome trace to FILE (open at ui.perfetto.dev)")
    serve.add_argument("--slow-log", default=None, metavar="FILE",
                       help="JSON-lines log of requests at or above --slow-threshold")
    serve.add_argument("--slow-threshold", type=float, default=0.1, metavar="SECONDS",
                       help="slow-query latency threshold in seconds (default 0.1)")

    stats = commands.add_parser(
        "stats", help="fetch metrics from a running serve --metrics-port endpoint"
    )
    stats.add_argument("url", help="endpoint base URL, e.g. http://127.0.0.1:9464")
    stats.add_argument("--json", action="store_true", dest="as_json",
                       help="fetch the /stats.json document instead of /metrics")

    lint = commands.add_parser(
        "lint",
        help="run the AST-based concurrency & invariant checkers",
        description="Static analysis over the service stack: permit leaks,"
                    " blocking calls in coroutines, unbalanced counter"
                    " staging, unlabeled sheds, and"
                    " off-taxonomy tracer spans.  Exit 0 = clean, 1 ="
                    " unsuppressed findings, 2 = analyzer crash.",
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to analyze (default: src)")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the machine-readable report (schema in README)")
    lint.add_argument("--baseline", metavar="FILE",
                      help="adopt findings recorded in FILE instead of failing on them")
    lint.add_argument("--update-baseline", metavar="FILE",
                      help="write current unsuppressed findings to FILE and exit 0")
    lint.add_argument("--list-rules", action="store_true",
                      help="print every rule's id, summary and full documentation")
    lint.add_argument("--verbose", action="store_true",
                      help="also show suppressed and baselined findings in text output")

    return parser


def _load_document(path: str):
    """Parse the XML file at *path*; a failure is one line on stderr and exit 2."""
    try:
        return parse_xml_file(path)
    except OSError as error:
        reason = error.strerror or str(error)
    except (XMLSyntaxError, UnicodeDecodeError) as error:
        reason = str(error)
    print(f"repro: {path}: {reason}", file=sys.stderr)
    raise SystemExit(2)


def _fragment_document(tree, fragment_size: Optional[int], fragment_at: Optional[str]):
    """Build the fragmentation requested on the command line."""
    if fragment_size is not None and fragment_at is not None:
        raise SystemExit("use either --fragment-size or --fragment-at, not both")
    if fragment_at is not None:
        return cut_matching(tree, fragment_at)
    if fragment_size is not None:
        return cut_by_size(tree, max_elements=fragment_size)
    return build_fragmentation(tree, [])


def _cmd_query(args: argparse.Namespace) -> int:
    tree = _load_document(args.document)

    if args.algorithm == "centralized":
        answer_ids = evaluate_centralized(tree, args.xpath).answer_ids
        _print_answers(tree, answer_ids, args)
        return 0

    fragmentation = _fragment_document(tree, args.fragment_size, args.fragment_at)
    if args.sites is not None:
        placement = round_robin_placement(fragmentation, site_count=args.sites)
    else:
        placement = one_site_per_fragment(fragmentation)
    engine = DistributedQueryEngine(
        fragmentation,
        placement=placement,
        algorithm=args.algorithm,
        use_annotations=args.annotations,
        engine=args.engine,
    )
    result = engine.execute(args.xpath)
    _print_answers(tree, result.answer_ids, args)
    if args.stats:
        print()
        print(result.summary())
    return 0


def _print_answers(tree, answer_ids, args) -> None:
    limit = args.limit if getattr(args, "limit", None) else len(answer_ids)
    print(f"{len(answer_ids)} answer(s)")
    for node_id in answer_ids[:limit]:
        node = tree.node(node_id)
        if getattr(args, "xml", False):
            from repro.xmltree.serializer import serialize_node

            sys.stdout.write(serialize_node(node, pretty=True))
        else:
            text = node.text()
            print(f"  <{node.tag}> {text}" if text else f"  <{node.tag}>")
    if limit < len(answer_ids):
        print(f"  ... and {len(answer_ids) - limit} more")


def _cmd_fragment(args: argparse.Namespace) -> int:
    tree = _load_document(args.document)
    fragmentation = _fragment_document(tree, args.fragment_size, args.fragment_at)
    fragmentation.validate()
    print(fragmentation.summary())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    specs = [SiteSpec.from_bytes(args.approx_bytes) for _ in range(args.sites)]
    tree = generate_sites_document(specs, seed=args.seed)
    document = serialize(tree, pretty=True, declaration=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"wrote {tree.size()} nodes (~{tree.approximate_bytes()} bytes) to {args.output}")
    else:
        sys.stdout.write(document)
    return 0


def _read_queries(source: str) -> list:
    """Read one query per line, skipping blanks and ``#`` comments."""
    if source == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    queries = [line.strip() for line in lines]
    return [query for query in queries if query and not query.startswith("#")]


def _parse_doc_specs(specs) -> list:
    """``NAME=PATH`` pairs from repeated ``--doc`` options."""
    documents = []
    for spec in specs:
        name, separator, path = spec.partition("=")
        if not separator or not name or not path:
            raise SystemExit(f"--doc expects NAME=PATH, got {spec!r}")
        documents.append((name, path))
    return documents


#: what a ``name::query`` pin's left side may look like (document names —
#: see repro.service.store — never contain XPath metacharacters)
_PIN_NAME = re.compile(r"^[A-Za-z0-9_.\-]+$")


def _route_queries(queries: list, documents: list) -> list:
    """Assign each query line a document: ``name::query`` pins, the rest
    round-robin across the hosted documents.

    A pin naming a document that is not hosted is an error, not a fallback —
    a typo must not silently round-robin the raw line (whose ``name::``
    prefix would parse as a label test) onto an arbitrary document.
    """
    names = [name for name, _ in documents]
    routed = []
    cursor = 0
    for query in queries:
        name, separator, rest = query.partition("::")
        if separator and _PIN_NAME.match(name):
            if name not in names:
                raise SystemExit(
                    f"query {query!r} is pinned to unknown document {name!r};"
                    f" hosted: {', '.join(names)}"
                )
            routed.append((name, rest))
        else:
            routed.append((names[cursor % len(names)], query))
            cursor += 1
    return routed


def _build_tracer(args: argparse.Namespace):
    """A :class:`~repro.obs.trace.Tracer` for ``serve``'s tracing flags.

    Returns ``None`` when no observability flag was given, so the host keeps
    the allocation-free no-op tracer.
    """
    from repro.obs import ChromeTraceExporter, JsonLinesExporter, SlowQueryLog, Tracer

    exporters = []
    if args.trace:
        exporters.append(JsonLinesExporter(args.trace))
    if args.chrome_trace:
        exporters.append(ChromeTraceExporter(args.chrome_trace))
    if args.slow_log:
        exporters.append(SlowQueryLog(args.slow_log, threshold_seconds=args.slow_threshold))
    if not exporters and args.metrics_port is None:
        return None
    return Tracer(exporters=exporters)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import ServiceHost

    queries = _read_queries(args.queries)
    if not queries:
        raise SystemExit("no queries to serve (expected one XPath query per line)")
    if args.docs and args.document:
        raise SystemExit("use either a positional document or --doc name=path, not both")
    if args.docs:
        documents = _parse_doc_specs(args.docs)
    elif args.document:
        documents = [("default", args.document)]
    else:
        raise SystemExit("no document to serve (positional path or --doc name=path)")
    routed = _route_queries(queries, documents)
    for _, query in routed:
        # a malformed line is rejected before a document is loaded, a trace
        # file opened or anything submitted
        parse_xpath(query)

    tracer = _build_tracer(args)
    try:
        host = ServiceHost(
            engine=args.engine,
            site_parallelism=args.site_parallelism,
            cache_capacity=args.cache_capacity,
            max_in_flight=max(args.concurrency, 1),
            tracer=tracer,
        )
    except (ValueError, EngineUnavailableError) as error:
        # without --engine the process default applies, and a reference
        # default (REPRO_FRAGMENT_ENGINE) cannot serve snapshot reads; nor
        # can an engine this process cannot run
        if tracer is not None:
            tracer.close()
        print(f"repro: {error}", file=sys.stderr)
        return 2
    for name, path in documents:
        tree = _load_document(path)
        fragmentation = _fragment_document(tree, args.fragment_size, args.fragment_at)
        if args.sites is not None:
            placement = round_robin_placement(
                fragmentation, site_count=args.sites, site_prefix=f"{name}/S"
            )
        else:
            placement = one_site_per_fragment(fragmentation, site_prefix=f"{name}/S")
        host.register(name, fragmentation, placement)

    batch = routed * max(args.repeat, 1)

    import asyncio

    async def serve_all():
        endpoint = None
        if args.metrics_port is not None:
            from repro.obs import MetricsServer

            endpoint = await MetricsServer(host, port=args.metrics_port).start()
            print(f"[metrics at {endpoint.url}/metrics — also /stats.json /healthz]")
        gate = asyncio.Semaphore(max(args.concurrency, 1))

        async def client(name, query):
            async with gate:
                return await host.submit(name, query)

        try:
            results = await asyncio.gather(
                *(client(name, query) for name, query in batch)
            )
            if endpoint is not None and args.linger > 0:
                print(f"[metrics endpoint lingering {args.linger:g}s — ctrl-c to stop]")
                await asyncio.sleep(args.linger)
            return results
        finally:
            if endpoint is not None:
                await endpoint.stop()

    results = asyncio.run(serve_all())
    if args.answers:
        for (name, query), result in zip(batch, results):
            print(f"{len(result):6d} answer(s)  [{name}] {query}")
    print(host.summary())
    if tracer is not None:
        tracer.close()
        print(
            f"tracing: {tracer.requests_traced} request(s) traced,"
            f" {tracer.violation_count} guarantee violation(s)"
        )
        for flag, path in (("--trace", args.trace),
                           ("--chrome-trace", args.chrome_trace),
                           ("--slow-log", args.slow_log)):
            if path:
                print(f"  {flag} written to {path}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import urllib.request

    base = args.url.rstrip("/")
    if not base.startswith(("http://", "https://")):
        base = f"http://{base}"
    route = "/stats.json" if args.as_json else "/metrics"
    with urllib.request.urlopen(base + route, timeout=10.0) as response:
        sys.stdout.write(response.read().decode("utf-8"))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """`repro lint`: exit 0 clean, 1 on findings, 2 on analyzer crash."""
    from repro import analysis

    try:
        if args.list_rules:
            for rule in analysis.all_rules():
                print(f"{rule.id}: {rule.summary}")
                doc = type(rule).doc()
                if doc:
                    print()
                    for line in doc.splitlines():
                        print(f"    {line}" if line else "")
                    print()
            return 0
        baseline = None
        if args.baseline:
            baseline = analysis.load_baseline(args.baseline)
        report = analysis.run(args.paths, baseline=baseline)
        if args.update_baseline:
            count = analysis.save_baseline(args.update_baseline, report.findings)
            print(f"baseline {args.update_baseline}: {count} entr{'y' if count == 1 else 'ies'} written")
            return 0
        if args.as_json:
            print(analysis.render_json(report))
        else:
            print(analysis.render_text(report, verbose_suppressed=args.verbose))
        return report.exit_code
    except Exception:  # noqa: BLE001 - crash (exit 2) is distinct from findings (exit 1)
        traceback.print_exc(file=sys.stderr)
        print("repro lint: analyzer crashed (exit 2)", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "fragment":
            return _cmd_fragment(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "lint":
            return _cmd_lint(args)
    except (XPathError, EngineUnavailableError) as error:
        # an XPathError carries the query and a caret under the offending
        # column; an unavailable engine says what to install or pick instead
        print(f"repro: {error}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
