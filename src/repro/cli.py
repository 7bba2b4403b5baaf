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

Benchmark the shared multi-document host against N isolated single-document
engines and emit ``BENCH_tenancy.json``::

    python -m repro bench-tenancy --docs 8 --ops 64 --write-ratio 0.05

Benchmark the service layer against the sequential engine loop and emit
``BENCH_service.json``::

    python -m repro bench-service --requests 128 --clients 1 8 64

Benchmark the columnar per-fragment kernels against the object-tree
reference passes and emit ``BENCH_core.json``::

    python -m repro bench-core --bytes 150000 --repeats 3

Benchmark the fused multi-query scan against query-at-a-time kernel passes
and emit ``BENCH_batch.json`` (shares the ``--bytes/--seed/--repeats`` knob
set with ``bench-core``)::

    python -m repro bench-batch --batch-sizes 1 4 16 64

Benchmark incremental maintenance under a mixed read/write stream against
the rebuild-everything baseline and emit ``BENCH_update.json``::

    python -m repro bench-update --ops 400 --write-ratios 0.01 0.10

Run the multi-tenant workload under an injected fault schedule (message
drops, a flapping site, a straggler), verify every degraded answer is a
flagged sound subset, and emit ``BENCH_chaos.json``::

    python -m repro bench-chaos --docs 4 --ops 48 --drop 0.05

Pit a small victim tenant against a mixed read/write antagonist at full
blast, differentially verify every MVCC snapshot read at its pinned
version, and emit ``BENCH_fairness.json``::

    python -m repro bench-fairness --victim-ops 48 --antagonist-clients 16

Serve with tracing on: write every request's span tree as JSON lines, a
Chrome trace for https://ui.perfetto.dev, a slow-query log, and expose
Prometheus metrics while the workload runs::

    python -m repro serve catalog.xml --queries queries.txt \
        --chrome-trace trace.json --slow-log slow.jsonl --metrics-port 9464

Fetch the Prometheus text exposition (or ``--json`` for the full stats
document) from a running ``serve --metrics-port`` endpoint::

    python -m repro stats http://127.0.0.1:9464

Benchmark the observability layer itself — tracing overhead on/off, per-stage
attribution residue, guarantee-checker coverage — and emit ``BENCH_obs.json``::

    python -m repro bench-obs --requests 192 --clients 16
"""

from __future__ import annotations

import argparse
import re
import sys
import traceback
from typing import Optional, Sequence

from repro.core.engine import ALGORITHMS, DistributedQueryEngine
from repro.core.kernel.dispatch import ENGINES
from repro.distributed.placement import one_site_per_fragment, round_robin_placement
from repro.fragments.fragment_tree import build_fragmentation
from repro.fragments.fragmenters import cut_by_size, cut_matching
from repro.workloads.xmark import SiteSpec, generate_sites_document
from repro.xmltree.errors import XMLSyntaxError
from repro.xmltree.parser import parse_xml_file
from repro.xmltree.serializer import serialize
from repro.xpath.centralized import evaluate_centralized

__all__ = ["main", "build_parser"]


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
    serve.add_argument("--algorithm", choices=["pax2", "pax3", "naive", "parbox"],
                       default="pax2")
    serve.add_argument(
        "--engine", choices=list(ENGINES), default=None,
        help="per-fragment pass implementation (default: kernel)",
    )
    serve.add_argument("--concurrency", type=int, default=16,
                       help="simultaneous clients issuing the batch (default 16)")
    serve.add_argument("--repeat", type=int, default=1,
                       help="issue the query list this many times (exercises the cache)")
    serve.add_argument("--site-parallelism", type=int, default=4,
                       help="concurrent requests each site serves (default 4)")
    serve.add_argument("--cache-capacity", type=int, default=256,
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

    bench_service = commands.add_parser(
        "bench-service",
        help="benchmark service throughput vs the sequential engine loop",
    )
    bench_service.add_argument("--requests", type=int, default=128,
                               help="requests in the workload stream (default 128)")
    bench_service.add_argument("--clients", type=int, nargs="+", default=[1, 8, 64],
                               metavar="N", help="client concurrencies (default 1 8 64)")
    bench_service.add_argument("--bytes", type=int, default=60_000, dest="total_bytes",
                               help="approximate XMark document size (default 60000)")
    bench_service.add_argument("--seed", type=int, default=5)
    bench_service.add_argument("--site-parallelism", type=int, default=4)
    bench_service.add_argument("--output", default="BENCH_service.json",
                               help="report path (default BENCH_service.json)")

    bench_core = commands.add_parser(
        "bench-core",
        help="benchmark the engine tiers (reference, kernel, numpy vector)"
             " against each other",
    )
    _add_kernel_bench_knobs(bench_core, default_output="BENCH_core.json")
    bench_core.add_argument(
        "--large-bytes", type=int, default=None, dest="large_bytes",
        help="larger-document sweep size for the vector-tier headline"
             " (default 4x --bytes; 0 skips the sweep)")

    bench_batch = commands.add_parser(
        "bench-batch",
        help="benchmark the fused multi-query scan vs query-at-a-time kernel passes",
    )
    _add_kernel_bench_knobs(bench_batch, default_output="BENCH_batch.json")
    bench_batch.add_argument("--batch-sizes", type=int, nargs="+", default=[1, 4, 16, 64],
                             metavar="N", help="wave sizes to time (default 1 4 16 64)")

    bench_tenancy = commands.add_parser(
        "bench-tenancy",
        help="benchmark one shared multi-document host vs N isolated engines",
    )
    bench_tenancy.add_argument("--docs", type=int, default=8,
                               help="hosted documents / tenants (default 8)")
    bench_tenancy.add_argument("--bytes", type=int, default=30_000, dest="total_bytes",
                               help="approximate XMark size per document (default 30000)")
    bench_tenancy.add_argument("--ops", type=int, default=64,
                               help="operations per document stream (default 64)")
    bench_tenancy.add_argument("--write-ratio", type=float, default=0.05,
                               help="write fraction of each stream (default 0.05)")
    bench_tenancy.add_argument("--clients", type=int, default=4,
                               help="concurrent clients per document (default 4)")
    bench_tenancy.add_argument("--seed", type=int, default=5,
                               help="XMark generator seed (default 5)")
    bench_tenancy.add_argument("--workload-seed", type=int, default=17,
                               help="mixed-workload generator seed (default 17)")
    bench_tenancy.add_argument("--site-parallelism", type=int, default=4)
    bench_tenancy.add_argument("--output", default="BENCH_tenancy.json",
                               help="report path (default BENCH_tenancy.json)")

    bench_chaos = commands.add_parser(
        "bench-chaos",
        help="benchmark graceful degradation under an injected fault schedule",
    )
    bench_chaos.add_argument("--docs", type=int, default=4,
                             help="hosted documents / tenants (default 4)")
    bench_chaos.add_argument("--bytes", type=int, default=20_000, dest="total_bytes",
                             help="approximate XMark size per document (default 20000)")
    bench_chaos.add_argument("--ops", type=int, default=48,
                             help="operations per document stream (default 48)")
    bench_chaos.add_argument("--write-ratio", type=float, default=0.05,
                             help="write fraction of each stream (default 0.05)")
    bench_chaos.add_argument("--clients", type=int, default=4,
                             help="concurrent clients per document (default 4)")
    bench_chaos.add_argument("--drop", type=float, default=0.05, dest="drop_probability",
                             help="message drop probability on the faulty tenant's"
                                  " sites (default 0.05)")
    bench_chaos.add_argument("--straggler", type=float, default=0.002,
                             dest="straggler_seconds",
                             help="extra wire seconds per message on the straggler"
                                  " site (default 0.002)")
    bench_chaos.add_argument("--deadline", type=float, default=5.0,
                             dest="deadline_seconds",
                             help="per-request deadline budget in the chaos phase,"
                                  " seconds (default 5.0)")
    bench_chaos.add_argument("--seed", type=int, default=5,
                             help="XMark generator seed (default 5)")
    bench_chaos.add_argument("--workload-seed", type=int, default=17,
                             help="mixed-workload generator seed (default 17)")
    bench_chaos.add_argument("--fault-seed", type=int, default=23,
                             help="fault injector seed (default 23)")
    bench_chaos.add_argument("--site-parallelism", type=int, default=4)
    bench_chaos.add_argument("--output", default="BENCH_chaos.json",
                             help="report path (default BENCH_chaos.json)")

    bench_fairness = commands.add_parser(
        "bench-fairness",
        help="benchmark victim-tenant isolation under an antagonist stream"
             " (MVCC snapshots + weighted-fair admission vs the legacy gate)",
    )
    bench_fairness.add_argument("--bytes", type=int, default=24_000, dest="total_bytes",
                                help="approximate XMark size of the victim's"
                                     " document (default 24000)")
    bench_fairness.add_argument("--antagonist-bytes", type=int, default=8_000,
                                help="approximate XMark size of the antagonist's"
                                     " document (default 8000)")
    bench_fairness.add_argument("--victim-ops", type=int, default=48,
                                help="victim stream operations (default 48)")
    bench_fairness.add_argument("--antagonist-ops", type=int, default=144,
                                help="antagonist stream operations (default 144)")
    bench_fairness.add_argument("--victim-clients", type=int, default=4,
                                help="concurrent victim clients (default 4)")
    bench_fairness.add_argument("--antagonist-clients", type=int, default=16,
                                help="concurrent antagonist clients (default 16)")
    bench_fairness.add_argument("--victim-write-ratio", type=float, default=0.1,
                                help="victim write fraction (default 0.1)")
    bench_fairness.add_argument("--antagonist-write-ratio", type=float, default=0.3,
                                help="antagonist write fraction (default 0.3)")
    bench_fairness.add_argument("--victim-weight", type=float, default=2.0,
                                help="victim admission weight (default 2.0)")
    bench_fairness.add_argument("--antagonist-weight", type=float, default=1.0,
                                help="antagonist admission weight (default 1.0)")
    bench_fairness.add_argument("--antagonist-slice", type=int, default=1,
                                help="antagonist max-in-flight slice; 0 disables"
                                     " (default 1)")
    bench_fairness.add_argument("--max-in-flight", type=int, default=4,
                                help="shared admission capacity (default 4)")
    bench_fairness.add_argument("--max-retained-versions", type=int, default=8,
                                help="snapshot retention watermark (default 8)")
    bench_fairness.add_argument("--seed", type=int, default=5,
                                help="XMark generator seed (default 5)")
    bench_fairness.add_argument("--workload-seed", type=int, default=17,
                                help="mixed-workload generator seed (default 17)")
    bench_fairness.add_argument("--site-parallelism", type=int, default=4)
    bench_fairness.add_argument("--repeats", type=int, default=5,
                                help="repeats of each timed phase; read latencies"
                                     " are pooled (default 5)")
    bench_fairness.add_argument("--output", default="BENCH_fairness.json",
                                help="report path (default BENCH_fairness.json)")

    bench_update = commands.add_parser(
        "bench-update",
        help="benchmark incremental maintenance vs rebuild-everything under writes",
    )
    bench_update.add_argument("--bytes", type=int, default=150_000, dest="total_bytes",
                              help="approximate XMark document size (default 150000)")
    bench_update.add_argument("--seed", type=int, default=5,
                              help="XMark generator seed (default 5)")
    bench_update.add_argument("--ops", type=int, default=400,
                              help="operations per timed stream (default 400)")
    bench_update.add_argument("--write-ratios", type=float, nargs="+",
                              default=[0.01, 0.10], metavar="R",
                              help="write fractions of the stream (default 0.01 0.10)")
    bench_update.add_argument("--workload-seed", type=int, default=17,
                              help="mixed-workload generator seed (default 17)")
    bench_update.add_argument("--output", default="BENCH_update.json",
                              help="report path (default BENCH_update.json)")

    bench_obs = commands.add_parser(
        "bench-obs",
        help="benchmark tracing overhead, latency attribution and guarantee checks",
    )
    bench_obs.add_argument("--requests", type=int, default=192,
                           help="requests in the workload stream (default 192)")
    bench_obs.add_argument("--clients", type=int, default=16,
                           help="concurrent clients in the throughput phases (default 16)")
    bench_obs.add_argument("--bytes", type=int, default=60_000, dest="total_bytes",
                           help="approximate XMark document size (default 60000)")
    bench_obs.add_argument("--seed", type=int, default=5,
                           help="XMark generator seed (default 5)")
    bench_obs.add_argument("--repeats", type=int, default=5,
                           help="ABBA measurement blocks (untraced/traced/"
                                "traced/untraced passes each); the enabled"
                                " cost compares the fastest pass per mode"
                                " (default 5)")
    bench_obs.add_argument("--site-parallelism", type=int, default=4)
    bench_obs.add_argument("--processes", type=int, default=4,
                           help="fresh interpreters the enabled-overhead"
                                " measurement is resampled in; per-process"
                                " code layout can tax one mode's hot path,"
                                " so the fastest pass per mode is taken"
                                " across all of them (default 4)")
    bench_obs.add_argument("--output", default="BENCH_obs.json",
                           help="report path (default BENCH_obs.json)")

    lint = commands.add_parser(
        "lint",
        help="run the AST-based concurrency & invariant checkers",
        description="Static analysis over the service stack: permit leaks,"
                    " blocking calls in coroutines, loop-affinity bugs,"
                    " unbalanced counter staging, unlabeled sheds, and"
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


def _add_kernel_bench_knobs(parser: argparse.ArgumentParser, default_output: str) -> None:
    """The knob set ``bench-core`` and ``bench-batch`` share.

    One definition keeps the two kernel benchmarks comparable: the same
    document size, generator seed and best-of-N repeat policy apply to both,
    so a batch-speedup number can be read against the core-speedup number
    from the same workload.
    """
    parser.add_argument("--bytes", type=int, default=150_000, dest="total_bytes",
                        help="approximate XMark document size (default 150000)")
    parser.add_argument("--seed", type=int, default=5,
                        help="XMark generator seed (default 5)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats (default 3)")
    parser.add_argument("--output", default=default_output,
                        help=f"report path (default {default_output})")


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

    tracer = _build_tracer(args)
    host = ServiceHost(
        algorithm=args.algorithm,
        engine=args.engine,
        site_parallelism=args.site_parallelism,
        cache_capacity=args.cache_capacity,
        max_in_flight=max(args.concurrency, 1),
        tracer=tracer,
    )
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

    batch = _route_queries(queries, documents) * max(args.repeat, 1)

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


def _cmd_bench_service(args: argparse.Namespace) -> int:
    from repro.bench.service_bench import (
        render_summary,
        run_service_benchmark,
        write_benchmark_json,
    )

    report = run_service_benchmark(
        total_bytes=args.total_bytes,
        requests=args.requests,
        client_counts=args.clients,
        seed=args.seed,
        site_parallelism=args.site_parallelism,
    )
    path = write_benchmark_json(report, args.output)
    print(render_summary(report))
    print(f"[written to {path}]")
    return 0


def _cmd_bench_core(args: argparse.Namespace) -> int:
    from repro.bench.core_bench import (
        render_summary,
        run_core_benchmark,
        write_benchmark_json,
    )

    report = run_core_benchmark(
        total_bytes=args.total_bytes,
        seed=args.seed,
        repeats=args.repeats,
        large_bytes=args.large_bytes,
    )
    path = write_benchmark_json(report, args.output)
    print(render_summary(report))
    print(f"[written to {path}]")
    return 0


def _cmd_bench_batch(args: argparse.Namespace) -> int:
    from repro.bench.batch_bench import (
        render_summary,
        run_batch_benchmark,
        write_benchmark_json,
    )

    report = run_batch_benchmark(
        total_bytes=args.total_bytes,
        seed=args.seed,
        repeats=args.repeats,
        batch_sizes=args.batch_sizes,
    )
    path = write_benchmark_json(report, args.output)
    print(render_summary(report))
    print(f"[written to {path}]")
    return 0


def _cmd_bench_tenancy(args: argparse.Namespace) -> int:
    from repro.bench.tenancy_bench import (
        render_summary,
        run_tenancy_benchmark,
        write_benchmark_json,
    )

    report = run_tenancy_benchmark(
        documents=args.docs,
        total_bytes=args.total_bytes,
        ops_per_document=args.ops,
        write_ratio=args.write_ratio,
        clients_per_document=args.clients,
        seed=args.seed,
        workload_seed=args.workload_seed,
        site_parallelism=args.site_parallelism,
    )
    path = write_benchmark_json(report, args.output)
    print(render_summary(report))
    print(f"[written to {path}]")
    return 0


def _cmd_bench_chaos(args: argparse.Namespace) -> int:
    from repro.bench.chaos_bench import (
        render_summary,
        run_chaos_benchmark,
        write_benchmark_json,
    )

    report = run_chaos_benchmark(
        documents=args.docs,
        total_bytes=args.total_bytes,
        ops_per_document=args.ops,
        write_ratio=args.write_ratio,
        clients_per_document=args.clients,
        drop_probability=args.drop_probability,
        straggler_seconds=args.straggler_seconds,
        deadline_seconds=args.deadline_seconds,
        seed=args.seed,
        workload_seed=args.workload_seed,
        fault_seed=args.fault_seed,
        site_parallelism=args.site_parallelism,
    )
    path = write_benchmark_json(report, args.output)
    print(render_summary(report))
    print(f"[written to {path}]")
    return 0


def _cmd_bench_fairness(args: argparse.Namespace) -> int:
    from repro.bench.fairness_bench import (
        render_summary,
        run_fairness_benchmark,
        write_benchmark_json,
    )

    report = run_fairness_benchmark(
        total_bytes=args.total_bytes,
        antagonist_bytes=args.antagonist_bytes,
        victim_ops=args.victim_ops,
        antagonist_ops=args.antagonist_ops,
        victim_clients=args.victim_clients,
        antagonist_clients=args.antagonist_clients,
        victim_write_ratio=args.victim_write_ratio,
        antagonist_write_ratio=args.antagonist_write_ratio,
        victim_weight=args.victim_weight,
        antagonist_weight=args.antagonist_weight,
        antagonist_slice=args.antagonist_slice if args.antagonist_slice > 0 else None,
        max_in_flight=args.max_in_flight,
        max_retained_versions=args.max_retained_versions,
        seed=args.seed,
        workload_seed=args.workload_seed,
        site_parallelism=args.site_parallelism,
        repeats=args.repeats,
    )
    path = write_benchmark_json(report, args.output)
    print(render_summary(report))
    print(f"[written to {path}]")
    return 0


def _cmd_bench_update(args: argparse.Namespace) -> int:
    from repro.bench.update_bench import (
        render_summary,
        run_update_benchmark,
        write_benchmark_json,
    )

    report = run_update_benchmark(
        total_bytes=args.total_bytes,
        seed=args.seed,
        ops=args.ops,
        write_ratios=args.write_ratios,
        workload_seed=args.workload_seed,
    )
    path = write_benchmark_json(report, args.output)
    print(render_summary(report))
    print(f"[written to {path}]")
    return 0


def _cmd_bench_obs(args: argparse.Namespace, from_shell: bool = False) -> int:
    import os

    if from_shell and os.environ.get("PYTHONHASHSEED") is None:
        # Pin the hash seed and relaunch before anything is imported:
        # str-hash randomisation shuffles every dict layout at interpreter
        # start and moves the measured tracing overhead by several points
        # from one invocation to the next — a reproducible benchmark pins
        # it (the answers are order-independent either way).  Only the
        # shell invocation relaunches; programmatic callers (tests) keep
        # their interpreter.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, "-m", "repro", *sys.argv[1:]])

    from repro.bench.obs_bench import (
        render_summary,
        run_obs_benchmark,
        write_benchmark_json,
    )

    report = run_obs_benchmark(
        total_bytes=args.total_bytes,
        requests=args.requests,
        clients=args.clients,
        seed=args.seed,
        repeats=args.repeats,
        site_parallelism=args.site_parallelism,
        processes=args.processes,
    )
    path = write_benchmark_json(report, args.output)
    print(render_summary(report))
    print(f"[written to {path}]")
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
    if args.command == "bench-obs":
        return _cmd_bench_obs(args, from_shell=argv is None)
    if args.command == "bench-service":
        return _cmd_bench_service(args)
    if args.command == "bench-core":
        return _cmd_bench_core(args)
    if args.command == "bench-batch":
        return _cmd_bench_batch(args)
    if args.command == "bench-tenancy":
        return _cmd_bench_tenancy(args)
    if args.command == "bench-chaos":
        return _cmd_bench_chaos(args)
    if args.command == "bench-fairness":
        return _cmd_bench_fairness(args)
    if args.command == "bench-update":
        return _cmd_bench_update(args)
    if args.command == "lint":
        return _cmd_lint(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
