"""Per-layer probes: the only part of the benchmark that reaches below the
public surfaces.

Each probe names the symbols it needs as ``"module:attribute"`` strings and
resolves them when it runs.  A symbol a later refactor removed makes that
probe's metrics ``None`` and adds an entry to ``probes_unavailable`` — it
never fails the run and never touches an end-to-end metric.  Probes run after
the timed rounds, in the traced part of a run only.
"""

from __future__ import annotations

import gc
import importlib
import random
import statistics
import time
import tracemalloc
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from oracle import Query
from spans import Recorder
from workloads import DOCUMENT, Served, Spec, cut_nodes, mutation_source

__all__ = ["Unavailable", "need", "run_probe"]

Metrics = Dict[str, Optional[float]]


class Unavailable(Exception):
    """A probe's symbol is gone from the program."""


def need(path: str):
    module_name, _, attribute = path.partition(":")
    try:
        return getattr(importlib.import_module(module_name), attribute)
    except (ImportError, AttributeError) as error:
        raise Unavailable(path) from error


def run_probe(
    probe: Callable[..., Metrics], names: Iterable[str], unavailable: List[dict], *args
) -> Metrics:
    """Run one probe; on a missing symbol all its metrics are ``None``."""
    try:
        return probe(*args)
    except Unavailable as error:
        unavailable.append({"probe": probe.__name__, "missing": str(error), "metrics": list(names)})
        return {name: None for name in names}


def _timed(function, *args):
    started = time.perf_counter()
    value = function(*args)
    return value, time.perf_counter() - started


def _allocated(function) -> int:
    """Bytes still allocated after *function* that were not before it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        keep = function()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
        del keep
    finally:
        tracemalloc.stop()
    return after - before


# -- set-up ledger: xmltree, fragments, core.vector, updates ---------------------

SETUP_METRICS = {
    "xmltree.parse_s": "s", "xmltree.parse_mb_per_s": "MB/s", "xmltree.flat_encode_s": "s",
    "xmltree.flat_bytes_per_doc_byte": "B/B", "xmltree.flat_reencode_ms": "ms",
    "fragments.build_s": "s", "fragments.version_token_us": "us",
    "core.vector.encode_s": "s", "core.vector.bytes_per_doc_byte": "B/B",
    "core.vector.reencode_ms": "ms",
    "updates.apply_ms_p50": "ms", "updates.nodes_touched_per_write": "count",
}


def setup_ledger(spec: Spec, xml_text: str, seed: int, recorder: Recorder) -> Metrics:
    """One set-up taken apart on a scratch copy of the document, then written to."""
    parse_xml = need("repro.xmltree:parse_xml")
    build_fragmentation = need("repro.fragments:build_fragmentation")
    vector_fragment = need("repro.core.vector:vector_fragment")
    apply_mutation = need("repro.updates:apply_mutation")
    doc_bytes = len(xml_text.encode("utf-8"))
    recorder.begin_request()
    gc.collect()
    with recorder.span("setup", "bench"):
        with recorder.span("parse_xml", "xmltree"):
            tree, parse_s = _timed(parse_xml, xml_text)
        with recorder.span("build_fragmentation", "fragments"):
            cuts = [node.node_id for node in cut_nodes(spec, tree.root)]
            fragmentation, build_s = _timed(build_fragmentation, tree, cuts)
        fragment_ids = fragmentation.fragment_ids()
        with recorder.span("flat_encode", "xmltree"):
            flats, flat_s = _timed(lambda: [fragmentation.flat(f) for f in fragment_ids])
        with recorder.span("vector_encode", "core.vector"):
            _, vector_s = _timed(lambda: [vector_fragment(flat) for flat in flats])
    del flats
    fragmentation.invalidate_flat()
    fragmentation.content_version()  # the fingerprint walk is time, not retained bytes
    flat_bytes = _allocated(lambda: [fragmentation.flat(f) for f in fragment_ids])
    flats = [fragmentation.flat(f) for f in fragment_ids]
    vector_bytes = _allocated(lambda: [vector_fragment(flat) for flat in flats])
    del flats

    token_us = statistics.median(
        _timed(fragmentation.version_token)[1] for _ in range(50)
    ) * 1e6

    writes = mutation_source(fragmentation, seed)
    apply_s: List[float] = []
    touched: List[int] = []
    flat_re: List[float] = []
    vector_re: List[float] = []
    for _ in range(40):
        mutation = writes.next_mutation()
        result, seconds = _timed(apply_mutation, fragmentation, mutation)
        apply_s.append(seconds)
        touched.append(max(1, result.nodes_added + result.nodes_removed))
        flat, seconds = _timed(fragmentation.flat, result.fragment_id)
        flat_re.append(seconds)
        vector_re.append(_timed(vector_fragment, flat)[1])
    return {
        "xmltree.parse_s": parse_s,
        "xmltree.parse_mb_per_s": doc_bytes / 1e6 / parse_s,
        "xmltree.flat_encode_s": flat_s,
        "xmltree.flat_bytes_per_doc_byte": flat_bytes / doc_bytes,
        "xmltree.flat_reencode_ms": statistics.median(flat_re) * 1e3,
        "fragments.build_s": build_s,
        "fragments.version_token_us": token_us,
        "core.vector.encode_s": vector_s,
        "core.vector.bytes_per_doc_byte": vector_bytes / doc_bytes,
        "core.vector.reencode_ms": statistics.median(vector_re) * 1e3,
        "updates.apply_ms_p50": statistics.median(apply_s) * 1e3,
        "updates.nodes_touched_per_write": statistics.fmean(touched),
    }


# -- one request taken apart: xpath, core, booleans, distributed ------------------

REENACT_METRICS = {
    "xpath.compile_us": "us", "xpath.plan_items": "count",
    "core.prune_us": "us", "core.fragments_pruned_share": "share",
    "core.pass_ms_per_query": "ms", "core.pass_ns_per_node": "ns",
    "core.pass_us_per_fragment": "us", "core.pass_share": "share", "core.plan_tables_us": "us",
    "core.unify_ms_per_query": "ms", "core.stage2_ms_per_query": "ms",
    "core.account_ms_per_query": "ms", "core.coordinator_share": "share",
    "core.answers_per_query": "count", "core.residue_share": "share",
    "core.sync_query_ms": "ms", "booleans.resolve_us": "us",
    "distributed.network_build_us": "us",
}


def reenact(served: Served, queries: Sequence[Query], recorder: Recorder) -> Metrics:
    """Re-enact PaX2 for each query through the layers' own functions.

    Each query first runs through the sync engine untraced — its wall clock
    is the base of every share — and then layer by layer under spans; the
    re-enactment must return the engine's answer ids.
    """
    engine_type = need("repro.core.engine:DistributedQueryEngine")
    parse_xpath = need("repro.xpath:parse_xpath")
    compile_plan = need("repro.xpath:compile_plan")
    build_network = need("repro.core.common:build_network")
    answer_subtree_nodes = need("repro.core.common:answer_subtree_nodes")
    relevant_fragments = need("repro.core.pruning:relevant_fragments")
    stage1_init_vector = need("repro.core.pruning:stage1_init_vector")
    combined_pass = need("repro.core.kernel.dispatch:combined_pass")
    plan_tables_type = need("repro.core.kernel.tables:PlanTables")
    unify_qualifiers = need("repro.core.unify:unify_qualifier_vectors")
    unify_selection = need("repro.core.unify:unify_selection_vectors")
    init_bindings = need("repro.core.unify:resolved_init_bindings")
    child_bindings = need("repro.core.unify:resolved_child_qualifier_bindings")
    environment_type = need("repro.booleans:Environment")

    fragmentation, placement, engine_name = served.fragmentation, served.placement, served.spec.engine
    engine = engine_type(
        fragmentation, placement, algorithm="pax2", use_annotations=True, engine=engine_name
    )
    root_id = fragmentation.root_fragment_id
    span = recorder.span
    compile_s: List[float] = []
    count = dict.fromkeys(("plan_items", "pruned", "fragments", "nodes", "answers", "resolves"), 0)

    def one_request(text: str) -> List[int]:
        with span("compile", "xpath"):
            plan, seconds = _timed(lambda: compile_plan(parse_xpath(text), source=text))
        compile_s.append(seconds)
        count["plan_items"] += plan.n_items
        with span("build_network", "distributed"):
            build_network(fragmentation, placement)
        with span("prune", "core.pruning"):
            decision = relevant_fragments(fragmentation, plan)
        kept = [f for f in fragmentation.fragment_ids() if decision.keeps(f)]
        count["pruned"] += len(fragmentation) - len(kept)
        count["fragments"] += len(kept)
        outputs = {}
        for fragment_id in kept:
            with span("pass", "core.pass"):
                init = stage1_init_vector(fragmentation, plan, fragment_id, True)
                outputs[fragment_id] = combined_pass(
                    fragmentation, fragment_id, plan, init,
                    is_root_fragment=(fragment_id == root_id), engine=engine_name,
                )
            count["nodes"] += fragmentation[fragment_id].node_count()
        with span("unify", "core.coordinator"):
            environment = environment_type()
            if plan.has_qualifiers:
                environment = unify_qualifiers(
                    fragmentation, plan,
                    {f: (o.root_head, o.root_desc) for f, o in outputs.items()}, environment,
                )
            environment = unify_selection(
                fragmentation, plan,
                {f: o.virtual_parent_vectors for f, o in outputs.items()}, environment,
            )
        found = {node_id for o in outputs.values() for node_id in o.answers}
        with span("stage2", "core.coordinator"):
            for fragment_id, output in outputs.items():
                if not output.candidates:
                    continue
                bindings = init_bindings(plan, fragment_id, environment)
                if plan.has_qualifiers:
                    bindings.update(child_bindings(fragmentation, plan, fragment_id, environment))
                local = environment_type(bindings)
                with span("resolve", "booleans"):
                    for node_id, formula in output.candidates.items():
                        count["resolves"] += 1
                        if local.resolve(formula) is True:
                            found.add(node_id)
        answer_ids = sorted(found)
        with span("account", "core.coordinator"):
            answer_subtree_nodes(fragmentation.tree, answer_ids)
        return answer_ids

    walls = 0.0
    first = len(recorder.spans)
    for query in queries:
        result, wall = _timed(engine.execute, query.text)
        walls += wall
        recorder.begin_request()
        # The engine pauses the cyclic collector inside every site visit and
        # coordinator stage; the re-enactment covers the same code, so it does too.
        gc.disable()
        try:
            with span("request", "bench"):
                answer_ids = one_request(query.text)
        finally:
            gc.enable()
        if answer_ids != result.stats.answer_ids:
            raise AssertionError(f"re-enactment of {query.text} disagrees with execute()")
        count["answers"] += len(answer_ids)
    # cold dispatch tables, apart from the spans: the passes above reuse cached ones
    sample_plan = compile_plan(parse_xpath(queries[0].text), source=queries[0].text)
    tables_s = [
        _timed(plan_tables_type, fragmentation.flat(fragment_id), sample_plan)[1]
        for fragment_id in fragmentation.fragment_ids()
    ]

    n = len(queries)
    spans = recorder.spans[first:]

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    pass_s, unify_s, stage2_s, account_s = total("pass"), total("unify"), total("stage2"), total("account")
    attributed = total("compile") + total("build_network") + total("prune") + pass_s + unify_s + stage2_s + account_s
    return {
        "xpath.compile_us": statistics.median(compile_s) * 1e6,
        "xpath.plan_items": count["plan_items"] / n,
        "core.prune_us": total("prune") / n * 1e6,
        "core.fragments_pruned_share": count["pruned"] / (n * len(fragmentation)),
        "core.pass_ms_per_query": pass_s / n * 1e3,
        "core.pass_ns_per_node": pass_s / max(1, count["nodes"]) * 1e9,
        "core.pass_us_per_fragment": pass_s / max(1, count["fragments"]) * 1e6,
        "core.pass_share": pass_s / walls,
        "core.plan_tables_us": statistics.median(tables_s) * 1e6,
        "core.unify_ms_per_query": unify_s / n * 1e3,
        "core.stage2_ms_per_query": stage2_s / n * 1e3,
        "core.account_ms_per_query": account_s / n * 1e3,
        "core.coordinator_share": (unify_s + stage2_s + account_s) / walls,
        "core.answers_per_query": count["answers"] / n,
        "core.residue_share": 1.0 - attributed / walls,
        "core.sync_query_ms": walls / n * 1e3,
        "booleans.resolve_us": total("resolve") / max(1, count["resolves"]) * 1e6,
        "distributed.network_build_us": total("build_network") / n * 1e6,
    }


# -- booleans micro-probe ----------------------------------------------------------

BOOLEANS_METRICS = {"booleans.algebra_ns_per_op": "ns"}


def booleans_algebra(seed: int) -> Metrics:
    """Seeded mix of conj / disj / neg / substitute over a few variables."""
    var = need("repro.booleans:Var")
    conj, disj, neg = need("repro.booleans:conj"), need("repro.booleans:disj"), need("repro.booleans:neg")
    substitute = need("repro.booleans:substitute")
    rng = random.Random(seed)
    names = [f"perf:{i}" for i in range(12)]
    operations = 20_000
    script = [(rng.randrange(4), rng.randrange(12), rng.randrange(12), rng.random() < 0.5)
              for _ in range(operations)]
    values = [var(name) for name in names]
    started = time.perf_counter()
    for op, left, right, flag in script:
        if op == 0:
            values[left] = conj(values[left], values[right])
        elif op == 1:
            values[left] = disj(values[left], values[right])
        elif op == 2:
            values[left] = neg(values[right])
        else:
            values[left] = substitute(values[left], {names[right]: flag})
        if op != 3 and flag:  # keep formulas from growing without bound
            values[right] = var(names[right])
    return {"booleans.algebra_ns_per_op": (time.perf_counter() - started) / operations * 1e9}


# -- counters the service keeps about itself ---------------------------------------

SERVICE_COUNTERS = (
    "cache.hits", "cache.misses", "cache.evictions", "cache.invalidations", "cache.rekeyed",
    "cache.coalesced", "batch.fused_scans", "batch.batched_queries", "batch.dedup_hits",
    "requests", "updates", "shed",
)


def service_counters(served: Served) -> Dict[str, float]:
    """Running totals read from the host's public stats objects."""
    try:
        host = served.host
        totals = host.metrics.document(DOCUMENT)
        batch = host.session(DOCUMENT).batcher.stats
        values = {
            "batch.fused_scans": batch.fused_scans, "batch.batched_queries": batch.batched_queries,
            "batch.dedup_hits": batch.dedup_hits,
            "requests": totals.requests, "updates": totals.updates, "shed": totals.shed,
        }
        if host.cache is not None:
            cache = host.cache.stats
            values.update({
                "cache.hits": cache.hits, "cache.misses": cache.misses,
                "cache.evictions": cache.evictions, "cache.invalidations": cache.invalidations,
                "cache.rekeyed": cache.rekeyed, "cache.coalesced": cache.coalesced,
            })
        return values
    except AttributeError as error:
        raise Unavailable(f"service stats: {error}") from error


SERVICE_METRICS = {
    "service.cache.hit_ratio": "share", "service.cache.coalesced_share": "share",
    "service.cache.evictions": "count", "service.cache.invalidated_per_write": "count",
    "service.cache.rekeyed_per_write": "count", "service.batch.queries_per_scan": "count",
    "service.batch.dedup_hits": "count", "service.admission.queue_wait_ms_p95": "ms",
    "service.shed_share": "share", "fragments.snapshots_retained_peak": "count",
}


def service_ledger(served: Served, delta: Dict[str, float]) -> Metrics:
    """*delta*: service_counters summed over the timed rounds only."""
    try:
        host = served.host
        wait_p95 = host.metrics.queue_wait_quantiles(DOCUMENT)["p95"]
        retained_peak = host.session(DOCUMENT).snapshots.stats.peak_retained
    except (AttributeError, KeyError) as error:
        raise Unavailable(f"service stats: {error}") from error
    get = lambda key: delta.get(key, 0.0)
    lookups = get("cache.hits") + get("cache.misses")
    writes = get("updates")
    requests = get("requests") + get("shed")
    return {
        "service.cache.hit_ratio": get("cache.hits") / lookups if lookups else None,
        "service.cache.coalesced_share": get("cache.coalesced") / requests if requests else None,
        "service.cache.evictions": get("cache.evictions") if lookups else None,
        "service.cache.invalidated_per_write": get("cache.invalidations") / writes if writes else None,
        "service.cache.rekeyed_per_write": get("cache.rekeyed") / writes if writes else None,
        "service.batch.queries_per_scan": (
            get("batch.batched_queries") / get("batch.fused_scans") if get("batch.fused_scans") else None
        ),
        "service.batch.dedup_hits": get("batch.dedup_hits"),
        "service.admission.queue_wait_ms_p95": wait_p95 * 1e3,
        "service.shed_share": get("shed") / requests if requests else None,
        "fragments.snapshots_retained_peak": float(retained_peak),
    }


# -- the repo's own tracer, read from outside ---------------------------------------

STAGES = ("queue", "cache", "compile", "window", "kernel", "wire", "reassembly", "dispatch")
OBS_METRICS = {
    **{f"service.stage.{stage}_ms": "ms" for stage in STAGES},
    "obs.spans_per_request": "count", "obs.guarantee_violations": "count",
}
#: where a staged span of the repo's tracer belongs in this benchmark's layers
STAGE_LAYER = {"kernel": "core", "wire": "distributed", "compile": "xpath", "cache": "service.cache"}


def make_tracer():
    return need("repro.obs:Tracer")(keep_spans=1_000_000)


def obs_ledger(tracer, recorder: Recorder) -> Metrics:
    """Stage means per traced query and the spans, copied into *recorder*."""
    try:
        roots = list(tracer.finished)
        queries = [root for root in roots if root.kind == "query"]
        sums = dict.fromkeys(STAGES, 0.0)
        for root in queries:
            for stage, seconds in root.breakdown().items():
                sums[stage] = sums.get(stage, 0.0) + seconds
        for root in roots:
            recorder.begin_request()
            stack = [(root, None)]
            while stack:
                node, parent = stack.pop()
                layer = "service" if node.stage is None else STAGE_LAYER.get(node.stage, "service")
                recorder.add(node.name, layer, node.start, node.end or node.start, parent)
                index = len(recorder.spans) - 1
                stack.extend((child, index) for child in node.children)
        metrics: Metrics = {
            f"service.stage.{stage}_ms": sums[stage] / len(queries) * 1e3 for stage in STAGES
        }
        metrics["obs.spans_per_request"] = statistics.fmean(root.span_count() for root in roots)
        metrics["obs.guarantee_violations"] = float(tracer.violation_count)
        return metrics
    except AttributeError as error:
        raise Unavailable(f"tracer: {error}") from error
