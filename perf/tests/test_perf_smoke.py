"""Smoke test of the benchmark itself, at a document scale only tests use.

Runs ``perf/run.py`` as a user would (child processes and all) at
``--scale 0.05 --seconds 0`` — one block of requests per round — and checks
the result's shape, the oracle, determinism and the failure paths.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent
sys.path.insert(0, str(PERF))

import oracle  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402
from repro import apply_mutation, evaluate_centralized  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
COUNT_METRICS = ("traffic_units_per_query", "site_ops_per_query")


def start(out: Path, *arguments: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(PERF / "run.py"), "--scale", "0.05", "--seconds", "0",
         "--out", str(out), *arguments],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish(process: subprocess.Popen):
    stdout, stderr = process.communicate(timeout=120)
    return process.returncode, stdout, stderr


INJECTED = ("ft1_fanout_fresh", 0)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every workload once traced, and two of them (one sync, one that writes)
    once more untraced with the same seed — the sync one with a corrupted
    reply; all started together."""
    out = tmp_path_factory.mktemp("perf")
    wanted = [(w, 1) for w in workloads.WORKLOADS] + [INJECTED, ("svc_mixed_rw", 0)]
    started = {
        (workload, trace): start(
            out / f"{workload}-{trace}" / "result.json",
            "--workload", workload, "--seed", "3", "--trace", str(trace),
            *(["--inject-wrong-answer"] if (workload, trace) == INJECTED else []))
        for workload, trace in wanted
    }
    finished = {}
    for (workload, trace), process in started.items():
        code, stdout, stderr = finish(process)
        assert code == (1 if (workload, trace) == INJECTED else 0), stderr
        directory = out / f"{workload}-{trace}"
        finished[workload, trace] = {
            "last_line": json.loads(stdout.strip().splitlines()[-1]),
            "lines": stdout.strip().splitlines()[:-1],
            "file": json.loads((directory / "result.json").read_text()),
            "dir": directory,
        }
    return finished


def test_result_schema_and_names(runs):
    declared = {group: [m["name"] for m in BENCHMARK[group]] for group in ("end_to_end", "per_layer")}
    workload_names = [w["name"] for w in BENCHMARK["workloads"]]
    assert workload_names == list(workloads.WORKLOADS)
    for name in workload_names + declared["end_to_end"] + declared["per_layer"]:
        assert NAME.match(name), name
    for (workload, trace), run in runs.items():
        if (workload, trace) == INJECTED:
            continue
        last = run["last_line"]
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert list(last["metrics"]) == declared["per_layer" if trace else "end_to_end"]
        for entry in last["metrics"].values():
            assert set(entry) == {"value", "unit"} and isinstance(entry["value"], (int, float))
        # every metric is also printed as "workload metric value unit"
        assert all(len(line.split()) == 4 for line in run["lines"])
        assert set(run["file"]["environment"]) == {
            "python", "numpy", "cpu_model", "nproc", "commit", "dirty", "seed", "argv"}
        measured = run["file"]["workloads"][workload]
        assert list(measured["end_to_end"]) == declared["end_to_end"]
        assert list(measured["per_layer"]) == declared["per_layer"]
        assert all(entry["value"] > 0 for entry in measured["end_to_end"].values())
        assert measured["probes_unavailable"] == []
        assert measured["per_layer"]["distributed.max_site_visits"]["value"] <= 2
        assert len(measured["rounds"]["qps"]) == 10
        if trace:
            spans = [json.loads(line) for line in
                     (run["dir"] / f"trace_{workload}.jsonl").read_text().splitlines()]
            assert spans and set(spans[0]) == {
                "workload", "request", "name", "layer", "start", "end", "parent"}


def test_counts_repeat_for_one_seed(runs):
    for workload in ("ft1_fanout_fresh", "svc_mixed_rw"):
        first, second = (runs[workload, trace]["file"]["workloads"][workload] for trace in (1, 0))
        for metric in COUNT_METRICS:
            assert first["end_to_end"][metric] == second["end_to_end"][metric], (workload, metric)
        assert first["samples"] == second["samples"]


def test_another_seed_is_another_request_stream():
    for spec in workloads.WORKLOADS.values():
        streams = []
        for seed in (3, 4):
            rng = random.Random(seed)
            pool = workloads.make_pool(spec.pool_size, rng)
            streams.append(next(workloads.blocks(spec, pool, rng)))
        assert streams[0] != streams[1], spec.name


def test_injected_wrong_answer_fails_the_run(runs):
    last = runs[INJECTED]["last_line"]  # the fixture saw exit code 1
    assert last["correct"] is False and last["failed"] == 1


def test_missing_symbol_degrades_to_null():
    def probe_of_a_removed_layer():
        probes.need("repro.core.pruning:a_function_some_refactor_removed")
        return {"core.prune_us": 1.0}

    unavailable = []
    metrics = probes.run_probe(probe_of_a_removed_layer, ["core.prune_us"], unavailable)
    assert metrics == {"core.prune_us": None}
    assert unavailable[0]["missing"] == "repro.core.pruning:a_function_some_refactor_removed"


def test_oracle_agrees_with_centralized_on_every_template_under_writes():
    spec = workloads.WORKLOADS["svc_mixed_rw"].scaled(0.1)
    xml_text = workloads.generate(spec, seed=5)
    served = workloads.Served(spec, xml_text)
    shadow = oracle.Shadow(xml_text)
    rng = random.Random(5)
    queries = [q for t in oracle.TEMPLATES.values() for q in (t.fresh(rng), t.fresh(rng), t.fresh(rng))]
    queries += workloads.PAPER_POOL
    mutations = workloads.mutation_source(served.fragmentation, seed=5)
    for step in range(3):
        on_tree = oracle.answers(oracle.Doc(served.tree.root), queries)
        assert oracle.answers(shadow.doc, queries) == on_tree
        for query in queries:
            assert on_tree[query] == evaluate_centralized(served.tree, query.text).answer_ids, query.text
        assert any(on_tree.values())
        for _ in range(25):
            mutation = mutations.next_mutation()
            shadow.apply(oracle.loggable(mutation))
            apply_mutation(served.fragmentation, mutation)


def test_paper_queries_are_in_every_pool():
    from repro.workloads import PAPER_QUERIES

    assert [q.text for q in workloads.PAPER_POOL] == list(PAPER_QUERIES.values())
    for spec in workloads.WORKLOADS.values():
        if spec.pool_size:
            assert workloads.make_pool(spec.pool_size, random.Random(1))[:4] == list(workloads.PAPER_POOL)
