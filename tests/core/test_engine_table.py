"""The engine table: every per-fragment pass runs through a tier's record.

A tier is one :class:`~repro.core.kernel.dispatch.FragmentEngine` in
``ENGINES``, selected by name.  A recording tier (the kernel's passes,
counted) put into the table shows that each runner reaches its passes only
through the record it resolved, and a tier whose ``available()`` is false is
refused up front by the service host and the CLI, and before any site visit
by a sync run.
"""

from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.engine import DistributedQueryEngine
from repro.core.kernel.dispatch import (
    ENGINES,
    KERNEL,
    VECTOR,
    EngineUnavailableError,
    prewarm_fragments,
)
from repro.core.pax2 import run_pax2
from repro.core.common import build_network
from repro.distributed.placement import one_site_per_fragment
from repro.fragments.fragmenters import cut_top_level
from repro.service.server import ServiceHost
from repro.workloads.queries import clientele_example_tree, clientele_paper_fragmentation
from repro.xmltree.parser import parse_xml

QUALIFIED = 'client[country/text() = "us"]/name'
BOOLEAN = '.[//client[country/text() = "us"]]'


def clientele():
    return clientele_paper_fragmentation(clientele_example_tree())


@pytest.fixture
def recording(monkeypatch):
    """Put a ``recording`` tier into the table: the kernel's passes, each
    call logged as (pass, fragment id, operations)."""
    calls = []
    kernel = ENGINES[KERNEL]

    def counted(stage, run):
        def recorded(fragment, *args):
            output = run(fragment, *args)
            calls.append((stage, fragment.fragment_id, output.operations))
            return output
        return recorded

    monkeypatch.setitem(ENGINES, "recording", replace(
        kernel,
        name="recording",
        qualifiers=counted("qualifiers", kernel.qualifiers),
        selection=counted("selection", kernel.selection),
        combined=counted("combined", kernel.combined),
    ))
    return calls


def passes(calls, stage):
    return sorted(fid for name, fid, _ in calls if name == stage)


class TestTheTableIsTheSeam:
    def test_sync_pax2_runs_every_pass_on_the_named_tier(self, recording):
        stats = DistributedQueryEngine(clientele(), engine="recording").run(QUALIFIED)
        assert stats.answer_ids
        assert passes(recording, "combined") == sorted(stats.fragments_evaluated)
        assert {name for name, _, _ in recording} == {"combined"}
        assert sum(ops for _, _, ops in recording) == stats.total_operations

    def test_sync_pax3_runs_every_pass_on_the_named_tier(self, recording):
        fragmentation = clientele()
        stats = DistributedQueryEngine(
            fragmentation, algorithm="pax3", engine="recording"
        ).run(QUALIFIED)
        assert stats.answer_ids
        assert passes(recording, "qualifiers") == sorted(fragmentation.fragment_ids())
        assert passes(recording, "selection") == sorted(stats.fragments_evaluated)
        assert sum(ops for _, _, ops in recording) == stats.total_operations

    def test_sync_parbox_runs_every_pass_on_the_named_tier(self, recording):
        fragmentation = clientele()
        engine = DistributedQueryEngine(fragmentation, algorithm="parbox", engine="recording")
        stats = engine.run(BOOLEAN)
        assert stats.answer_ids
        assert passes(recording, "qualifiers") == sorted(fragmentation.fragment_ids())
        assert {name for name, _, _ in recording} == {"qualifiers"}
        assert sum(ops for _, _, ops in recording) == stats.total_operations

    def test_a_service_read_runs_every_pass_on_the_named_tier(self, recording):
        host = ServiceHost(engine="recording", cache_capacity=0)
        assert host.engine is ENGINES["recording"]
        host.register("doc", clientele())
        stats = host.run("doc", QUALIFIED)
        assert stats.answer_ids
        assert passes(recording, "combined") == sorted(stats.fragments_evaluated)
        assert sum(ops for _, _, ops in recording) == stats.total_operations

    def test_the_named_tier_answers_like_the_kernel(self, recording):
        for algorithm in ("pax2", "pax3"):
            assert (
                DistributedQueryEngine(clientele(), algorithm=algorithm, engine="recording")
                .run(QUALIFIED).answer_ids
                == DistributedQueryEngine(clientele(), algorithm=algorithm, engine=KERNEL)
                .run(QUALIFIED).answer_ids
            )


@pytest.fixture
def vector_unavailable(monkeypatch):
    """The vector tier cannot run here: really, without numpy, or with its
    ``available`` patched where numpy is installed."""
    if ENGINES[VECTOR].available():
        monkeypatch.setitem(ENGINES, VECTOR, replace(ENGINES[VECTOR], available=lambda: False))


@pytest.fixture
def document(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text("<r><a><b>1</b></a><a><b>2</b></a><c/></r>", encoding="utf-8")
    queries = tmp_path / "queries.txt"
    queries.write_text("//b\n", encoding="utf-8")
    return str(path), str(queries)


class TestAnUnavailableTier:
    def test_the_host_refuses_it_at_construction(self, vector_unavailable):
        with pytest.raises(EngineUnavailableError, match="pip install numpy"):
            ServiceHost(engine=VECTOR)

    def test_a_sync_run_fails_before_any_site_visit(self, vector_unavailable):
        fragmentation = clientele()
        network = build_network(fragmentation, None)
        with pytest.raises(EngineUnavailableError, match="numpy"):
            run_pax2(fragmentation, QUALIFIED, network=network, engine=VECTOR)
        assert all(site.visits == 0 for site in network.sites.values())
        with pytest.raises(EngineUnavailableError):
            prewarm_fragments(fragmentation, engine=VECTOR)

    def test_naive_runs_no_pass_and_keeps_working(self, vector_unavailable):
        fragmentation = clientele()
        naive = DistributedQueryEngine(fragmentation, algorithm="naive", engine=VECTOR)
        kernel = DistributedQueryEngine(fragmentation, engine=KERNEL)
        assert naive.execute(QUALIFIED).answer_ids == kernel.execute(QUALIFIED).answer_ids

    @pytest.mark.parametrize("command", ["query", "serve"])
    def test_the_cli_prints_one_line_and_exits_2(
        self, vector_unavailable, document, command, capsys
    ):
        path, queries = document
        argv = (
            ["query", path, "//b"] if command == "query" else ["serve", path, "--queries", queries]
        )
        assert main(argv + ["--engine", VECTOR]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: ") and "pip install numpy" in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert "answer" not in captured.out


class TestAPlacementMissingFragments:
    @staticmethod
    def fragmented():
        fragmentation = cut_top_level(parse_xml("<r><a><b>1</b></a><a><b>2</b></a><c/></r>"))
        placement = one_site_per_fragment(fragmentation)
        return fragmentation, placement

    def test_a_rejected_register_leaves_the_catalog_as_it_was(self):
        fragmentation, placement = self.fragmented()
        bad = {fid: site for fid, site in placement.items() if fid != "F1"}
        host = ServiceHost()
        with pytest.raises(ValueError, match="F1"):
            host.register("d", fragmentation, bad)
        assert host.documents() == [] and "d" not in host.sessions
        host.register("d", fragmentation, placement)
        assert host.execute("d", "//b").answer_ids

    def test_the_error_names_every_uncovered_fragment(self):
        fragmentation, placement = self.fragmented()
        kept = {"F0": placement["F0"]}
        with pytest.raises(ValueError) as caught:
            DistributedQueryEngine(fragmentation, kept)
        missing = [fid for fid in fragmentation.fragment_ids() if fid != "F0"]
        assert len(missing) >= 2
        for fid in missing:
            assert fid in str(caught.value)
