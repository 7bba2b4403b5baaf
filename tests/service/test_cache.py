"""Unit tests for the normalized-query result cache."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.distributed.placement import one_site_per_fragment
from repro.distributed.stats import RunStats
from repro.service.cache import QueryResultCache, version_tag
from repro.service.prepared import PreparedQueries
from repro.service.store import DEFAULT_DOCUMENT
from repro.workloads.queries import clientele_example_tree, clientele_paper_fragmentation
from repro.xpath.parser import parse_xpath


def stats_for(query: str) -> RunStats:
    return RunStats(algorithm="PaX2", query=query, answer_ids=[1, 2, 3])


def normalized_query(query) -> str:
    """The text a session's result-cache keys carry for *query*."""
    return PreparedQueries(1).lookup(query)[0].key


def cache_key(query, use_annotations, version, document=DEFAULT_DOCUMENT):
    return (document, normalized_query(query), use_annotations, version)


class TestNormalizedQuery:
    @pytest.mark.parametrize(
        "variant, canonical",
        [
            ("//a/./b", "//a/b"),
            ("a//.//b", "a//b"),
            ("a/././b", "a/b"),
            ("/a[b][c]/d", "/a[b][c]/d"),
        ],
    )
    def test_equivalent_forms_share_a_key(self, variant, canonical):
        assert normalized_query(variant) == normalized_query(canonical)

    def test_distinct_queries_get_distinct_keys(self):
        assert normalized_query("//a/b") != normalized_query("//a/c")
        assert normalized_query("/a/b") != normalized_query("a/b")

    def test_accepts_parsed_paths(self):
        assert normalized_query(parse_xpath("//a/./b")) == normalized_query("//a/b")

    def test_merged_qualifiers_normalize_alike(self):
        # Consecutive qualifiers merge into one (the paper's last rule).
        assert normalized_query("a[b][c]") == normalized_query("a[b][c]")
        assert normalized_query("a[b][c]") != normalized_query("a[b]")


class TestVersionTag:
    def test_stable_for_identical_inputs(self):
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        placement = one_site_per_fragment(fragmentation)
        assert version_tag(fragmentation, placement) == version_tag(fragmentation, placement)

    def test_changes_with_placement(self):
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        placement = one_site_per_fragment(fragmentation)
        moved = dict(placement)
        any_fragment = next(iter(moved))
        moved[any_fragment] = "elsewhere"
        assert version_tag(fragmentation, placement) != version_tag(fragmentation, moved)

    def test_changes_with_document_content(self):
        first = clientele_paper_fragmentation(clientele_example_tree())
        second = clientele_paper_fragmentation(clientele_example_tree())
        placement = one_site_per_fragment(first)
        # Edit a text node in place: the fingerprint must move.
        for node in second.tree.root.iter_subtree():
            if not node.is_element:
                node.value = "edited"
                break
        assert version_tag(first, placement) != version_tag(second, placement)

    def test_changes_with_a_mutation_epoch(self):
        from repro.updates import EditText, apply_mutation

        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        placement = one_site_per_fragment(fragmentation)
        before = version_tag(fragmentation, placement)
        target = next(
            node for node in fragmentation.tree.root.iter_subtree() if node.is_text
        )
        apply_mutation(fragmentation, EditText(target.node_id, "epoch-moved"))
        assert version_tag(fragmentation, placement) != before

    def test_stable_across_processes_under_hash_randomization(self, tmp_path):
        # Regression: the tag used to fold builtin hash() of placement sites,
        # which PYTHONHASHSEED randomization salts differently per process —
        # two replicas of the same service then disagreed on every tag.
        script = tmp_path / "emit_tag.py"
        script.write_text(
            "from repro.distributed.placement import one_site_per_fragment\n"
            "from repro.service.cache import version_tag\n"
            "from repro.workloads.queries import (\n"
            "    clientele_example_tree, clientele_paper_fragmentation)\n"
            "fragmentation = clientele_paper_fragmentation(clientele_example_tree())\n"
            "print(version_tag(fragmentation, one_site_per_fragment(fragmentation)))\n",
            encoding="utf-8",
        )
        src = Path(__file__).resolve().parents[2] / "src"

        def tag_under(seed: str) -> str:
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
            return subprocess.run(
                [sys.executable, str(script)],
                capture_output=True, text=True, check=True, env=env,
            ).stdout.strip()

        tags = {tag_under(seed) for seed in ("0", "1", "424242")}
        assert len(tags) == 1, f"version tags diverged across processes: {tags}"

    def test_lookup_path_never_rewalks_the_document(self):
        # Regression: version_tag used to call content_version(refresh=True),
        # a full-document walk, on every cache lookup.  The request path must
        # serve from the cached/epoch-based version: O(#fragments), 0 walks.
        fragmentation = clientele_paper_fragmentation(clientele_example_tree())
        placement = one_site_per_fragment(fragmentation)
        version_tag(fragmentation, placement)  # settles the content base
        walks_before = fragmentation.full_walks
        for _ in range(50):
            version_tag(fragmentation, placement)
        assert fragmentation.full_walks == walks_before


class TestQueryResultCache:
    def key(self, cache, query, version="v0"):
        return cache_key(query, True, version)

    def test_miss_then_hit(self):
        cache = QueryResultCache(capacity=4)
        key = self.key(cache, "//a/b")
        assert cache.get(key) is None
        cache.put(key, stats_for("//a/b"))
        assert cache.get(key).answer_ids == [1, 2, 3]
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_equivalent_query_text_hits(self):
        cache = QueryResultCache(capacity=4)
        cache.put(self.key(cache, "//a/./b"), stats_for("//a/b"))
        assert cache.get(self.key(cache, "//a/b")) is not None

    def test_lru_eviction_order(self):
        cache = QueryResultCache(capacity=2)
        first, second, third = (
            self.key(cache, q) for q in ("//a", "//b", "//c")
        )
        cache.put(first, stats_for("//a"))
        cache.put(second, stats_for("//b"))
        cache.get(first)  # refresh -> //b is now least recently used
        cache.put(third, stats_for("//c"))
        assert cache.get(first) is not None
        assert cache.get(second) is None
        assert cache.stats.evictions == 1

    def test_version_tag_separates_entries(self):
        cache = QueryResultCache(capacity=4)
        cache.put(self.key(cache, "//a", version="v0"), stats_for("//a"))
        assert cache.get(self.key(cache, "//a", version="v1")) is None

    def test_invalidate_all_and_by_version(self):
        cache = QueryResultCache(capacity=8)
        cache.put(self.key(cache, "//a", version="v0"), stats_for("//a"))
        cache.put(self.key(cache, "//b", version="v1"), stats_for("//b"))
        assert cache.invalidate(version="v0") == 1
        assert len(cache) == 1
        assert cache.invalidate() == 1
        assert len(cache) == 0
        assert cache.stats.invalidations == 2

    def test_invalidate_by_version_counts_each_entry(self):
        cache = QueryResultCache(capacity=8)
        for query in ("//a", "//b", "//c"):
            cache.put(self.key(cache, query, version="v0"), stats_for(query))
        cache.put(self.key(cache, "//d", version="v1"), stats_for("//d"))
        assert cache.invalidate(version="v0") == 3
        assert cache.stats.invalidations == 3
        assert cache.stats.evictions == 0  # invalidation is not eviction
        assert len(cache) == 1
        assert cache.invalidate(version="no-such-version") == 0
        assert cache.stats.invalidations == 3

    def test_reput_of_existing_key_does_not_grow_the_cache(self):
        cache = QueryResultCache(capacity=2)
        key = self.key(cache, "//a")
        other = self.key(cache, "//b")
        cache.put(key, stats_for("//a"))
        cache.put(other, stats_for("//b"))
        replacement = stats_for("//a-replacement")
        cache.put(key, replacement)
        assert len(cache) == 2
        assert cache.stats.evictions == 0  # re-put must not evict //b
        assert cache.get(key) is replacement
        assert cache.get(other) is not None
        # the re-put refreshed the key's LRU position: //b is evicted first
        cache.put(key, stats_for("//a"))  # touch //a again (most recent)
        cache.get(other)
        cache.put(self.key(cache, "//c"), stats_for("//c"))
        assert cache.get(key) is None  # //a was LRU after //b's get
        assert cache.get(other) is not None

    def test_retire_version_rekeys_untouched_dependencies(self):
        cache = QueryResultCache(capacity=8)
        key_a = self.key(cache, "//a", version="v0")
        key_b = self.key(cache, "//b", version="v0")
        key_c = self.key(cache, "//c", version="v0")
        cache.put(key_a, stats_for("//a"), dependencies=frozenset({"F1", "F2"}))
        cache.put(key_b, stats_for("//b"), dependencies=frozenset({"F3"}))
        cache.put(key_c, stats_for("//c"))  # no dependencies recorded

        rekeyed, dropped = cache.retire_version("v0", "v1", touched_fragment="F3")
        assert (rekeyed, dropped) == (1, 2)
        assert cache.stats.rekeyed == 1
        assert cache.stats.invalidations == 2
        # the //a entry survived under the new version…
        assert cache.get(self.key(cache, "//a", version="v1")) is not None
        # …and can survive further writes (dependencies carried over)
        assert cache.retire_version("v1", "v2", touched_fragment="F9") == (1, 0)
        assert cache.get(self.key(cache, "//a", version="v2")) is not None
        # the touched and dependency-less entries are gone under any version
        for version in ("v0", "v1", "v2"):
            assert cache.get(self.key(cache, "//b", version=version)) is None
            assert cache.get(self.key(cache, "//c", version=version)) is None

    def test_annotations_in_key(self):
        cache = QueryResultCache(capacity=8)
        cache.put(cache_key("//a", True, "v0"), stats_for("//a"))
        assert cache.get(cache_key("//a", False, "v0")) is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            QueryResultCache(capacity=0)

    def test_stats_summary_renders(self):
        cache = QueryResultCache(capacity=2)
        cache.get(self.key(cache, "//a"))
        assert "hits" in cache.stats.summary()
        assert cache.stats.to_dict()["misses"] == 1


class TestTenantIsolation:
    """One shared LRU, many document namespaces (the ServiceHost contract)."""

    def key(self, cache, query, document, version="v0"):
        return cache_key(query, True, version, document=document)

    def test_same_query_and_version_separate_per_document(self):
        cache = QueryResultCache(capacity=8)
        cache.put(self.key(cache, "//a", "alpha"), stats_for("//a"))
        assert cache.get(self.key(cache, "//a", "beta")) is None
        assert cache.get(self.key(cache, "//a", "alpha")) is not None
        assert cache.stats.document("alpha").hits == 1
        assert cache.stats.document("beta").misses == 1

    def test_hot_tenant_evictions_are_charged_to_the_victim(self):
        # A hot tenant pushing a cold tenant's entries out of the shared LRU
        # must show up in the cold tenant's per-document eviction counter.
        cache = QueryResultCache(capacity=4)
        cold_key = self.key(cache, "//cold", "cold")
        cache.put(cold_key, stats_for("//cold"))
        for index in range(4):
            cache.put(self.key(cache, f"//hot{index}", "hot"), stats_for("//hot"))
        assert cold_key not in cache
        assert cache.stats.evictions == 1
        assert cache.stats.document("cold").evictions == 1
        assert cache.stats.document("hot").evictions == 0
        assert cache.stats.document("hot").stores == 4
        # continued pressure now evicts the hot tenant's own oldest entries
        cache.put(self.key(cache, "//hot4", "hot"), stats_for("//hot"))
        assert cache.stats.document("hot").evictions == 1

    def test_purge_document_leaves_other_tenants_untouched(self):
        cache = QueryResultCache(capacity=8)
        for document in ("alpha", "beta"):
            for query in ("//a", "//b"):
                cache.put(self.key(cache, query, document), stats_for(query))
        assert cache.purge_document("alpha") == 2
        assert cache.document_entry_count("alpha") == 0
        assert cache.document_entry_count("beta") == 2
        assert cache.stats.document("alpha").invalidations == 2
        assert cache.stats.document("beta").invalidations == 0
        assert cache.get(self.key(cache, "//a", "beta")) is not None
        assert cache.purge_document("alpha") == 0  # idempotent

    def test_retire_version_is_document_scoped(self):
        # Two tenants share the same version tag *text* (identical content);
        # retiring one tenant's tag must not touch the other's entries.
        cache = QueryResultCache(capacity=8)
        cache.put(
            self.key(cache, "//a", "alpha"),
            stats_for("//a"),
            dependencies=frozenset({"F1"}),
        )
        cache.put(
            self.key(cache, "//a", "beta"),
            stats_for("//a"),
            dependencies=frozenset({"F1"}),
        )
        rekeyed, dropped = cache.retire_version(
            "v0", "v1", touched_fragment="F1", document="alpha"
        )
        assert (rekeyed, dropped) == (0, 1)
        assert cache.get(self.key(cache, "//a", "beta", version="v0")) is not None
        rekeyed, dropped = cache.retire_version(
            "v0", "v1", touched_fragment="F9", document="beta"
        )
        assert (rekeyed, dropped) == (1, 0)
        assert cache.get(self.key(cache, "//a", "beta", version="v1")) is not None

    def test_invalidate_by_document_and_version(self):
        cache = QueryResultCache(capacity=8)
        cache.put(self.key(cache, "//a", "alpha", version="v0"), stats_for("//a"))
        cache.put(self.key(cache, "//a", "alpha", version="v1"), stats_for("//a"))
        cache.put(self.key(cache, "//a", "beta", version="v0"), stats_for("//a"))
        assert cache.invalidate(version="v0", document="alpha") == 1
        assert cache.document_entry_count("alpha") == 1
        assert cache.document_entry_count("beta") == 1

    def test_per_document_stats_render(self):
        cache = QueryResultCache(capacity=4)
        cache.put(self.key(cache, "//a", "alpha"), stats_for("//a"))
        cache.get(self.key(cache, "//a", "alpha"))
        cache.get(self.key(cache, "//a", "beta"))
        summary = cache.stats.summary()
        assert "alpha" in summary and "beta" in summary
        payload = cache.stats.to_dict()
        assert payload["documents"]["alpha"]["hits"] == 1
        assert payload["documents"]["beta"]["misses"] == 1
