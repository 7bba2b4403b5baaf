"""Unit tests for run statistics and their derived quantities."""

import pytest

from repro.distributed.stats import RunStats, SiteStats, StageStats


def make_stats() -> RunStats:
    stats = RunStats(algorithm="PaX2", query="//a", use_annotations=True)
    stats.answer_ids = [4, 9, 11]
    stats.stages = [
        StageStats(name="combined", parallel_seconds=0.05, total_seconds=0.2,
                   coordinator_seconds=0.01, sites_involved=4),
        StageStats(name="answers", parallel_seconds=0.01, total_seconds=0.02,
                   coordinator_seconds=0.0, sites_involved=1),
    ]
    stats.sites = {
        "S0": SiteStats(site_id="S0", fragment_ids=("F0",), visits=2, seconds=0.07, operations=50),
        "S1": SiteStats(site_id="S1", fragment_ids=("F1",), visits=1, seconds=0.05, operations=80),
    }
    stats.communication_units = 42
    stats.local_units = 7
    stats.message_count = 6
    stats.fragments_evaluated = ["F0", "F1"]
    stats.fragments_pruned = ["F2"]
    stats.answer_nodes_shipped = 9
    return stats


class TestDerivedQuantities:
    def test_answer_count(self):
        assert make_stats().answer_count == 3

    def test_parallel_and_total_seconds(self):
        stats = make_stats()
        assert stats.parallel_seconds == (0.05 + 0.01) + (0.01 + 0.0)
        assert stats.total_seconds == (0.2 + 0.01) + (0.02 + 0.0)
        assert stats.total_seconds >= stats.parallel_seconds

    def test_max_site_visits_and_operations(self):
        stats = make_stats()
        assert stats.max_site_visits == 2
        assert stats.total_operations == 130
        assert stats.visits_by_site() == {"S0": 2, "S1": 1}

    def test_empty_stats(self):
        empty = RunStats(algorithm="PaX3", query="a")
        assert empty.max_site_visits == 0
        assert empty.parallel_seconds == 0.0
        assert empty.answer_count == 0

    def test_summary_mentions_key_figures(self):
        text = make_stats().summary()
        assert "PaX2" in text
        assert "XPath-annotations" in text
        assert "42 units" in text
        assert "pruned fragments : F2" in text
        assert "stage combined" in text


class TestSlottedRecords:
    @pytest.mark.parametrize("record", [
        make_stats(), make_stats().stages[0], make_stats().sites["S0"],
    ], ids=["RunStats", "StageStats", "SiteStats"])
    def test_records_carry_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.not_a_field = 1

    def test_to_dict_is_unchanged(self):
        assert make_stats().to_dict() == {
            "algorithm": "PaX2",
            "query": "//a",
            "use_annotations": True,
            "answer_count": 3,
            "answer_nodes_shipped": 9,
            "parallel_seconds": (0.05 + 0.01) + (0.01 + 0.0),
            "total_seconds": (0.2 + 0.01) + (0.02 + 0.0),
            "communication_units": 42,
            "local_units": 7,
            "message_count": 6,
            "max_site_visits": 2,
            "total_operations": 130,
            "fragments_evaluated": ["F0", "F1"],
            "fragments_pruned": ["F2"],
            "incomplete": False,
            "missing_sites": [],
            "missing_fragments": [],
            "stages": [
                {"name": "combined", "parallel_seconds": 0.05, "total_seconds": 0.2,
                 "coordinator_seconds": 0.01, "sites_involved": 4},
                {"name": "answers", "parallel_seconds": 0.01, "total_seconds": 0.02,
                 "coordinator_seconds": 0.0, "sites_involved": 1},
            ],
            "sites": {
                "S0": {"fragment_ids": ["F0"], "visits": 2, "seconds": 0.07, "operations": 50},
                "S1": {"fragment_ids": ["F1"], "visits": 1, "seconds": 0.05, "operations": 80},
            },
        }
