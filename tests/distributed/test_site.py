"""Unit tests for sites and their counters."""

import time

from repro.distributed.site import Site


class TestSite:
    def test_fragment_assignment(self):
        site = Site("S1", ("F1", "F2"))
        assert site.fragment_ids == ["F1", "F2"]
        assert site.holds("F1") and not site.holds("F9")
        assert site.storage["F1"] == {}

    def test_visit_counts_and_times(self):
        site = Site("S1")
        with site.visit("stage-a"):
            time.sleep(0.002)
        with site.visit("stage-a"):
            pass
        with site.visit("stage-b"):
            pass
        assert site.visits == 3
        assert site.stage_seconds["stage-a"] > 0.0
        assert site.total_seconds() >= site.stage_seconds["stage-a"]

    def test_visit_records_time_even_on_error(self):
        site = Site("S1")
        try:
            with site.visit("stage"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert site.visits == 1
        assert "stage" in site.stage_seconds

    def test_operations_counter(self):
        site = Site("S1")
        site.add_operations(10)
        site.add_operations(5)
        assert site.operations == 15

    def test_reset_counters_keeps_storage(self):
        site = Site("S1", ["F1"])
        site.storage["F1"]["key"] = "value"
        with site.visit("stage"):
            site.add_operations(3)
        site.reset_counters()
        assert site.visits == 0 and site.operations == 0 and not site.stage_seconds
        assert site.storage["F1"]["key"] == "value"

    def test_clear_storage(self):
        site = Site("S1", ["F1"])
        site.storage["F1"]["key"] = "value"
        site.clear_storage()
        assert site.storage["F1"] == {}
