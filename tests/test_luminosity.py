"""Tests for run/luminosity bookkeeping and good-run lists."""

import pytest

from repro.datamodel import (
    GoodRunList,
    RunRecord,
    RunRegistry,
    certify_good_runs,
)
from repro.errors import DataModelError, PersistenceError


@pytest.fixture
def registry():
    registry = RunRegistry("RunA-2012")
    registry.add(RunRecord(1, 100, 0.5))
    registry.add(RunRecord(2, 200, 0.5))
    registry.add(RunRecord(3, 50, 0.5, detector_ok=False))
    return registry


class TestRunRegistry:
    def test_total_luminosity(self, registry):
        assert registry.total_luminosity_ipb() == pytest.approx(175.0)

    def test_duplicate_run_rejected(self, registry):
        with pytest.raises(DataModelError):
            registry.add(RunRecord(1, 10, 0.5))

    def test_unknown_run_raises(self, registry):
        with pytest.raises(DataModelError):
            registry.get(99)

    def test_run_validation(self):
        with pytest.raises(DataModelError):
            RunRecord(1, 0, 0.5)
        with pytest.raises(DataModelError):
            RunRecord(-1, 10, 0.5)
        with pytest.raises(DataModelError):
            RunRecord(1, 10, -0.5)

    def test_roundtrip(self):
        run = RunRecord(7, 42, 0.3, detector_ok=False)
        assert RunRecord.from_dict(run.to_dict()) == run


class TestGoodRunList:
    def test_certify_and_query(self):
        grl = GoodRunList("GRL-test")
        grl.certify(1, 1, 50)
        grl.certify(1, 60, 80)
        assert grl.is_good(1, 25)
        assert not grl.is_good(1, 55)
        assert grl.is_good(1, 60)
        assert not grl.is_good(2, 1)
        assert grl.certified_sections(1) == 71

    def test_overlapping_ranges_rejected(self):
        grl = GoodRunList("GRL-test")
        grl.certify(1, 1, 50)
        with pytest.raises(DataModelError):
            grl.certify(1, 40, 60)

    def test_bad_range_rejected(self):
        grl = GoodRunList("GRL-test")
        with pytest.raises(DataModelError):
            grl.certify(1, 0, 10)
        with pytest.raises(DataModelError):
            grl.certify(1, 10, 5)

    @pytest.mark.parametrize("numbers", [
        (1, 1, float("nan")),
        (1, float("nan"), 10),
        (1, 1, 10.0),
        (1.0, 1, 10),
        (True, 1, 10),
        (1, True, 10),
    ])
    def test_non_integer_numbers_rejected(self, numbers):
        grl = GoodRunList("GRL-test")
        with pytest.raises(DataModelError, match="run "):
            grl.certify(*numbers)
        assert grl.ranges == {}

    def test_certified_luminosity(self, registry):
        grl = GoodRunList("GRL-test")
        grl.certify(1, 1, 100)
        grl.certify(2, 1, 100)  # half of run 2
        assert grl.certified_luminosity_ipb(registry) == \
            pytest.approx(100.0)

    def test_ranges_clipped_to_run_length(self, registry):
        grl = GoodRunList("GRL-test")
        grl.certify(1, 1, 1000)  # run 1 only has 100 sections
        assert grl.certified_luminosity_ipb(registry) == \
            pytest.approx(50.0)

    def test_unknown_runs_ignored(self, registry):
        grl = GoodRunList("GRL-test")
        grl.certify(99, 1, 100)
        assert grl.certified_luminosity_ipb(registry) == 0.0

    def test_auto_certification_skips_bad_runs(self, registry):
        grl = certify_good_runs(registry)
        assert grl.is_good(1, 1)
        assert grl.is_good(2, 200)
        assert not grl.is_good(3, 1)
        assert grl.certified_luminosity_ipb(registry) == \
            pytest.approx(150.0)

    def test_file_roundtrip(self, registry, tmp_path):
        grl = certify_good_runs(registry)
        path = tmp_path / "grl.json"
        grl.save(path)
        loaded = GoodRunList.load(path)
        assert loaded.certified_luminosity_ipb(registry) == \
            pytest.approx(grl.certified_luminosity_ipb(registry))

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "nope"}')
        with pytest.raises(PersistenceError):
            GoodRunList.load(path)

    def test_load_refuses_a_fractional_section(self, tmp_path):
        path = tmp_path / "grl.json"
        path.write_text('{"format": "repro-good-run-list", "name": "g", '
                        '"ranges": {"1": [[1, 10.7]]}}')
        with pytest.raises(PersistenceError, match="run 1"):
            GoodRunList.load(path)


class TestLimitIntegration:
    def test_certified_luminosity_feeds_limits(self, registry):
        """A GRL change propagates into the physics result."""
        from repro.stats import CountingExperiment, cls_upper_limit

        full_grl = certify_good_runs(registry)
        partial = GoodRunList("partial")
        partial.certify(1, 1, 100)

        def limit_with(grl):
            luminosity = grl.certified_luminosity_ipb(registry)
            experiment = CountingExperiment(
                n_observed=3, background=3.0,
                background_uncertainty=0.3,
                signal_efficiency=0.5, luminosity=luminosity,
            )
            return cls_upper_limit(experiment, n_toys=1000,
                                   seed=11).upper_limit

        # Less certified luminosity -> weaker (larger) limit.
        assert limit_with(partial) > limit_with(full_grl)
