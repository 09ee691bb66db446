"""Tests for the generator driver."""

import pytest

from repro.errors import ConfigurationError
from repro.generation import (
    DrellYanZ,
    GeneratorConfig,
    MinimumBias,
    QCDDijets,
    ToyGenerator,
)
from repro.generation.processes import Tune


class TestConfiguration:
    def test_empty_process_list_rejected(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(processes=[])

    def test_negative_pileup_rejected(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(processes=[DrellYanZ()], pileup_mu=-1.0)

    def test_bad_sqrt_s_rejected(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(processes=[DrellYanZ()], sqrt_s=0.0)

    def test_negative_cross_section_rejected(self):
        # A negative weight would make the process-choice CDF
        # non-monotonic; it must fail when the generator is built.
        with pytest.raises(ConfigurationError, match="non-negative"):
            ToyGenerator(GeneratorConfig(processes=[
                DrellYanZ(cross_section_pb=-1.0), MinimumBias()]))


class TestGeneration:
    def test_event_count_and_numbering(self):
        generator = ToyGenerator(
            GeneratorConfig(processes=[DrellYanZ()], seed=1)
        )
        events = generator.generate(25)
        assert len(events) == 25
        assert [event.event_number for event in events] == list(range(25))

    def test_determinism(self):
        config = GeneratorConfig(processes=[DrellYanZ()], seed=99)
        events1 = ToyGenerator(config).generate(10)
        events2 = ToyGenerator(
            GeneratorConfig(processes=[DrellYanZ()], seed=99)
        ).generate(10)
        for a, b in zip(events1, events2):
            assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self):
        events1 = ToyGenerator(GeneratorConfig(
            processes=[DrellYanZ()], seed=1)).generate(5)
        events2 = ToyGenerator(GeneratorConfig(
            processes=[DrellYanZ()], seed=2)).generate(5)
        assert events1[0].to_dict() != events2[0].to_dict()

    def test_stream_matches_generate(self):
        config = GeneratorConfig(processes=[DrellYanZ()], seed=7)
        streamed = list(ToyGenerator(config).stream(8))
        batch = ToyGenerator(GeneratorConfig(
            processes=[DrellYanZ()], seed=7)).generate(8)
        assert [e.to_dict() for e in streamed] == [
            e.to_dict() for e in batch
        ]

    def test_mixture_respects_cross_sections(self):
        config = GeneratorConfig(
            processes=[DrellYanZ(cross_section_pb=100.0),
                       QCDDijets(cross_section_pb=9900.0)],
            seed=3,
        )
        events = ToyGenerator(config).generate(400)
        z_fraction = sum(1 for e in events
                         if e.process_name == "z_to_mumu") / len(events)
        assert z_fraction < 0.05

    def test_underlying_event_adds_particles(self):
        with_ue = ToyGenerator(GeneratorConfig(
            processes=[DrellYanZ()], seed=5)).generate(30)
        without_ue = ToyGenerator(GeneratorConfig(
            processes=[DrellYanZ()], seed=5,
            underlying_event=False)).generate(30)
        mean_with = sum(len(e.final_state()) for e in with_ue) / 30
        mean_without = sum(len(e.final_state()) for e in without_ue) / 30
        assert mean_with > mean_without + 5

    def test_pileup_increases_multiplicity(self):
        base = ToyGenerator(GeneratorConfig(
            processes=[DrellYanZ()], seed=6)).generate(30)
        piled = ToyGenerator(GeneratorConfig(
            processes=[DrellYanZ()], seed=6,
            pileup_mu=5.0)).generate(30)
        mean_base = sum(len(e.final_state()) for e in base) / 30
        mean_piled = sum(len(e.final_state()) for e in piled) / 30
        assert mean_piled > mean_base + 20

    def test_minbias_process_gets_no_extra_ue(self):
        events = ToyGenerator(GeneratorConfig(
            processes=[MinimumBias()], seed=8)).generate(50)
        mean = sum(len(e.final_state()) for e in events) / 50
        assert mean == pytest.approx(12.0, rel=0.25)


class TestRunInfo:
    def test_run_info_contents(self):
        config = GeneratorConfig(processes=[DrellYanZ()], seed=42,
                                 tune=Tune.tune_b(), pileup_mu=2.0)
        info = ToyGenerator(config).run_info
        assert info.seed == 42
        assert info.tune_name == "TUNE-B"
        assert info.pileup_mu == 2.0
        assert info.processes[0]["name"] == "z_to_mumu"

    def test_run_info_serialises(self):
        generator = ToyGenerator(GeneratorConfig(
            processes=[DrellYanZ()], seed=1))
        record = generator.run_info.to_dict()
        assert record["generator"] == "toygen"
        assert isinstance(record["processes"], list)
