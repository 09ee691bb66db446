"""Tests for the parameterised response models."""

import numpy as np
import pytest

from repro.detector import CaloResponse, EfficiencyCurve
from repro.errors import ConfigurationError


class TestCaloResponse:
    def test_resolution_improves_with_energy(self):
        response = CaloResponse(stochastic_term=0.1, constant_term=0.01)
        assert (response.relative_resolution(10.0)
                > response.relative_resolution(100.0))

    def test_constant_term_floor(self):
        response = CaloResponse(stochastic_term=0.1, constant_term=0.02)
        assert response.relative_resolution(1e6) == pytest.approx(
            0.02, rel=0.01
        )

    def test_smear_statistics(self, rng):
        response = CaloResponse(stochastic_term=0.5, constant_term=0.0)
        energies = [response.smear(100.0, rng) for _ in range(4000)]
        assert np.mean(energies) == pytest.approx(100.0, rel=0.01)
        assert np.std(energies) == pytest.approx(5.0, rel=0.1)

    def test_smear_never_negative(self, rng):
        response = CaloResponse(stochastic_term=2.0, constant_term=0.5)
        assert all(response.smear(0.5, rng) >= 0.0 for _ in range(500))

    def test_energy_scale_applied(self, rng):
        response = CaloResponse(stochastic_term=0.0, constant_term=0.0,
                                energy_scale=1.05)
        assert response.smear(100.0, rng) == pytest.approx(105.0)

    def test_negative_terms_rejected(self):
        with pytest.raises(ConfigurationError):
            CaloResponse(stochastic_term=-0.1, constant_term=0.0)

    def test_zero_energy(self, rng):
        response = CaloResponse(stochastic_term=0.1, constant_term=0.01)
        assert response.smear(0.0, rng) == 0.0


class TestEfficiencyCurve:
    def test_half_plateau_at_threshold(self):
        curve = EfficiencyCurve(plateau=0.9, threshold=20.0, width=2.0)
        assert curve.value(20.0) == pytest.approx(0.45)

    def test_plateau_reached(self):
        curve = EfficiencyCurve(plateau=0.95, threshold=5.0, width=1.0)
        assert curve.value(50.0) == pytest.approx(0.95, rel=1e-6)

    def test_monotonic(self):
        curve = EfficiencyCurve(plateau=0.9, threshold=10.0, width=3.0)
        values = [curve.value(pt) for pt in range(0, 50, 5)]
        assert values == sorted(values)

    def test_sampling_statistics(self, rng):
        curve = EfficiencyCurve(plateau=0.8, threshold=0.0, width=0.001)
        passes = sum(curve.passes(10.0, rng) for _ in range(4000))
        assert passes / 4000 == pytest.approx(0.8, abs=0.03)

    def test_invalid_plateau_rejected(self):
        with pytest.raises(ConfigurationError):
            EfficiencyCurve(plateau=1.2, threshold=1.0, width=1.0)

    def test_invalid_width_rejected(self):
        with pytest.raises(ConfigurationError):
            EfficiencyCurve(plateau=0.9, threshold=1.0, width=0.0)
