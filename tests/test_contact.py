from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn

from spectratact import (
    ConfigError,
    CouplingLaw,
    PerturbationState,
    coupled_fraction,
    default_red_dye,
    fit_position,
    grid_intensities,
    strained_dye,
    sweep,
)
from spectratact.twin import encoder_sensor_config


class TestCoupledFraction:
    def test_zero_force(self):
        assert coupled_fraction(CouplingLaw(), 0.0) == 0.0

    def test_threshold_boundary(self):
        law = CouplingLaw()
        assert coupled_fraction(law, law.f_threshold_n) == 0.0

    def test_default_normalization_at_5n(self):
        # gain is fixed by requiring half coupling at 5 N
        assert coupled_fraction(CouplingLaw(), 5.0) == pytest.approx(0.5, rel=1e-12)

    def test_continuous_at_threshold(self):
        law = CouplingLaw()
        assert coupled_fraction(law, law.f_threshold_n + 1e-12) < 1e-7

    def test_saturates_at_one(self):
        law = CouplingLaw()
        assert coupled_fraction(law, 1e6) == 1.0
        assert coupled_fraction(law, 10.0) < 1.0

    def test_power_past_the_float_range_saturates(self):
        # (1e200 - f0) ** 2 raises OverflowError in Python floats
        assert coupled_fraction(CouplingLaw(exponent=2.0), 1e200) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(f1=stn.floats(0.0, 20.0), f2=stn.floats(0.0, 20.0))
    def test_monotone_nondecreasing(self, f1, f2):
        law = CouplingLaw()
        lo, hi = sorted((f1, f2))
        assert coupled_fraction(law, lo) <= coupled_fraction(law, hi)
        assert 0.0 <= coupled_fraction(law, hi) <= 1.0

    def test_strictly_increasing_unsaturated(self):
        law = CouplingLaw()
        forces = np.linspace(law.f_threshold_n + 0.01, 10.0, 50)
        values = [coupled_fraction(law, f) for f in forces]
        assert np.all(np.diff(values) > 0)

    def test_negative_force_rejected(self):
        with pytest.raises(ValueError):
            coupled_fraction(CouplingLaw(), -0.1)

    def test_law_validation(self):
        with pytest.raises(ValueError):
            CouplingLaw(f_threshold_n=-1.0)
        with pytest.raises(ValueError):
            CouplingLaw(gain=0.0)
        with pytest.raises(ValueError):
            CouplingLaw(exponent=2.5)


class TestStrainedDye:
    def test_zero_strain_unchanged(self):
        dye = default_red_dye()
        assert strained_dye(dye, 0.0) is dye

    def test_quarter_strain_scales_by_point_eight(self):
        dye = default_red_dye()
        out = strained_dye(dye, 0.25)
        assert np.allclose(out.decay_per_mm, 0.8 * dye.decay_per_mm, rtol=1e-15)

    def test_log_ratio_slope_scales_with_strain(self, line_config):
        # chain rule through the affine law: slope under strain e is
        # 1/(1+e) times the unstrained slope
        def slope_at(strain):
            config = replace(line_config, perturbation=PerturbationState(strain=strain))
            xs, _, values = sweep(config, np.linspace(0.0, 80.0, 9), [2.0])
            return fit_position(config.bank.names, values, xs).slope

        base = slope_at(0.0)
        assert slope_at(0.25) == pytest.approx(0.8 * base, rel=1e-9)

    def test_strained_response_stays_affine(self, line_config):
        for strain in (0.1, 0.25):
            config = replace(line_config, perturbation=PerturbationState(strain=strain))
            xs, _, values = sweep(config, np.linspace(0.0, 85.0, 86), [2.0])
            cal = fit_position(config.bank.names, values, xs)
            assert cal.r_squared > 1.0 - 1e-9

    def test_compression_limit(self):
        # exactly the bound of PerturbationState.strain: no compression, at most MAX_STRAIN
        dye = default_red_dye()
        strained_dye(dye, 0.5)
        for strain in (-0.03, 0.6):
            with pytest.raises(ValueError, match=r"^strain must lie in \[0, 0\.5\]"):
                strained_dye(dye, strain)


class TestBendingGain:
    """The optical gain under a bend is exactly 1 up to a half turn, the bound of ``bend_deg``."""

    @pytest.mark.parametrize("bend", [0.0, 45.0, 90.0, 135.0, 180.0])
    def test_identity_within_supported_range(self, default_config, bend):
        bent = replace(default_config, perturbation=PerturbationState(bend_deg=bend))
        xs, forces = np.linspace(0.0, 85.0, 18), [2.0]
        assert grid_intensities(bent, xs, forces).tobytes() == \
            grid_intensities(default_config, xs, forces).tobytes()

    def test_beyond_half_turn_rejected(self):
        with pytest.raises(ConfigError, match=r"^'bend_deg' must lie in \[0, 180\], got 181.0$"):
            PerturbationState(bend_deg=181.0)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            PerturbationState(strain=-0.1)
        with pytest.raises(ValueError):
            PerturbationState(strain=0.6)
        with pytest.raises(ValueError):
            PerturbationState(bend_deg=-5.0)
