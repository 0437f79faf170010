import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as stn

from spectratact import (
    BelowFloorError,
    ChannelBank,
    DyeProfile,
    GridMismatchError,
    Spectrum,
    attenuate,
    default_bank,
    default_red_dye,
    default_wavelength_grid,
    integrate_channels,
    line_bank,
    log_ratio,
)
from spectratact.spectral import log_ratios

GRID = default_wavelength_grid()


def constant_dye(k_per_mm, concentration=1.0):
    return DyeProfile(GRID, np.full_like(GRID, k_per_mm), concentration)


class TestAttenuate:
    def test_zero_path_is_identity(self):
        spectrum = Spectrum(GRID, np.linspace(0.5, 2.0, GRID.size))
        out = attenuate(spectrum, default_red_dye(), 0.0)
        assert np.array_equal(out.intensities, spectrum.intensities)

    def test_unit_spectrum_closed_form(self):
        # I = I0 * exp(-k x) with k = 0.01 /mm, x = 100 mm -> e^-1 everywhere
        out = attenuate(Spectrum.flat(), constant_dye(0.01), 100.0)
        assert np.allclose(out.intensities, 0.36787944117144233, rtol=1e-12)

    def test_composition(self):
        spectrum = Spectrum(GRID, np.full_like(GRID, 3.0))
        dye = default_red_dye()
        once = attenuate(spectrum, dye, 37.5)
        twice = attenuate(attenuate(spectrum, dye, 12.5), dye, 25.0)
        assert np.allclose(twice.intensities, once.intensities, rtol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        a=stn.floats(0.0, 60.0),
        b=stn.floats(0.0, 60.0),
        k=stn.floats(0.0, 0.2),
    )
    def test_composition_property(self, a, b, k):
        spectrum = Spectrum.flat()
        dye = constant_dye(k)
        once = attenuate(spectrum, dye, a + b)
        twice = attenuate(attenuate(spectrum, dye, a), dye, b)
        assert np.allclose(twice.intensities, once.intensities, rtol=1e-12)

    def test_monotone_in_path(self):
        spectrum = Spectrum(GRID, np.full_like(GRID, 2.0))
        dye = default_red_dye()
        previous = attenuate(spectrum, dye, 0.0).intensities
        for path in (1.0, 5.0, 20.0, 80.0):
            current = attenuate(spectrum, dye, path).intensities
            assert np.all(current <= previous)
            previous = current

    def test_negative_path_rejected(self):
        with pytest.raises(ValueError):
            attenuate(Spectrum.flat(), default_red_dye(), -1.0)

    def test_grid_mismatch_rejected(self):
        other = np.arange(450.0, 650.0)
        spectrum = Spectrum(other, np.ones_like(other))
        with pytest.raises(GridMismatchError):
            attenuate(spectrum, default_red_dye(), 1.0)


class TestIntegrateChannels:
    def test_zero_spectrum(self):
        out = integrate_channels(Spectrum(GRID, np.zeros_like(GRID)), default_bank())
        assert np.array_equal(out, [0.0, 0.0, 0.0])

    def test_unit_spectrum_band_widths(self):
        # rectangle rule at 1 nm: B and G cover 100 samples, R covers 101
        out = integrate_channels(Spectrum.flat(), default_bank())
        assert np.allclose(out, [100.0, 100.0, 101.0], rtol=1e-12)

    def test_disjoint_support(self):
        intensities = np.where(GRID >= 600.0, 1.0, 0.0)
        b, g, r = integrate_channels(Spectrum(GRID, intensities), default_bank())
        assert b == 0 and g == 0 and r > 0

    @settings(max_examples=25, deadline=None)
    @given(a=stn.floats(0.0, 5.0), b=stn.floats(0.0, 5.0))
    def test_linearity(self, a, b):
        rng = np.random.default_rng(7)
        s1 = Spectrum(GRID, rng.uniform(0.0, 2.0, GRID.size))
        s2 = Spectrum(GRID, rng.uniform(0.0, 2.0, GRID.size))
        bank = default_bank()
        combined = Spectrum(GRID, a * s1.intensities + b * s2.intensities)
        expected = a * integrate_channels(s1, bank) + b * integrate_channels(s2, bank)
        assert np.allclose(integrate_channels(combined, bank), expected, rtol=1e-12)

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError, match="^channel bank must not be empty$"):
            ChannelBank(GRID, (), [])

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match=r"^duplicate channel names: \['B', 'R', 'B'\]$"):
            ChannelBank(GRID, ("B", "R", "B"), np.ones((3, GRID.size)))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_row_count_must_match_the_names(self, rows):
        with pytest.raises(ValueError, match=f"^{rows} response rows for 2 channel names$"):
            ChannelBank(GRID, ("B", "R"), np.ones((rows, GRID.size)))

    def test_bank_stores_one_grid_a_name_tuple_and_one_matrix(self):
        bank = ChannelBank(GRID.tolist(), ["B", "R"], [np.ones(GRID.size), np.eye(GRID.size)[3]])
        assert np.array_equal(bank.wavelengths_nm, GRID)
        assert bank.names == ("B", "R")
        assert bank.responses.shape == (2, GRID.size)
        assert bank.responses is bank.responses  # stored, not rebuilt per access


class TestLogRatio:
    def test_equal_channels(self):
        assert log_ratio({"B": 3.5, "R": 3.5}, "B", "R") == 0.0

    def test_single_wavelength_affine_law(self):
        # ln(I_b / I_r) = (k_r - k_b) x + ln(I_b0 / I_r0)
        bank = line_bank([("B", 450.0), ("R", 650.0)])
        source = Spectrum(GRID, np.where(GRID < 550.0, 2.0, 0.5))
        dye = default_red_dye()
        k_b = dye.decay_per_mm[np.searchsorted(GRID, 450.0)]
        k_r = dye.decay_per_mm[np.searchsorted(GRID, 650.0)]
        x = 33.0
        reading = integrate_channels(attenuate(source, dye, x), bank)
        value = log_ratio({"B": reading[0], "R": reading[1]}, "B", "R")
        expected = (k_r - k_b) * x + math.log(2.0 / 0.5)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_columns_mark_unlit_rows_and_keep_math_log(self):
        num = [2.0, 0.0, math.nan, 1e-300, 1e300, 3.0]
        den = [3.0, 1.0, 1.0, 1e30, 1e-30, -1.0]
        lit, log = log_ratios(num, den)
        assert lit.tolist() == [True, False, False, True, True, False]
        assert log.tolist() == [math.log(2.0 / 3.0), -math.inf, math.inf]

    def test_zero_numerator_raises(self):
        with pytest.raises(BelowFloorError):
            log_ratio({"B": 0.0, "R": 1.0}, "B", "R")

    def test_zero_denominator_raises(self):
        with pytest.raises(BelowFloorError):
            log_ratio({"B": 1.0, "R": 0.0}, "B", "R")


class TestDefaults:
    def test_default_dye_monotone_nonincreasing(self):
        dye = default_red_dye()
        assert np.all(np.diff(dye.decay_per_mm) <= 0)
        assert np.all(dye.decay_per_mm >= 0)

    def test_concentration_scales_single_wavelength_slope(self):
        bank = line_bank([("B", 450.0), ("R", 650.0)])
        source = Spectrum.flat()
        for scale in (0.5, 2.0, 3.0):
            slopes = []
            for concentration in (1.0, scale):
                dye = replace(default_red_dye(), concentration_scale=concentration)
                values = []
                for x in (10.0, 60.0):
                    out = integrate_channels(attenuate(source, dye, x), bank)
                    values.append(math.log(out[0] / out[1]))
                slopes.append((values[1] - values[0]) / 50.0)
            assert slopes[1] == pytest.approx(scale * slopes[0], rel=1e-12)

    def test_grid_default(self):
        assert GRID[0] == 400.0 and GRID[-1] == 700.0 and GRID.size == 301


class TestSerialization:
    def test_spectrum_round_trip(self, tmp_path):
        spectrum = Spectrum(GRID, np.linspace(0.1, 1.0, GRID.size))
        doc = json.loads(json.dumps(spectrum.to_dict()))
        again = Spectrum.from_dict(doc)
        assert np.array_equal(again.intensities, spectrum.intensities)
        assert np.array_equal(again.wavelengths_nm, spectrum.wavelengths_nm)

    def test_dye_round_trip(self):
        dye = replace(default_red_dye(), concentration_scale=1.7)
        again = DyeProfile.from_dict(json.loads(json.dumps(dye.to_dict())))
        assert np.array_equal(again.decay_per_mm, dye.decay_per_mm)
        assert again.concentration_scale == dye.concentration_scale

    def test_bank_round_trip(self):
        bank = default_bank()
        again = ChannelBank.from_dict(json.loads(json.dumps(bank.to_dict())))
        assert again.names == bank.names
        assert np.array_equal(again.responses, bank.responses)

    def test_bank_shorthand_entries(self):
        doc = {
            "wavelengths_nm": GRID.tolist(),
            "channels": [
                {"name": "B", "band_nm": [400.0, 500.0]},
                {"name": "R", "line_nm": 650.0},
            ],
        }
        bank = ChannelBank.from_dict(doc)
        assert bank.responses[bank.names.index("B")].sum() == 100.0
        assert bank.responses[bank.names.index("R")].sum() == 1.0

    def test_validation_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            Spectrum(GRID, -np.ones_like(GRID))
        with pytest.raises(ValueError):
            Spectrum(GRID[::-1], np.ones_like(GRID))
        with pytest.raises(ValueError):
            DyeProfile(GRID, -np.ones_like(GRID))
        with pytest.raises(ValueError):
            DyeProfile(GRID, np.ones_like(GRID), concentration_scale=-1.0)

    @pytest.mark.parametrize("make, field", [
        (lambda values: Spectrum(GRID, values), "intensities"),
        (lambda values: DyeProfile(GRID, values), "decay_per_mm"),
        (lambda values: ChannelBank(GRID, ("R", "B"), [np.ones_like(GRID), values]), "response"),
    ], ids=["Spectrum", "DyeProfile", "Channel"])
    @pytest.mark.parametrize("bad, message", [
        (np.ones(GRID.size - 1), "must match the wavelength grid shape"),
        (np.full(GRID.size, -1.0), "must be finite and nonnegative"),
        (np.full(GRID.size, math.nan), "must be finite and nonnegative"),
        (np.full(GRID.size, math.inf), "must be finite and nonnegative"),
    ], ids=["shape", "negative", "nan", "inf"])
    def test_each_sample_check_names_its_field(self, make, field, bad, message):
        with pytest.raises(ValueError, match=f"^{field} {message}$"):
            make(bad)

    def test_all_zero_channel_is_refused_by_name(self):
        with pytest.raises(ValueError, match="^channel 'B' has zero integral$"):
            ChannelBank(GRID, ("R", "B"), [np.ones_like(GRID), np.zeros_like(GRID)])
