import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as stn

from spectratact import (
    ChannelReading,
    NoiseModel,
    OutOfSpanError,
    SensorConfig,
    SpectraTactError,
    Stimulus,
    default_red_dye,
    grid_intensities,
    line_bank,
    log_ratio,
    position_transmission,
    simulate_reading,
    sweep,
)
from spectratact.sensor import (
    SUBSTREAM_BATCH_MIN,
    _SeedWords,
    _seed_words,
    full_scale_intensity,
    substream,
    substreams,
)
from spectratact.spectral import ChannelBank, Spectrum, default_wavelength_grid


class TestSimulateReading:
    def test_zero_force_dead_zone(self, default_config):
        reading = simulate_reading(default_config, Stimulus(40.0, 0.0))
        assert reading.below_floor
        assert np.array_equal(reading.values, np.zeros(3))

    def test_blue_fraction_drops_with_distance(self, default_config):
        near = simulate_reading(default_config, Stimulus(10.0, 2.0))
        far = simulate_reading(default_config, Stimulus(60.0, 2.0))
        assert far["B"] / far["R"] < near["B"] / near["R"]

    def test_four_factor_oracle(self, default_config):
        # independent spreadsheet-style evaluation of the forward model
        cfg = default_config
        x, force = 42.5, 2.0
        u = force - cfg.coupling.f_threshold_n
        fraction = min(1.0, cfg.coupling.gain * u ** cfg.coupling.exponent)
        clear = math.exp(-cfg.clear_loss_per_mm * x)
        filtered = cfg.source.intensities * np.exp(-cfg.dye.concentration_scale
                                                   * cfg.dye.decay_per_mm * x)
        widths = np.gradient(cfg.source.wavelengths_nm)
        expected = np.array([
            fraction * clear * float(np.sum(filtered * response * widths))
            for response in cfg.bank.responses
        ])
        reading = simulate_reading(cfg, Stimulus(x, force))
        assert np.allclose(reading.values, expected, rtol=1e-12)

    def test_force_cancels_in_log_ratio(self, default_config):
        threshold = default_config.coupling.f_threshold_n
        ratios = []
        for force in np.linspace(threshold + 0.05, 9.0, 12):
            reading = simulate_reading(default_config, Stimulus(30.0, float(force)))
            ratios.append(log_ratio(reading, "B", "R"))
        assert max(ratios) - min(ratios) < 1e-12

    def test_total_monotone_in_force(self, default_config):
        totals = [
            simulate_reading(default_config, Stimulus(30.0, float(f))).total()
            for f in np.linspace(0.0, 12.0, 25)
        ]
        assert np.all(np.diff(totals) >= 0)

    def test_shared_response_across_lengths(self):
        readings = []
        for length in (30.0, 85.0, 200.0):
            config = SensorConfig(length_mm=length)
            readings.append(simulate_reading(config, Stimulus(25.0, 2.0)))
        for other in readings[1:]:
            assert np.array_equal(other.values, readings[0].values)

    def test_deterministic_under_seed(self, default_config):
        noise = NoiseModel("snr_db", 30.0, seed=99)
        a = simulate_reading(default_config, Stimulus(40.0, 2.0), noise)
        b = simulate_reading(default_config, Stimulus(40.0, 2.0), noise)
        assert a == b

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "3", None])
    def test_bad_noise_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            NoiseModel("snr_db", 40.0, seed)

    @pytest.mark.parametrize("seed", [0, 2**70 + 11, np.uint32(5), np.int64(7)])
    def test_integer_noise_seed_accepted(self, seed):
        assert NoiseModel("snr_db", 40.0, seed).seed == seed

    def test_noise_clamped_nonnegative(self, default_config):
        noise = NoiseModel("absolute_sigma", 1e6, seed=1)
        reading = simulate_reading(default_config, Stimulus(40.0, 2.0), noise)
        assert np.all(reading.values >= 0)

    def test_position_out_of_range(self, default_config):
        with pytest.raises(ValueError):
            simulate_reading(default_config, Stimulus(90.0, 2.0))
        with pytest.raises(ValueError):
            simulate_reading(default_config, Stimulus(-1.0, 2.0))

    def test_out_of_range_error_is_typed(self, default_config):
        with pytest.raises(OutOfSpanError) as info:
            simulate_reading(default_config, Stimulus(90.0, 2.0))
        assert isinstance(info.value, SpectraTactError)

    def test_tiny_values_floored_to_zero(self):
        grid = default_wavelength_grid()
        config = SensorConfig(source=Spectrum(grid, np.full_like(grid, 1e-15)))
        reading = simulate_reading(config, Stimulus(80.0, 0.2))
        floor = 1e-12 * full_scale_intensity(config)
        assert np.all((reading.values == 0) | (reading.values >= floor))


class TestChannelReading:
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    def test_rejects_negative_and_non_finite(self, bad):
        with pytest.raises(ValueError):
            ChannelReading([1.0, bad], ("B", "R"))

    def test_accepts_zero(self):
        assert ChannelReading([0.0, 0.0], ("B", "R")).total() == 0.0

    def test_below_floor_derived_from_values(self):
        assert ChannelReading([0.0, 0.0], ("B", "R")).below_floor
        assert not ChannelReading([0.0, 1e-300], ("B", "R")).below_floor


class TestSubstream:
    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_equals_spawned_child(self, seed):
        def draws(rng):
            return rng.standard_normal(5)

        for i, child in enumerate(np.random.SeedSequence(seed).spawn(4)):
            assert np.array_equal(draws(substream(seed, i)),
                                  draws(np.random.default_rng(child)))
            for j, grandchild in enumerate(child.spawn(2)):
                assert np.array_equal(draws(substream(seed, i, j)),
                                      draws(np.random.default_rng(grandchild)))
        assert np.array_equal(draws(substream(seed)), draws(np.random.default_rng(seed)))


def seed_sequence_draws(seed, key, shape=3):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key)).standard_normal(shape)


def batched_seed_type():
    """The type of seed object that ``substreams`` hands ``PCG64`` at ``SUBSTREAM_BATCH_MIN`` keys."""
    rng = next(iter(substreams(7, [(i,) for i in range(SUBSTREAM_BATCH_MIN)])))
    return type(rng.bit_generator.seed_seq)


# one, one, two, three and five uint32 words: a seed past four words mixes in after the pool
WIDE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7]
WORD = stn.integers(0, 2**32 - 1)
# enough keys that substreams computes their seed words as arrays
BATCH_KEYS = [(i, 7 * i) for i in range(SUBSTREAM_BATCH_MIN)]


@stn.composite
def key_lists(draw):
    """Keys of one arity (1 to 3 words), as many as on either side of ``SUBSTREAM_BATCH_MIN``."""
    n = draw(stn.sampled_from([1, SUBSTREAM_BATCH_MIN - 1, SUBSTREAM_BATCH_MIN,
                               2 * SUBSTREAM_BATCH_MIN + 3]))
    return draw(stn.lists(stn.tuples(*[WORD] * draw(stn.integers(1, 3))), min_size=n,
                          max_size=n))


class TestSubstreams:
    @settings(max_examples=30, deadline=None)
    @given(seed=stn.sampled_from(WIDE_SEEDS) | WORD.map(lambda k: 2**130 + k), keys=key_lists())
    @example(seed=2**32, keys=BATCH_KEYS)  # two words
    @example(seed=2**128, keys=BATCH_KEYS)  # five words: the fifth mixes in after the pool
    @example(seed=2**130 + 12345, keys=BATCH_KEYS)
    def test_equals_seed_sequence(self, seed, keys):
        n = len(keys)
        got = [rng.standard_normal(3) for rng in substreams(seed, keys)]
        assert len(got) == n
        for draws, key in zip(got, keys):
            assert np.array_equal(draws, seed_sequence_draws(seed, key))
            assert np.array_equal(draws, substream(seed, *key).standard_normal(3))
        # every yielded Generator is independent: drawn in reverse order, each still matches
        yielded = list(substreams(seed, keys))
        for rng, key in reversed(list(zip(yielded, keys))):
            assert np.array_equal(rng.standard_normal(3), seed_sequence_draws(seed, key))
        # the array core itself
        words = _seed_words(seed, np.array(keys))
        assert words.shape == (n, 4) and words.dtype == np.uint64 and words.flags.c_contiguous
        for row, key in zip(words, keys):
            expected = np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)
            assert np.array_equal(row, expected)

    @pytest.mark.parametrize("n_words, dtype", [(2, np.uint64), (8, np.uint32), (4, np.uint32),
                                                (4, np.int64)])
    def test_seed_words_refuse_any_other_request(self, n_words, dtype):
        # PCG64 would read past a shorter buffer without an error
        for seed_type in (_SeedWords, batched_seed_type()):
            seed_words = seed_type(_seed_words(7, np.array([(1,)]))[0])
            with pytest.raises(ValueError, match="only PCG64's 4 uint64 words"):
                seed_words.generate_state(n_words, dtype)
            # every spelling of uint64 is the request PCG64 makes, not only the scalar type
            for uint64 in (np.uint64, np.dtype("u8"), "uint64"):
                assert seed_words.generate_state(4, uint64).shape == (4,)

    def test_batched_seed_type_is_a_real_iseedsequence(self):
        # a real subclass, not a registered virtual one: PCG64's isinstance check stays cheap
        ISeedSequence = np.random.bit_generator.ISeedSequence
        assert {ISeedSequence, _SeedWords} <= set(batched_seed_type().__mro__)
        assert not issubclass(_SeedWords, ISeedSequence)

    @pytest.mark.parametrize("keys", [
        [()] * SUBSTREAM_BATCH_MIN,
        [(i, 2**32 + i) for i in range(SUBSTREAM_BATCH_MIN)],
        [(2**64 + i,) for i in range(SUBSTREAM_BATCH_MIN)],
        [(i,) if i % 2 else (i, 1) for i in range(SUBSTREAM_BATCH_MIN)],
    ], ids=["empty_key", "two_word_key", "wider_than_uint64", "mixed_arity"])
    def test_per_key_cases_equal_seed_sequence(self, keys):
        got = [rng.standard_normal(3) for rng in substreams(2**40 + 3, keys)]
        assert len(got) == len(keys)
        for draws, key in zip(got, keys):
            assert np.array_equal(draws, seed_sequence_draws(2**40 + 3, key))

    @pytest.mark.parametrize("n", [2, SUBSTREAM_BATCH_MIN])
    def test_negative_seed_raises_numpys_error(self, n):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            list(substreams(-1, [(i, 0) for i in range(n)]))


def total_snr_db(config, stim, noise):
    """SNR of the total intensity: 20*log10(signal / total noise sigma)."""
    values = grid_intensities(config, [stim.position_mm], [stim.force_n])[0]
    sigma_total = math.sqrt(float(np.sum(noise.sigma_vector(values) ** 2)))
    return 20.0 * math.log10(float(values.sum()) / sigma_total)


class TestMeasureSnr:
    def test_default_noise_exceeds_paper_floor(self, default_config):
        measured = total_snr_db(default_config, Stimulus(42.5, 2.0), NoiseModel())
        assert measured >= 20.0

    def test_snr_mode_reports_at_least_nominal(self, default_config):
        noise = NoiseModel("snr_db", 25.0)
        for x in (5.0, 42.5, 80.0):
            assert total_snr_db(default_config, Stimulus(x, 2.0), noise) >= 25.0

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel("snr_db", 0.0)
        with pytest.raises(ValueError):
            NoiseModel("absolute_sigma", -1.0)
        with pytest.raises(ValueError):
            NoiseModel("bogus", 1.0)


class TestSweep:
    def test_empty_positions(self, default_config):
        xs, fs, values = sweep(default_config, [], [2.0])
        assert xs.shape == fs.shape == (0,)
        assert values.shape == (0, len(default_config.bank.names))

    def test_monotone_log_ratio_column(self, default_config):
        _, _, values = sweep(default_config, np.linspace(0.0, 85.0, 86), [2.0])
        assert len(values) == 86
        names = default_config.bank.names
        ratios = [log_ratio(dict(zip(names, row)), "B", "R") for row in values.tolist()]
        assert np.all(np.diff(ratios) < 0)  # blue decays faster than red

    def test_seed_reproducibility(self, default_config):
        noise = NoiseModel("snr_db", 25.0)
        _, _, a = sweep(default_config, [10.0, 40.0], [1.0, 2.0], noise, seed=5)
        _, _, b = sweep(default_config, [10.0, 40.0], [1.0, 2.0], noise, seed=5)
        assert np.array_equal(a, b)
        _, _, c = sweep(default_config, [10.0, 40.0], [1.0, 2.0], noise, seed=6)
        assert not np.array_equal(a, c)

    def test_row_order_position_major(self, default_config):
        xs, fs, _ = sweep(default_config, [10.0, 20.0], [1.0, 2.0])
        assert list(zip(xs.tolist(), fs.tolist())) == [
            (10.0, 1.0), (10.0, 2.0), (20.0, 1.0), (20.0, 2.0),
        ]


class TestConfig:
    def test_json_round_trip_preserves_readings(self, default_config, tmp_path):
        doc = json.loads(json.dumps(default_config.to_dict()))
        again = SensorConfig.from_dict(doc)
        stim = Stimulus(33.0, 3.0)
        assert simulate_reading(again, stim) == simulate_reading(default_config, stim)

    def test_length_bounds(self):
        with pytest.raises(ValueError):
            SensorConfig(length_mm=20.0)
        with pytest.raises(ValueError):
            SensorConfig(length_mm=250.0)

    def test_grid_consistency_enforced(self):
        grid = np.arange(420.0, 680.0)
        with pytest.raises(ValueError):
            SensorConfig(source=Spectrum(grid, np.ones_like(grid)))

    def test_source_past_the_float_range_in_full_scale_is_refused(self, default_config):
        # each sample is finite, but the bank integral overflows: refused at
        # construction, without numpy's overflow warning (an error in this suite)
        source = Spectrum(default_config.source.wavelengths_nm,
                          np.full_like(default_config.source.intensities, 1e308))
        with pytest.raises(ValueError, match="^source values integrated over the channel "
                                             "bank must be finite$"):
            SensorConfig(source=source)

    def test_transmission_factor_recovers_coupling(self, default_config):
        # total / transmission == coupled fraction, exactly in-model
        stim = Stimulus(55.0, 3.0)
        reading = simulate_reading(default_config, stim)
        u = stim.force_n - default_config.coupling.f_threshold_n
        fraction = min(1.0, default_config.coupling.gain * u ** default_config.coupling.exponent)
        normalized = reading.total() / position_transmission(default_config, 55.0)
        assert normalized == pytest.approx(fraction, rel=1e-12)
