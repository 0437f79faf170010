import itertools
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
    _SeedFeeder,
    _seed_words,
    full_scale_intensity,
    substream,
    substreams,
)
from spectratact import sensor as sensor_module
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
    rng = next(substreams(7, range(SUBSTREAM_BATCH_MIN)))
    return type(rng.bit_generator.seed_seq)


# one, one, two, three and five uint32 words: a seed past four words mixes in after the pool
WIDE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 7]
WORD = stn.integers(0, 2**32 - 1)
# enough keys that substreams computes their seed words as arrays, on two axes
BATCH_AXES = (range(SUBSTREAM_BATCH_MIN // 2), (0, 7))
# no keys, one, either side of SUBSTREAM_BATCH_MIN, and a 1000-sample track's two joints
KEY_COUNTS = [0, 1, SUBSTREAM_BATCH_MIN - 1, SUBSTREAM_BATCH_MIN, SUBSTREAM_BATCH_MIN + 1, 2000]


@stn.composite
def key_axes(draw):
    """One or two axes of key words, their product ``KEY_COUNTS`` keys long, each a list,
    a tuple or an integer array (callers pass a list and a tuple, or an int64 array)."""
    n = draw(stn.sampled_from(KEY_COUNTS))
    if draw(stn.booleans()):
        sizes = [n]
    elif n == 0:
        sizes = draw(stn.permutations([0, draw(stn.integers(0, 3))]))
    else:
        first = draw(stn.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        sizes = [first, n // first]
    axes = []
    for size in sizes:
        if size <= 2 * SUBSTREAM_BATCH_MIN:
            words = draw(stn.lists(WORD, min_size=size, max_size=size))
        else:  # a long axis: evenly spaced words, wrapped at 2**32
            start, step = draw(WORD), draw(WORD)
            words = [(start + step * i) % 2**32 for i in range(size)]
        kind = draw(stn.sampled_from([list, tuple, np.int64, np.uint32, np.uint64]))
        axes.append(kind(words) if kind in (list, tuple) else np.array(words, dtype=kind))
    return tuple(axes)


def product_keys(axes):
    """The keys of ``substreams(seed, *axes)``, in order, as tuples of Python ints."""
    return [tuple(map(int, key)) for key in itertools.product(*axes)]


class TestSubstreams:
    @settings(max_examples=30, deadline=None)
    @given(seed=stn.sampled_from(WIDE_SEEDS) | WORD.map(lambda k: 2**130 + k), axes=key_axes())
    @example(seed=2**32, axes=BATCH_AXES)  # two words
    @example(seed=2**128, axes=BATCH_AXES)  # five words: the fifth mixes in after the pool
    @example(seed=2**130 + 12345, axes=BATCH_AXES)
    def test_equals_seed_sequence(self, seed, axes):
        keys = product_keys(axes)
        got = [rng.standard_normal(3) for rng in substreams(seed, *axes)]
        assert len(got) == len(keys)
        for draws, key in zip(got, keys):
            assert np.array_equal(draws, seed_sequence_draws(seed, key))
        # every yielded Generator is independent: drawn in reverse order, each still matches
        yielded = list(substreams(seed, *axes))
        for rng, key in reversed(list(zip(yielded, keys))):
            assert np.array_equal(rng.standard_normal(3), seed_sequence_draws(seed, key))
        # the array core itself, on the axes as substreams passes them
        words = _seed_words(seed, [np.asarray(axis) for axis in axes])
        assert words.shape == (len(keys), 4) and words.dtype == np.uint64
        assert words.flags.c_contiguous  # PCG64 reads each row's buffer as it lies
        for row, key in zip(words, keys):
            expected = np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)
            assert np.array_equal(row, expected)

    @pytest.mark.parametrize("n_words, dtype", [(2, np.uint64), (8, np.uint32), (4, np.uint32),
                                                (4, np.int64)])
    def test_seed_words_refuse_any_other_request(self, n_words, dtype):
        # PCG64 would read past a shorter buffer without an error
        for feeder_type in (_SeedFeeder, batched_seed_type()):
            words = _seed_words(7, [np.arange(3)])
            feeder = feeder_type(words)
            with pytest.raises(ValueError, match="only PCG64's 4 uint64 words"):
                feeder.generate_state(n_words, dtype)
            # every spelling of uint64 is the request PCG64 makes, not only the scalar type;
            # a refused request handed out no row
            for row, uint64 in zip(words, (np.uint64, np.dtype("u8"), "uint64")):
                assert np.array_equal(feeder.generate_state(4, uint64), row)

    def test_feeder_past_its_last_row_raises_value_error(self):
        # not StopIteration, which a generator expression would turn into a RuntimeError
        feeder = batched_seed_type()(_seed_words(7, [np.arange(2)]))
        for _ in range(2):
            feeder.generate_state(4, np.uint64)
        with pytest.raises(ValueError, match="every row of the seed words was handed out"):
            feeder.generate_state(4, np.uint64)

    def test_batched_seed_type_is_a_real_iseedsequence(self):
        # a real subclass, not a registered virtual one: PCG64's isinstance check stays cheap
        ISeedSequence = np.random.bit_generator.ISeedSequence
        assert {ISeedSequence, _SeedFeeder} <= set(batched_seed_type().__mro__)
        assert not issubclass(_SeedFeeder, ISeedSequence)
        # one feeder object seeds every Generator of a call
        rngs = list(substreams(7, range(SUBSTREAM_BATCH_MIN), (0, 1)))
        assert len({id(rng.bit_generator.seed_seq) for rng in rngs}) == 1

    @pytest.mark.parametrize("axes", [
        (),
        (range(SUBSTREAM_BATCH_MIN), [2**32 + 5]),
        ([2**64 + i for i in range(SUBSTREAM_BATCH_MIN)],),
        (np.array([2**32], dtype=np.uint64), range(SUBSTREAM_BATCH_MIN)),
        (range(SUBSTREAM_BATCH_MIN), []),
    ], ids=["empty_key", "two_word_key", "wider_than_uint64", "uint64_two_word_key",
            "empty_axis"])
    def test_per_key_cases_equal_seed_sequence(self, axes, monkeypatch):
        calls = []
        monkeypatch.setattr(sensor_module, "_seed_words", lambda *args: calls.append(args))
        got = [rng.standard_normal(3) for rng in substreams(2**40 + 3, *axes)]
        keys = product_keys(axes)
        assert len(got) == len(keys) and calls == []
        for draws, key in zip(got, keys):
            assert np.array_equal(draws, seed_sequence_draws(2**40 + 3, key))

    @pytest.mark.parametrize("n", [2, SUBSTREAM_BATCH_MIN])
    def test_negative_seed_raises_numpys_error(self, n):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            list(substreams(-1, range(n), (0,)))


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
