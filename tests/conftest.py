import numpy as np
import pytest

from spectratact import SensorConfig, fit_position, force_knot_schedule, fit_force, sweep
from spectratact.twin import encoder_sensor_config


@pytest.fixture(scope="session")
def default_config():
    return SensorConfig.default()


@pytest.fixture(scope="session")
def line_config():
    """Sensor with single-sample B/R channels: exactly affine log-ratio."""
    return encoder_sensor_config()


def columns(samples):
    """``(x, ChannelReading)`` pairs as the ``(names, channels, x)`` columns of
    ``fit_position``; ``fit_force`` takes the last two."""
    samples = list(samples)
    names = samples[0][1].channel_names if samples else ()
    channels = np.array([reading.values for _, reading in samples]).reshape(-1, len(names))
    return names, channels, np.array([float(x) for x, _ in samples])


def calibrate_position(config, force_n=2.0, n=86):
    xs, _, values = sweep(config, np.linspace(0.0, config.length_mm, n), [force_n])
    return fit_position(config.bank.names, values, xs)


def calibrate_force(config, position_mm=42.5, f_max=10.0, n_knots=21):
    schedule = force_knot_schedule(config.coupling.f_threshold_n, f_max, n_knots)
    _, fs, values = sweep(config, [position_mm], schedule)
    return fit_force(values, fs, config, position_mm)


@pytest.fixture(scope="session")
def line_poscal(line_config):
    return calibrate_position(line_config)


@pytest.fixture(scope="session")
def default_poscal(default_config):
    return calibrate_position(default_config)


@pytest.fixture(scope="session")
def default_forcecal(default_config):
    return calibrate_force(default_config)
