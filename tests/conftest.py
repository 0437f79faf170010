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
    """``(x, ChannelReading)`` pairs as the ``(names, channels, x)`` columns the fits take."""
    samples = list(samples)
    names = samples[0][1].channel_names if samples else ()
    channels = np.array([reading.values for _, reading in samples]).reshape(-1, len(names))
    return names, channels, np.array([float(x) for x, _ in samples])


def calibrate_position(config, force_n=2.0, n=86):
    rows = sweep(config, np.linspace(0.0, config.length_mm, n), [force_n])
    return fit_position(*columns((r.position_mm, r.reading) for r in rows))


def calibrate_force(config, position_mm=42.5, f_max=10.0, n_knots=21):
    schedule = force_knot_schedule(config.coupling.f_threshold_n, f_max, n_knots)
    rows = sweep(config, [position_mm], schedule)
    return fit_force(
        *columns((r.force_n, r.reading) for r in rows),
        config,
        known_position_mm=position_mm,
    )


@pytest.fixture(scope="session")
def line_poscal(line_config):
    return calibrate_position(line_config)


@pytest.fixture(scope="session")
def default_poscal(default_config):
    return calibrate_position(default_config)


@pytest.fixture(scope="session")
def default_forcecal(default_config):
    return calibrate_force(default_config)
