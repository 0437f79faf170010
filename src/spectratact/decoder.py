"""Inverting readings into position, force and joint angle.

Each calibration owns its inverse: :meth:`PositionCalibration.decode`
for position and :meth:`ForceCalibration.invert` for force.  The
functions here apply them to one :class:`ChannelReading`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calibration import ForceCalibration, PositionCalibration
from .codec import NONNEGATIVE, NUMBER, POSITIVE, Record, spec
from .errors import BelowThresholdError, NoContactError
from .sensor import ChannelReading, SensorConfig, position_transmission


@dataclass(frozen=True)
class JointEncoderModel(Record):
    """Linear map from joint angle to press position on the wrapped sensor."""

    arc_gain_mm_per_deg: float = spec(NUMBER, 0.5, bound=POSITIVE)
    offset_mm: float = spec(NUMBER, 42.5, bound=NONNEGATIVE)

    def position_for_angle(self, angle_deg: float) -> float:
        return self.offset_mm + self.arc_gain_mm_per_deg * angle_deg

    def angle_for_position(self, position_mm: float) -> float:
        return (position_mm - self.offset_mm) / self.arc_gain_mm_per_deg


@dataclass(frozen=True)
class DecodedPosition:
    """Position estimate clamped into the calibrated span.

    ``out_of_span`` is set when the raw estimate exceeds the span by more
    than 3x the calibration's noise-equivalent resolution.
    """

    position_mm: float
    raw_mm: float
    out_of_span: bool


def decode_position(reading: ChannelReading, poscal: PositionCalibration) -> DecodedPosition:
    """Invert the affine log-ratio model: x = (log_ratio - intercept) / slope.

    :meth:`PositionCalibration.decode` on one reading; a ratio channel at
    or below zero raises :class:`NoContactError`.
    """
    num, den = reading.channel(poscal.numerator_ch), reading.channel(poscal.denominator_ch)
    lit, position, raw, out_of_span = poscal.decode([num], [den])
    if not lit[0]:
        raise NoContactError(f"no contact to decode: {poscal.numerator_ch}={num:g}, "
                             f"{poscal.denominator_ch}={den:g}")
    return DecodedPosition(float(position[0]), float(raw[0]), bool(out_of_span[0]))


def decode_force(
    reading: ChannelReading,
    position_mm: float,
    forcecal: ForceCalibration,
    config: SensorConfig,
) -> float:
    """Invert the monotone force interpolant at a known/decoded position.

    The reading's total is divided by ``config``'s transmission factor at
    ``position_mm`` (:func:`spectratact.sensor.position_transmission`)
    before inversion, so that the position dependence cancels.  For many
    readings, :meth:`~spectratact.calibration.CalibrationFile.decode`
    decodes position and force of all of them with one
    :meth:`ForceCalibration.invert` call, far cheaper than this per reading.
    """
    total = reading.total()
    if reading.below_floor or total <= 0:
        raise BelowThresholdError("reading below intensity floor: force in dead zone")
    normalized = total / position_transmission(config, position_mm)
    return forcecal.invert(normalized)


def decode_joint_angle(
    reading: ChannelReading,
    encoder: JointEncoderModel,
    poscal: PositionCalibration,
) -> float:
    """Joint angle in degrees, via position decoding and the encoder map."""
    decoded = decode_position(reading, poscal)
    return encoder.angle_for_position(decoded.position_mm)
