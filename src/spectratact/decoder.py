"""Inverting readings into position, force and joint angle."""

from __future__ import annotations

from dataclasses import dataclass

from .calibration import ForceCalibration, PositionCalibration
from .errors import BelowFloorError, BelowThresholdError, NoContactError
from .sensor import ChannelReading, SensorConfig, position_transmission
from .spectral import log_ratio


@dataclass(frozen=True)
class JointEncoderModel:
    """Linear map from joint angle to press position on the wrapped sensor."""

    arc_gain_mm_per_deg: float = 0.5
    offset_mm: float = 42.5

    def __post_init__(self):
        if not self.arc_gain_mm_per_deg > 0:
            raise ValueError("arc_gain_mm_per_deg must be > 0")
        if not self.offset_mm >= 0:
            raise ValueError("offset_mm must be >= 0")

    def position_for_angle(self, angle_deg: float) -> float:
        return self.offset_mm + self.arc_gain_mm_per_deg * angle_deg

    def angle_for_position(self, position_mm: float) -> float:
        return (position_mm - self.offset_mm) / self.arc_gain_mm_per_deg

    def to_dict(self) -> dict:
        return {"arc_gain_mm_per_deg": self.arc_gain_mm_per_deg, "offset_mm": self.offset_mm}

    @classmethod
    def from_dict(cls, doc: dict) -> "JointEncoderModel":
        return cls(float(doc.get("arc_gain_mm_per_deg", 0.5)),
                   float(doc.get("offset_mm", 42.5)))


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
    """Invert the affine log-ratio model: x = (log_ratio - intercept) / slope."""
    if reading.below_floor:
        raise NoContactError("reading below intensity floor; no contact to decode")
    try:
        value = log_ratio(reading, poscal.numerator_ch, poscal.denominator_ch)
    except BelowFloorError as exc:
        raise NoContactError(str(exc)) from exc
    raw = poscal.position_for_log_ratio(value)
    lo, hi = poscal.span_mm
    clamped = min(max(raw, lo), hi)
    slack = 3.0 * poscal.residual_std / abs(poscal.slope)
    out_of_span = raw < lo - slack or raw > hi + slack
    return DecodedPosition(position_mm=clamped, raw_mm=raw, out_of_span=out_of_span)


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
    readings, one :func:`~spectratact.sensor.transmission_factors` call
    and one :meth:`ForceCalibration.invert` call over all their
    normalized totals are far cheaper than calling this once per reading.
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
