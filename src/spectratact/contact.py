"""Force-to-coupled-light law and off-axis perturbation models.

Two stacked waveguides separated by an air gap couple no light until the
applied force closes the gap; past that threshold the coupled fraction
grows with contact area.  Uniaxial strain dilutes the dye (Poisson
effect), and moderate bending leaves the optical response untouched
because the gap still isolates the waveguides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import UnsupportedRegimeError, _require_object
from .spectral import DyeProfile

# Normalization point for the default power law: half of the available
# contact area at 5 N keeps the law strictly increasing (unsaturated)
# through the 10 N calibration range.
_DEFAULT_THRESHOLD_N = 0.1
_DEFAULT_EXPONENT = 2.0 / 3.0
_DEFAULT_GAIN = 0.5 / (5.0 - _DEFAULT_THRESHOLD_N) ** _DEFAULT_EXPONENT

MAX_BEND_DEG = 180.0
MAX_STRAIN = 0.5


@dataclass(frozen=True)
class CouplingLaw:
    """Dead-zoned power law mapping force to coupled-light fraction.

    ``fraction = min(1, gain * (force - f_threshold)**exponent)`` above the
    threshold, 0 at or below it.  The 2/3 default exponent is the Hertz-like
    growth of a line contact's area.
    """

    f_threshold_n: float = _DEFAULT_THRESHOLD_N
    gain: float = _DEFAULT_GAIN
    exponent: float = _DEFAULT_EXPONENT

    def __post_init__(self):
        if not self.f_threshold_n >= 0:
            raise ValueError("f_threshold_n must be >= 0")
        if not self.gain > 0:
            raise ValueError("gain must be > 0")
        if not 0 < self.exponent <= 2:
            raise ValueError("exponent must lie in (0, 2]")

    @property
    def saturation_force_n(self) -> float:
        """Force at which the coupled fraction reaches 1."""
        return self.f_threshold_n + self.gain ** (-1.0 / self.exponent)

    def to_dict(self) -> dict:
        return {
            "f_threshold_n": self.f_threshold_n,
            "gain": self.gain,
            "exponent": self.exponent,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CouplingLaw":
        _require_object(doc, "coupling")
        return cls(
            float(doc.get("f_threshold_n", _DEFAULT_THRESHOLD_N)),
            float(doc.get("gain", _DEFAULT_GAIN)),
            float(doc.get("exponent", _DEFAULT_EXPONENT)),
        )


@dataclass(frozen=True)
class PerturbationState:
    """Off-axis deformation applied to the whole sensor."""

    strain: float = 0.0
    bend_deg: float = 0.0

    def __post_init__(self):
        if not 0 <= self.strain <= MAX_STRAIN:
            raise ValueError(f"strain must lie in [0, {MAX_STRAIN}], got {self.strain}")
        if not self.bend_deg >= 0 or not math.isfinite(self.bend_deg):
            raise ValueError(f"bend_deg must be finite and >= 0, got {self.bend_deg}")

    def to_dict(self) -> dict:
        return {"strain": self.strain, "bend_deg": self.bend_deg}

    @classmethod
    def from_dict(cls, doc: dict) -> "PerturbationState":
        _require_object(doc, "perturbation")
        return cls(float(doc.get("strain", 0.0)), float(doc.get("bend_deg", 0.0)))


def coupled_fraction(law: CouplingLaw, force_n: float) -> float:
    """Fraction of source light coupled into the sensing waveguide."""
    if not force_n >= 0:
        raise ValueError(f"force_n must be >= 0, got {force_n}")
    if force_n <= law.f_threshold_n:
        return 0.0
    return min(1.0, law.gain * (force_n - law.f_threshold_n) ** law.exponent)


def strained_dye(dye: DyeProfile, strain: float) -> DyeProfile:
    """Dye profile as seen by light after uniaxial stretch.

    Stretching conserves dye mass while the volume grows, so the decay
    coefficient scales by 1/(1+strain) at every wavelength; press positions
    stay in stretched (laboratory) coordinates.  Small negative strains
    (compression) are tolerated down to -0.05.
    """
    if strain < -0.05:
        raise ValueError(f"strain below supported range, got {strain}")
    if strain == 0:
        return dye
    return replace(dye, decay_per_mm=dye.decay_per_mm / (1.0 + strain))


def bending_gain(state: PerturbationState) -> float:
    """Optical gain under an initial bend: exactly 1 within [0, 180] deg.

    The air gap isolates the waveguides, so the model asserts full
    rejection of the bending deformation up to a half turn; beyond that
    the sensor leaves its validated regime.
    """
    if state.bend_deg > MAX_BEND_DEG:
        raise UnsupportedRegimeError(
            f"bend of {state.bend_deg} deg exceeds the supported {MAX_BEND_DEG} deg"
        )
    return 1.0
