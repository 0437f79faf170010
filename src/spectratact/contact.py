"""Force-to-coupled-light law and off-axis perturbation models.

Two stacked waveguides separated by an air gap couple no light until the
applied force closes the gap; past that threshold the coupled fraction
grows with contact area.  Uniaxial strain dilutes the dye (Poisson
effect).  Bending up to a half turn leaves the optical response
untouched because the gap still isolates the waveguides; that limit is a
bound of :class:`PerturbationState`, so a config past it does not load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .codec import NONNEGATIVE, NUMBER, POSITIVE, Bound, Record, spec, within
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
class CouplingLaw(Record):
    """Dead-zoned power law mapping force to coupled-light fraction.

    ``fraction = min(1, gain * (force - f_threshold)**exponent)`` above the
    threshold, 0 at or below it.  The 2/3 default exponent is the Hertz-like
    growth of a line contact's area.
    """

    f_threshold_n: float = spec(NUMBER, _DEFAULT_THRESHOLD_N, bound=NONNEGATIVE)
    gain: float = spec(NUMBER, _DEFAULT_GAIN, bound=POSITIVE)
    exponent: float = spec(NUMBER, _DEFAULT_EXPONENT,
                           bound=Bound("lie in (0, 2]", lambda v: 0 < v <= 2))


@dataclass(frozen=True)
class PerturbationState(Record):
    """Off-axis deformation applied to the whole sensor.

    Both limits are bounds, checked when the state is built; up to a
    half-turn bend, bending leaves every reading bit-identical.
    """

    strain: float = spec(NUMBER, 0.0, bound=within(0.0, MAX_STRAIN))
    bend_deg: float = spec(NUMBER, 0.0, bound=within(0.0, MAX_BEND_DEG))


def coupled_fraction(law: CouplingLaw, force_n: float) -> float:
    """Fraction of source light coupled into the sensing waveguide."""
    if not 0 <= force_n < math.inf:
        raise ValueError(f"force_n must be finite and >= 0, got {force_n}")
    if force_n <= law.f_threshold_n:
        return 0.0
    try:
        return min(1.0, law.gain * (force_n - law.f_threshold_n) ** law.exponent)
    except OverflowError:  # a power past the float range: the law saturated long before
        return 1.0


def strained_dye(dye: DyeProfile, strain: float) -> DyeProfile:
    """Dye profile as seen by light after uniaxial stretch.

    Stretching conserves dye mass while the volume grows, so the decay
    coefficient scales by 1/(1+strain) at every wavelength; press positions
    stay in stretched (laboratory) coordinates.  It refuses what the bound
    of :attr:`PerturbationState.strain` refuses.
    """
    if not 0 <= strain <= MAX_STRAIN:
        raise ValueError(f"strain must lie in [0, {MAX_STRAIN:g}], got {strain}")
    if strain == 0:
        return dye
    return replace(dye, decay_per_mm=dye.decay_per_mm / (1.0 + strain))

