"""Exception types shared across the toolkit."""


class SpectraTactError(Exception):
    """Base class for all toolkit-specific errors."""


class GridMismatchError(SpectraTactError):
    """Two spectral objects do not share an identical wavelength grid."""


class BelowFloorError(SpectraTactError):
    """A channel intensity needed for a ratio is at or below the floor."""


class NoContactError(BelowFloorError):
    """Reading carries no coupled light; there is nothing to decode."""


class OutOfSpanError(SpectraTactError, ValueError):
    """Press position lies outside the sensor's span."""


class UnsupportedRegimeError(SpectraTactError):
    """Perturbation lies outside the range the model is validated for."""


class UndefinedSnrError(SpectraTactError):
    """SNR is undefined because the noise-free reading is zero."""


class UnusableSampleError(SpectraTactError):
    """Calibration input contains dead-zone rows.

    ``rows`` holds the indices of the offending samples.
    """

    def __init__(self, message: str, rows=()):
        super().__init__(message)
        self.rows = tuple(rows)


class DegenerateFitError(SpectraTactError):
    """Calibration data cannot support the requested fit."""


class NonMonotoneDataError(SpectraTactError):
    """Force samples are not strictly monotone after replicate averaging."""


class BelowThresholdError(SpectraTactError):
    """Normalized intensity below the first calibration knot (dead zone)."""


class SaturatedError(SpectraTactError):
    """Normalized intensity above the last calibration knot."""


class KinematicError(SpectraTactError):
    """Base class for linkage reachability and branch problems."""


class UnreachableError(KinematicError):
    """Pose or angle pair lies outside the mechanism workspace."""


class SingularError(KinematicError):
    """Configuration where the kinematic map degenerates."""
