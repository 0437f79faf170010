"""Exception types shared across the toolkit."""


class SpectraTactError(Exception):
    """Base class for all toolkit-specific errors."""


class ConfigError(SpectraTactError, ValueError):
    """A config value missing, of the wrong JSON kind or out of bounds, named by JSON path."""


class GridMismatchError(SpectraTactError):
    """Two spectral objects do not share an identical wavelength grid."""


class BelowFloorError(SpectraTactError):
    """A channel intensity needed for a ratio is at or below the floor."""


class NoContactError(BelowFloorError):
    """Reading carries no coupled light; there is nothing to decode."""


class OutOfSpanError(SpectraTactError, ValueError):
    """Press position lies outside the sensor's span."""


class UnusableSampleError(SpectraTactError):
    """Calibration input contains dead-zone rows.

    ``reason`` says what is wrong with them and ``rows`` holds the indices
    of the offending samples; the message is "<reason> at rows [<rows>]".
    """

    def __init__(self, reason: str, rows=()):
        self.reason, self.rows = reason, tuple(rows)
        super().__init__(f"{reason} at rows {list(self.rows)}")


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
