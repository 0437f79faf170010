"""Spectral-filtering optical tactile sensor toolkit.

Simulation of dyed-waveguide sensors that encode press position in the
output color and force in its brightness, calibration and decoding of
those readings, and a five-bar parallel-mechanism digital twin driven by
two simulated soft joint encoders.
"""

__version__ = "0.1.0"

from .calibration import (
    ForceCalibration,
    PositionCalibration,
    ResolutionReport,
    calibrate_samples,
    estimate_resolution,
    fit_force,
    fit_position,
    force_knot_schedule,
)
from .contact import (
    CouplingLaw,
    PerturbationState,
    coupled_fraction,
    strained_dye,
)
from .decoder import (
    DecodedPosition,
    JointEncoderModel,
    decode_force,
    decode_joint_angle,
    decode_position,
)
from .errors import (
    BelowFloorError,
    BelowThresholdError,
    ConfigError,
    DegenerateFitError,
    GridMismatchError,
    KinematicError,
    NoContactError,
    NonMonotoneDataError,
    OutOfSpanError,
    SaturatedError,
    SingularError,
    SpectraTactError,
    UnreachableError,
    UnusableSampleError,
)
from .fivebar import (
    FiveBarConfig,
    GridSpec,
    JointAngles,
    TerminalPose,
    deviation_map,
    elbow_separation_ratio,
    fk_jacobian,
    forward_kinematics,
    inverse_kinematics,
    reachable,
    working_branch,
    workspace_mask,
)
from .sensor import (
    ChannelReading,
    NoiseModel,
    SensorConfig,
    Stimulus,
    grid_intensities,
    position_transmission,
    simulate_reading,
    sweep,
    transmission_factors,
)
from .spectral import (
    ChannelBank,
    DyeProfile,
    Spectrum,
    attenuate,
    boxcar_response,
    default_bank,
    default_red_dye,
    default_wavelength_grid,
    integrate_channels,
    line_bank,
    line_response,
    log_ratio,
)
from .twin import (
    TrackingReport,
    TrajectorySample,
    TwinAssembly,
    calibrate_encoder,
    encoder_sensor_config,
    generate_path,
    snr_db_for_angle_sigma,
    track,
)
