"""RIS-aided sensing and ISAC beamforming simulator."""

from .arrays import UlaGeometry, steering_derivative, steering_vector
from .channels import (
    RisIsacScenario,
    Scene,
    align_profile,
    angles_from_geometry,
    build_sensing_channels,
    pathloss_amplitude,
)
from .dual_waveform import (
    BeampatternSpec,
    DualDesign,
    design_dual_waveform,
    make_beampattern_spec,
)
from .errors import (
    ConfigError,
    DegenerateChannelError,
    DegenerateGeometryError,
    InfeasibleRateError,
    InfeasibleSinrError,
)
from .isac import crb_min_beamformer, kappa, tradeoff_curve
from .optim import riemannian_descent
from .ris_isac import (
    FimResult,
    coupling_gradient,
    coupling_objective,
    fim_theta,
    ris_isac_tradeoff,
)
from .sensing import (
    DetectionConfig,
    detection_probability,
    glrt_monte_carlo,
    marcum_q1,
    maximize_illumination,
    trajectory_sweep,
)

__version__ = "0.1.0"
