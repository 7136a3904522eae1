"""Desk-scale sensing laboratory for switching-metasurface assisted MIMO.

Modules
-------
geometry        scene layout, angle/position maps, angle Jacobian
metasurface     coding sequences, harmonic patterns; the fixed-profile baseline as one case
channel         array responses, pilots, path gains, echo synthesis and stacking
bounds          Fisher information, closed-form angle CRBs, EFIM, position bounds
detection       despreading, ML gain estimate, thresholds, marginal p_D maps, Marcum Q
classification  Rayleigh MAP labeling, confusion rates, two-path fusion
experiments     CLI-facing sweeps producing CSV data + manifests
"""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    AnglePair,
    SceneGeometry,
    ScatterPoint,
    TargetKind,
    angles_from_position,
    jacobian_angles_to_position,
    position_from_angles,
    rcs_sqrt_from_dbsm,
)
from .metasurface import (  # noqa: F401
    CodingMatrix,
    CodingScheme,
    HarmonicSet,
    PanelLayout,
    RisProfile,
    WavelengthMode,
    default_coding_matrix,
    fourier_coefficients,
    harmonic_pattern,
    harmonic_pattern_derivative,
    ris_response,
)
from .channel import (  # noqa: F401
    EchoBundle,
    PathGains,
    PilotMatrix,
    UlaLayout,
    dft_pilots,
    path_gain,
    path_gains,
    stack_db,
    stack_sb,
    steering_derivative,
    steering_vector,
    synthesize_echo,
)
from .bounds import (  # noqa: F401
    FisherMatrix,
    TargetState,
    crb_alpha_closed,
    crb_ris,
    crb_xi_closed,
    crbs_from_fim,
    fim_db_single,
    fim_generic,
    fim_multi_target,
    fim_sb_single,
)
from .detection import (  # noqa: F401
    Combiner,
    marcum_q1,
    ml_beta_estimate,
    pd_marginal,
    threshold_from_pfa,
)
from .classification import (  # noqa: F401
    ClassPosterior,
    HypothesisSet,
    confusion_matrix,
    fuse,
    likelihood_conditional,
    posterior,
    rayleigh_scale,
)
