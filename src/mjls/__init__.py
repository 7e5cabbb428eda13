"""Controller synthesis and simulation for two interdependent Markov jump
linear systems with state-dependent transition rates and hidden modes."""

from .model import (
    IntegratedModel,
    InterdependentModel,
    JumpLinearSystem,
    ModeDynamics,
    ObservationModel,
    RateFamily,
    RegionPartition,
    build_beta,
    compose_integrated,
    region_index,
    validate,
)
from .synthesis import (
    Certificate,
    ControllerBank,
    Scheme,
    build_centralized,
    build_distributed,
    build_fullinfo,
    build_psi,
    certify_gains,
    check_corollary,
    recover_gains,
    synthesize,
)
from .sim import (
    DecayingSine,
    MonteCarloReport,
    OnChange,
    Periodic,
    SimConfig,
    Trace,
    Zero,
    estimate_stability,
    simulate,
)

__version__ = "0.1.0"
