"""Random unitary mixing channels, nets of pure states, and randomizing certification."""

from .bounds import (
    CONCENTRATION_EXPONENT,
    SAMPLE_SIZE_PREFACTOR,
    concentration_tail_bound,
    failure_log_bound,
    min_N_for_success,
    required_N,
)
from .certify import (
    DeviationCertificate,
    LowerBound,
    NetSupremum,
    Verdict,
    alternating_max_lower_bound,
    certified_upper_bound_A,
    default_net_delta,
    net_supremum_B,
    spectral_upper_bound_A,
    verdict,
)
from .channel import (
    RandomUnitaryChannel,
    apply_adjoint,
    apply_channel,
    build_random_channel,
    build_weyl_channel,
    channel_from_unitaries,
    deviation,
    maximally_mixed,
    pair_statistic,
    pure_projector,
    random_pure_states,
)
from .errors import (
    DimensionMismatch,
    InvalidDimension,
    InvalidMatrix,
    InvalidParameter,
    NetInfeasible,
    NumericalFailure,
    ParseError,
    RandomizerError,
)
from .experiments import (
    ConcentrationReport,
    SweepCell,
    SweepConfig,
    SweepReport,
    certificate_to_dict,
    load_channel,
    load_net,
    run_concentration_trial,
    run_randomizing_sweep,
    save_certificate,
    save_channel,
    save_net,
    write_concentration_csv,
    write_sweep_csv,
)
from .haar import (
    RngStream,
    sample_haar_unitaries,
    unitarity_defect,
)
from .linalg import (
    TOL,
    Tolerances,
    hermitian_part,
    operator_norm,
)
from .netcover import (
    CoverageReport,
    PureStateNet,
    audit_covering,
    build_delta_net,
    log_cardinality_bound,
)

__version__ = "0.1.0"
