"""stablab: near-minimizers of distance functionals, stable under
singular-integral-type operators, verified at desk scale on dyadic
periodic grids."""

from .cz import CheckResult, CzDecomposition, cz_decompose, verify_cz
from .distance import (
    DistanceResult,
    dist_l1_to_lp_ball,
    dist_linf_to_lp_ball,
)
from .dual_search import (
    DualInstance,
    DualResult,
    annihilator_pair,
    duality_pairing,
    feasible,
    make_instance,
    min_constant,
    project_lp_ball,
)
from .grid import (
    DyadicInterval,
    GridFunction,
    GridSet,
    inner,
    mask,
    norm,
)
from .harness import (
    ExperimentConfig,
    default_config,
    generate_corpus,
    make_operator,
    run_theorem1,
    run_theorem2,
    verify_all,
)
from .operators import (
    LinearOperatorSpec,
    adjoint,
    apply,
    haar_transform,
    hilbert,
    identity_minus_mean,
    long_range_ratio,
    operator_norm_estimate,
)
from .stability import (
    RedecompositionReport,
    StabilityReport,
    bourgain_construct,
    graph_approx_sequence,
    kclosed_redecompose,
)

__version__ = "0.1.0"
