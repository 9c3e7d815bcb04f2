"""dwlab: dyadic sequence-space machinery with matrix weights.

Finite-window realizations of Besov- and Triebel-Lizorkin-type sequence
quasi-norms with matrix weights, reducing operators, almost-diagonal
operator envelopes, band-limited and wavelet transforms, and a
verification harness that checks the norm equivalences and boundedness
thresholds numerically.
"""

from .dyadic import (
    CubeId,
    DwlabError,
    DyadicError,
    Truncation,
    ancestor,
    cube_geometry,
    enumerate_cubes,
    separation,
)
from .growth import GrowthFn, class_constant, make_growth
from .weights import (
    MatrixWeight,
    QuadratureSpec,
    apinf_characteristic,
    constant_weight,
    diag_power_weight,
    estimate_dimensions,
    identity_weight,
    matrix_power,
    power_weight,
)
from .reducing import (
    ReducingFamily,
    build_family,
    doubling_orders,
)
from .seqspace import (
    CoeffSeq,
    SpaceParams,
    build_besov_counterexample,
    build_random,
    build_single_point,
    la_norm,
    la_norms,
    seq_norm,
    seq_norms,
    single_point_oracle,
)
from .adops import (
    ADParams,
    MoleculeThresholds,
    Thresholds,
    ad_apply,
    ad_apply_stack,
    ad_entry,
    ad_thresholds,
    majorant,
    majorant_stack,
    molecule_thresholds,
)
from .transforms import (
    GridFunction,
    LPWindow,
    WaveletCoeffs,
    build_lp_window,
    direct_weighted_field,
    dwt_analyze,
    dwt_synthesize,
    peetre_maximal,
    phi_analyze,
    phi_synthesize,
    square_functions,
)
from .harness import EXPERIMENTS, Report, emit_report, run_all, run_experiment

__version__ = "0.1.0"
