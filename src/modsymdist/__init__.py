"""Modular symbols of weight-2 newforms and their distribution.

Compute <gamma, f> = -2 pi i Int f over Gamma_infty \\ Gamma_0(N) cosets
ordered by |cz+d|^2, sum them sharply or smoothly, estimate the Petersson
norm two ways, and compare the normalized values against the bivariate
Gaussian they converge to.
"""

from .cosets import GammaMatrix, coset_arrays, lift, volume
from .curve import (
    CoefficientTable,
    CurveSpec,
    PeriodLattice,
    PRESETS,
    agm_periods,
    ap_count,
    coefficient_table,
    resolve_curve,
)
from .modsym import (
    SymbolBatch,
    SymbolStream,
    antiderivative,
    oracle_pairing,
    pairing,
    symbol_stream,
    symbols_up_to,
)
from .petersson import NormEstimate, lattice_norm, rankin_estimate
from .series import (
    AsymptoticConstant,
    SumReport,
    WeightSpec,
    asymptotic_constants,
    eisenstein_twisted,
    grid_sums,
    sharp_sum,
    smooth_cutoff,
    smoothed_sum,
)
from .stats import (
    MomentReport,
    gaussian_moment,
    histogram,
    ks_distance,
    moments_from_arrays,
    normalize_arrays,
    symbol_histogram,
    symbol_moments,
)

__version__ = "0.1.0"
