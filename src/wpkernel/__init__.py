"""Reproducing kernels of full-plane weighted polynomial spaces.

Exact oracles (partial exponential sums, the Hermite basis of the elliptic
family, Gram-matrix orthonormalization), boundary and exterior kernel
asymptotics driven by conformal data, Gaussian belt densities for Berezin
measures, and loop-equation residual checks.
"""

from .errors import (
    BeltError,
    ConfigError,
    ContinuationError,
    DomainError,
    PoleError,
    PrecisionError,
    RegimeError,
    ResolutionError,
    ToleranceError,
)
from .scaled_numerics import (
    LC_ONE,
    LC_ZERO,
    LogComplex,
    PolynomialQ,
    Quadrature1D,
    RationalAtOne,
    lc_div,
    lc_from_complex,
    lc_mul,
    lc_pow_int,
    lc_sum,
    poly_derivative,
    poly_eval,
    poly_q,
    quad_gauss_legendre,
    quad_trapezoid_periodic,
    rational_eval,
)
from .ginibre_exact import (
    GinibreKernelValue,
    ginibre_berezin,
    ginibre_kernel_exact,
    ginibre_one_point,
    partial_exp_sum,
    partial_exp_sum_complement,
    partial_exp_sum_gamma_route,
)
from .szego_geometry import (
    Region,
    RegionLabel,
    SzegoClassifier,
    TracedCurve,
    classify,
    trace_curve_K,
    trace_szego_curve,
    u_map,
)
from .expansion import (
    BulkKernel,
    CorrectionTable,
    StirlingSeries,
    berezin_gaussian_ginibre,
    bulk_kernel_expansion,
    correction_table,
    exterior_kernel_expansion,
    poisson_disc,
    rho,
    stirling_series,
    tricomi_b,
)
from .potential import (
    AdmissiblePotential,
    BoundaryPoint,
    DropletGeometry,
    EllipticGinibrePotential,
    GinibrePotential,
    RadialPotential,
    RadialProfile,
    boundary_speed,
    boundary_speed_fd,
    droplet_mass,
    equilibrium_log_potential,
    harmonic_extension,
    make_elliptic_ginibre,
    make_ginibre,
    make_radial,
    ridge,
    ridge_between,
    variational_residual,
    V_tau,
)
from .hardy import (
    harmonic_measure_density,
    harmonic_measure_mass,
    szego_basis,
    szego_kernel,
    szego_kernel_series,
    szego_reproducing_check,
)
from .general_kernel import (
    BeltDensity,
    KernelAsymptotic,
    SequenceCuts,
    berezin_belt_density,
    boundary_correlation_modulus,
    cocycle,
    f_factor,
    h_function,
    kernel_asymptotic,
    lowdeg_bound_check,
    quasipolynomial,
    sequence_cuts,
    tail_kernel,
)
from .ortho_oracle import (
    GramData,
    OrthonormalBasis,
    compute_moments,
    elliptic_kernel_exact,
    kernel_oracle,
    orthonormalize,
    pointwise_bound_check,
)
from .ward import (
    GinibreSource,
    LoopResidual,
    OracleSource,
    berezin_cauchy_transform,
    ginthm_two_term,
    harmonic_limit_check,
    loop_residual,
)

__version__ = "0.1.0"
