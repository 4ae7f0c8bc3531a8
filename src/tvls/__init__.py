"""Time-varying Levy-driven state-space models: simulation and spectral analysis.

The package computes lag kernels, transition matrices, spectra and sample
paths for linear state-space models whose coefficients drift slowly in
time, and provides numerical checks (stability certificates,
controllability, kernel convergence) for the approximations involved.
"""

__version__ = "0.1.0"

from .errors import (
    TvlsError,
    PreconditionError,
    PostconditionError,
    DivergenceError,
    GridMismatchError,
    SmoothnessError,
    ZeroVarianceError,
    TailMassWarning,
    TruncationWarning,
)
from .levy import LevyModel
from .model import (
    ScalarFunction,
    Constant,
    Affine,
    Sinusoidal,
    Logistic,
    PiecewisePolynomial,
    Step,
    Callback,
    MatrixFunction,
    StateSpaceModel,
    CarmaModel,
    companion_from_carma,
    scalar_from_json,
    model_from_json,
)
from .transition import (
    TransitionMatrix,
    peano_baker,
    ode_transition,
    commutative_transition,
    check_commutativity,
    matrix_exp,
)
from .kernels import (
    KernelGrid,
    kernel_grid,
    l2_distance,
    convergence_diagnostic,
)
from .spectral import (
    GridConfig,
    SpectrumGrid,
    transfer_function,
    spectral_density,
    covariance,
    wigner_ville,
    wv_convergence,
)
from .stability import (
    StabilityCertificate,
    StabilityFailure,
    lambda_max_check,
    eigen_bound_check,
    commutative_route_check,
    auto_certificate,
    controllability_matrix,
    instantaneous_controllability,
    carma_transform,
    transfer_equivalence,
    structural_break_gap,
)
from .simulate import PathEnsemble, simulate_paths, empirical_covariance
