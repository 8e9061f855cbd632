"""Open dynamics of two coupled oscillators with one-sided thermal dissipation.

Five approximation schemes (Redfield, coarse-grained/CP-Redfield, global,
local, convex mixture) propagated as closed-form Gaussian moment systems,
benchmarked against the exactly solvable system+bath model, with positivity
diagnostics, Gaussian fidelities and a truncated-Fock-space oracle.
"""

from .errors import (ConsistencyError, CutoffError, DomainError, EstimationError,
                     NonPhysicalStateError, OscPairError, PropagationError,
                     SteadyStateError, ValidationError)
from .exact import ExactRun, exact_trajectory
from .gaussian import (ABMoments, from_ab_basis, gaussian_fidelity, gaussian_fidelity_sq,
                       lambda_c_trajectory, mixture_fidelity_lower_bound, to_ab_basis)
from .fock import (TruncatedState, boundary_population, fidelity_truncated,
                   lindblad_propagate, number_expectations, thermal_product_state)
from .moments import (AffineGenerator, MomentState, Scheme, Trajectory, VACUUM,
                      mixture_moments, propagate, steady_state)
from .params import SATURATING, ModelParams
from .runner import SchemeRunner, time_grid
from .spectral import (CoefficientSet, CpThreshold, bath_modes, bose_factor,
                       correlation_function, cp_bound_from_tensors, cp_threshold,
                       dissipation_matrix, dissipator_coefficients, memory_time,
                       pv_integral, secular_filter, spectral_density)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
