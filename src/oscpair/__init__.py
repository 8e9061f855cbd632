"""Open dynamics of two coupled oscillators with one-sided thermal dissipation.

Five approximation schemes (Redfield, coarse-grained/CP-Redfield, global,
local, convex mixture) propagated as closed-form Gaussian moment systems,
benchmarked against the exactly solvable system+bath model, with positivity
diagnostics, Gaussian fidelities and a truncated-Fock-space oracle.

The oracle, :mod:`oscpair.fock` and :mod:`oscpair.verify`, is the one part
that needs SciPy (``solve_ivp``). It is not imported here, so ``import
oscpair`` and the ``run``, ``fidelity``, ``sweep`` and ``threshold``
commands load no SciPy module unless ``--oracle-verify on`` asks for the
oracle.
"""

from types import ModuleType as _ModuleType

from .errors import (ConsistencyError, CutoffError, DomainError, EstimationError,
                     NonPhysicalStateError, OscPairError, PropagationError,
                     SteadyStateError, ValidationError)
from .exact import ExactRun, exact_trajectory
from .gaussian import (from_ab_basis, gaussian_fidelity, gaussian_fidelity_sq,
                       lambda_c_trajectory, mixture_fidelity_lower_bound, to_ab_basis)
from .moments import (MomentState, Scheme, Trajectory, mixture_moments, propagate,
                      steady_state)
from .params import ModelParams, bose_factor
from .runner import SchemeRunner, time_grid
from .spectral import (CoefficientSet, bath_modes, correlation_function, cp_threshold,
                       dissipator_coefficients, memory_time, pv_integral, spectral_density)

# the public names, without the submodules that importing them binds here
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
