import numpy as np
import pytest

from oscpair import ModelParams

#: headline parameter set: hot bath, moderate coupling, Ohmic band
FIG4 = dict(n_omega0=10.0, g=0.3, kappa0=0.04, omega_c=3.0, alpha=1.0, M=400)


@pytest.fixture(scope="session")
def fig4_params() -> ModelParams:
    return ModelParams(**FIG4)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)
