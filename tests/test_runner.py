import types

import numpy as np
import pytest

import oscpair
from oscpair import ModelParams, SchemeRunner, ValidationError, time_grid
from oscpair.presets import preset


def test_star_import_binds_no_submodule():
    namespace: dict = {}
    exec("from oscpair import *", namespace)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert set(oscpair.__all__) <= set(namespace)
    assert len(oscpair.__all__) == 35


def test_equation_of_each_name(fig4_params):
    runner = SchemeRunner(fig4_params, [0.0, 1.0])
    filters = {name: runner.equation(name).filter_s
               for name in ("redfield", "cp_redfield", "global", "mixture", "cg_redfield:0.5")}
    assert filters == {"redfield": 1.0, "cp_redfield": runner.coeffs.cp_bound, "global": 0.0,
                       "mixture": 0.0, "cg_redfield:0.5": 0.5}
    assert runner.equation("local").filter_s is None
    # the mixture relaxes under the global scheme
    for field in ("u", "w", "h"):
        assert np.array_equal(getattr(runner.equation("mixture"), field),
                              getattr(runner.equation("global"), field))
    with pytest.raises(ValidationError):
        runner.equation("exact")


# The paper's claim, scored against the exact model on the preset grids: the
# mean of 1 − F² over 0 < t <= 30 and over t >= 200 for CP-Redfield, global
# and local. Thresholds come from the measured ratios to the best of the three
# in each window. What does not hold is left out: global beats CP-Redfield at
# long times on fig6 (1.20e-4 against 1.90e-4) and fig9b (9.91e-5 against
# 1.07e-4), and local beats it at short times on fig9a (2.63e-3 against 2.84e-3).
CLAIM_PRESETS = ("fig6", "fig9a", "fig9b")
CLAIM_SCHEMES = ("cp_redfield", "global", "local")


@pytest.fixture(scope="module")
def window_errors():
    errors = {}
    for name in CLAIM_PRESETS:
        entry = preset(name)
        runner = SchemeRunner(ModelParams(**entry["params"]), time_grid(*entry["grid"]))
        columns = runner.fidelity_columns(CLAIM_SCHEMES)
        t = columns["t"]
        windows = {"short": (t > 0.0) & (t <= 30.0), "long": t >= 200.0}
        errors[name] = {window: {s: float(np.mean(1.0 - columns[f"f2_{s}"][mask]))
                                 for s in CLAIM_SCHEMES}
                        for window, mask in windows.items()}
    return errors


def ratio_to_best(errors: dict, scheme: str) -> float:
    return errors[scheme] / min(errors.values())


def test_cp_redfield_within_twice_the_best_in_every_window(window_errors):
    # measured worst: 1.58x, fig6 at long times
    for name, windows in window_errors.items():
        for window, errors in windows.items():
            assert ratio_to_best(errors, "cp_redfield") <= 2.0, (name, window, errors)


@pytest.mark.parametrize("name", ["fig6", "fig9a"])
def test_global_is_far_off_at_short_times(window_errors, name):
    # measured 9.1x on fig6 and 163x on fig9a
    assert ratio_to_best(window_errors[name]["short"], "global") >= 5.0


@pytest.mark.parametrize("name", CLAIM_PRESETS)
def test_local_is_far_off_at_long_times(window_errors, name):
    # measured 369x on fig6, 5.5x on fig9a and 133x on fig9b
    assert ratio_to_best(window_errors[name]["long"], "local") >= 5.0
