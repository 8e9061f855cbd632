"""Named parameter presets for the figure-style runs."""

from __future__ import annotations

from .errors import ValidationError

# headline configuration: hot bath, moderate coupling, Ohmic band
_HOT = dict(n_omega0=10.0, g=0.3, kappa0=0.04, omega_c=3.0, alpha=1.0, M=400)
_ALL_SCHEMES = ["exact", "redfield", "cp_redfield", "global", "local", "mixture"]

PRESETS: dict[str, dict] = {
    # moments under global / local / mixture vs exact
    "fig3": dict(params=_HOT, schemes=["exact", "global", "local", "mixture"],
                 grid=(0.0, 300.0, 1501, "lin")),
    # moments under Redfield / CP-Redfield vs exact
    "fig4": dict(params=_HOT, schemes=["exact", "redfield", "cp_redfield"],
                 grid=(0.0, 300.0, 1501, "lin")),
    # local excitation gap <a†a> − <b†b> across every scheme
    "fig5": dict(params=_HOT, schemes=list(_ALL_SCHEMES),
                 grid=(0.0, 300.0, 1501, "lin")),
    # fidelity of each approximation against the exact state
    "fig6": dict(params=_HOT, schemes=["redfield", "cp_redfield", "global",
                                       "local", "mixture"],
                 grid=(0.0, 300.0, 751, "lin")),
    # coarse bath (M = 50): recurrence effects become visible
    "fig7": dict(params={**_HOT, "M": 50}, schemes=["exact"],
                 grid=(0.0, 150.0, 751, "lin")),
    # energy components of the exact model, hot and cold
    "fig8a": dict(params=_HOT, schemes=["exact"], grid=(0.0, 300.0, 601, "lin")),
    "fig8b": dict(params={**_HOT, "n_omega0": 0.01}, schemes=["exact"],
                  grid=(0.0, 300.0, 601, "lin")),
    # weak internal coupling: the local scheme excels, the global transient fails
    "fig9a": dict(params={**_HOT, "g": 0.04}, schemes=["cp_redfield", "global", "local"],
                  grid=(0.0, 300.0, 751, "lin")),
    # cold bath: the local steady state fails
    "fig9b": dict(params={**_HOT, "n_omega0": 0.01},
                  schemes=["cp_redfield", "global", "local"],
                  grid=(0.0, 300.0, 751, "lin")),
}


def preset(name: str) -> dict:
    try:
        entry = PRESETS[name]
    except KeyError:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}") from None
    return {
        "params": dict(entry["params"]),
        "schemes": list(entry["schemes"]),
        "grid": tuple(entry["grid"]),
    }
