"""The benchmark's workloads: fixed lists of ``oscpair.cli.main(argv)`` operations.

- ``figures``: the paper's figure runs. Per-time-point work in
  ``exact.exact_trajectory`` at M = 400 with energies dominates; the
  ``gaussian`` fidelity loop and ``spectral.memory_time`` make up the rest.
  The Fock oracle does not run, so Fock changes must leave it unchanged.
- ``bath_sweep``: convergence in bath size M on a 101-point grid. The
  O(M^3) model build, the energy set-up and ``memory_time`` dominate instead
  of the per-point loop, so work moved from the loop into set-up shows here.
  It also drives ``cmd_sweep``'s thread pool under the machine's default BLAS
  threading.
- ``oracle``: Fock-oracle certification. No exact model is built, so it is
  the workload that bypasses exact-solver changes, and the one a faster Fock
  oracle moves.

Only ``oracle`` depends on the seed: it selects the ``verify`` draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    writes: bool = True     # takes --out and is checked against a reference


FIGURES = (
    Op("run_fig5", ("run", "--preset", "fig5")),
    Op("fidelity_fig6", ("fidelity", "--preset", "fig6")),
    Op("run_fig7", ("run", "--preset", "fig7")),
    Op("run_fig8b", ("run", "--preset", "fig8b")),
    Op("fidelity_fig9a", ("fidelity", "--preset", "fig9a")),
)

BATH_SWEEP = (
    Op("sweep_M", ("sweep", "--axis", "M", "--values", "100,200,400,800",
                   "--set", "schemes=exact,global,local,mixture",
                   "--grid", "0:300:101:lin")),
)

ORACLE_FIXED = (
    Op("run_fig9b_oracle", ("run", "--preset", "fig9b", "--oracle-verify", "on")),
)

# Draws of one cost class, so that the workload's work hardly depends on the
# seed: the global scheme at cutoff d = 14 over the full horizon t_max = 40,
# with kappa0 in [0.04, 0.05) and N(omega0) >= 0.16. A draw's cost is set by
# its integrator's right-hand-side evaluations, each a set of 196 x 196
# complex products. Their count follows kappa0 and N(omega0): 86 to 137 for
# d = 14 global draws, 101 or 113 within the kappa0 band, and 113 for each of
# 16 class draws sampled.
ORACLE_DRAWS = 4
ORACLE_KAPPA0 = (0.04, 0.05)
ORACLE_MIN_N0 = 0.16
_MAX_CANDIDATES = 200_000


def in_oracle_class(case) -> bool:
    lo, hi = ORACLE_KAPPA0
    return (case.scheme == "global" and case.cutoff == 14 and case.t_max == 40.0
            and lo <= case.params.kappa0 < hi
            and case.params.n_occupation_omega0 >= ORACLE_MIN_N0)


NAMES = ("figures", "bath_sweep", "oracle")


def oracle_seeds(seed: int, draw_case) -> list[int]:
    """``verify`` seeds derived from the workload seed whose draw is in the cost class.

    ``draw_case`` is ``oscpair.verify.draw_case``; a candidate s is accepted
    when ``draw_case(numpy.random.default_rng(s))`` matches the class, which
    is the draw ``verify --draws 1 --seed s`` makes.
    """
    import numpy as np

    rng = random.Random(seed)
    chosen = []
    for _ in range(_MAX_CANDIDATES):
        candidate = rng.randrange(2**31)
        case = draw_case(np.random.default_rng(candidate))
        if in_oracle_class(case):
            chosen.append(candidate)
            if len(chosen) == ORACLE_DRAWS:
                return chosen
    raise RuntimeError(f"fewer than {ORACLE_DRAWS} draws of the cost class among "
                       f"{_MAX_CANDIDATES} candidates for seed {seed}")


def operations(workload: str, seed: int, draw_case=None) -> tuple[Op, ...]:
    if workload == "figures":
        return FIGURES
    if workload == "bath_sweep":
        return BATH_SWEEP
    if workload == "oracle":
        draws = tuple(Op(f"verify_{s}", ("verify", "--draws", "1", "--seed", str(s)),
                         writes=False)
                      for s in oracle_seeds(seed, draw_case))
        return ORACLE_FIXED + draws
    raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")
