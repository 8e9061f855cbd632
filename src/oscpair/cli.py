"""Command-line front end: deterministic CSV/JSON artifacts for runs, sweeps and checks.

Subcommands: ``run``, ``fidelity``, ``sweep``, ``threshold``, ``verify``.
All serialized frequencies, rates and times are in units of ω0 (the default
parameters set ω0 = 1). Exit codes: 0 success, 1 configuration/validation
error, 2 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (DomainError, EstimationError, OscPairError, SteadyStateError,
                     ValidationError)
from .gaussian import (gaussian_fidelity_sq, lambda_c_trajectory, mixture_fidelity_lower_bound,
                       to_ab_basis)
from .moments import MomentState, Trajectory, steady_state
from .params import SATURATING, ModelParams
from .presets import PRESETS, preset
from .runner import SchemeRunner, parse_scheme, resolve_scheme, time_grid
from .spectral import (CoefficientSet, bose_factor, cp_bound_from_tensors, dissipation_matrix,
                       dissipator_coefficients, memory_time)
from . import verify as verify_mod

_PARAM_KEYS = {
    "omega0": float, "g": float, "kappa0": float, "omega_c": float, "alpha": float,
    "beta": float, "n_omega0": float, "M": int, "mixture_rate": float,
}


@dataclass
class RunConfig:
    """Fully resolved run description (parameters, schemes, grid, flags)."""

    params: ModelParams
    schemes: list[str]
    grid: tuple[float, float, int, str] = (0.0, 300.0, 1501, "lin")
    lamb_shift: bool = True
    reference: str = "exact"
    oracle_verify: bool = False
    outdir: Path = field(default_factory=lambda: Path("."))
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.schemes:
            raise ValidationError("scheme list must not be empty")
        for name in self.schemes:
            parse_scheme(name)
        if "mixture" in self.schemes:
            if "local" not in self.schemes or "global" not in self.schemes:
                raise ValidationError("mixture requires both local and global schemes")
        self.times = time_grid(*self.grid)


def _parse_set(entries: list[str]) -> dict:
    out = {}
    for entry in entries or []:
        key, sep, value = entry.partition("=")
        if not sep:
            raise ValidationError(f"--set expects key=value, got {entry!r}")
        key = key.strip()
        value = value.strip()
        if key in _PARAM_KEYS:
            try:
                out[key] = _PARAM_KEYS[key](value)
            except ValueError as exc:
                raise ValidationError(f"field {key!r}: cannot parse {value!r}") from exc
        elif key == "delta_t":
            if value == SATURATING:
                out[key] = SATURATING
            else:
                try:
                    out[key] = float(value)
                except ValueError as exc:
                    raise ValidationError(
                        f"field delta_t: number or {SATURATING!r}, got {value!r}") from exc
        elif key == "schemes":
            out[key] = [s.strip() for s in value.split(",") if s.strip()]
        else:
            raise ValidationError(f"unknown --set field {key!r}")
    return out


def _parse_grid(text: str) -> tuple[float, float, int, str]:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValidationError("--grid expects start:stop:count:{lin|log}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2]), parts[3]
    except ValueError as exc:
        raise ValidationError(f"bad grid spec {text!r}") from exc


def build_config(args) -> RunConfig:
    base: dict = {"params": {}, "schemes": ["exact", "global", "local"],
                  "grid": (0.0, 300.0, 1501, "lin"), "reference": "exact"}
    if args.preset:
        base = preset(args.preset)
    overrides = _parse_set(args.set or [])
    schemes = overrides.pop("schemes", base["schemes"])
    param_fields = dict(base["params"])
    # a temperature override replaces whichever convention the preset used
    if "beta" in overrides:
        param_fields.pop("n_omega0", None)
    if "n_omega0" in overrides:
        param_fields.pop("beta", None)
    param_fields.update(overrides)
    if "beta" not in param_fields and "n_omega0" not in param_fields:
        param_fields["n_omega0"] = 10.0
    params = ModelParams(**param_fields)
    grid = _parse_grid(args.grid) if getattr(args, "grid", None) else tuple(base["grid"])
    lamb = getattr(args, "lamb_shift", "on") != "off"
    cfg = RunConfig(
        params=params,
        schemes=list(schemes),
        grid=tuple(grid),
        lamb_shift=lamb,
        reference=getattr(args, "reference", None) or base["reference"],
        oracle_verify=getattr(args, "oracle_verify", "off") == "on",
        outdir=Path(getattr(args, "out", None) or "."),
    )
    return cfg


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


def _scheme_filename(name: str) -> str:
    return name.replace(":", "_s") + ".csv"


def _state_summary(state: MomentState) -> dict:
    ab = to_ab_basis(state)
    return {
        "n_plus": state.n_plus, "n_minus": state.n_minus,
        "re_cross": state.cross.real, "im_cross": state.cross.imag,
        "aa": ab.aa, "bb": ab.bb,
        "re_ab": ab.ab_dag.real, "im_ab": ab.ab_dag.imag,
    }


def _trajectory_columns(traj: Trajectory) -> tuple[list[str], list[np.ndarray]]:
    ab = to_ab_basis(traj)
    header = ["t", "n_plus", "n_minus", "re_cross", "im_cross", "lambda_c",
              "aa", "bb", "re_ab", "im_ab"]
    cols = [traj.times, traj.n_plus, traj.n_minus, traj.cross.real, traj.cross.imag,
            lambda_c_trajectory(traj), ab.aa, ab.bb, ab.ab_dag.real, ab.ab_dag.imag]
    return header, cols


def _run_oracle_spot_check(cfg: RunConfig, coeffs: CoefficientSet) -> dict:
    n_slow = bose_factor(cfg.params.omega_minus, cfg.params.beta)
    if n_slow > 1.2:
        raise ValidationError(
            "oracle-verify needs small occupations (N(omega_minus) <= 1.2); "
            f"got {n_slow:.3g}")
    case_schemes = [s for s in cfg.schemes if s in ("local", "global")]
    if not case_schemes:
        raise ValidationError("oracle-verify needs local or global among the schemes")
    times = np.linspace(0.0, min(cfg.times[-1], 20.0 / cfg.params.omega0), 5)
    d = verify_mod._cutoff_for(min(n_slow, 1.2))
    worst = max(verify_mod.moment_deviation(resolve_scheme(name, coeffs), d, times)[0]
                for name in case_schemes)
    if worst > 1e-4:
        raise OscPairError(f"oracle spot check failed: moment deviation {worst:.2e}")
    return {"schemes": case_schemes, "cutoff": d, "max_moment_deviation": worst}


def _steady_entry(equation) -> dict:
    try:
        return {"steady_state": _state_summary(steady_state(equation.generator()))}
    except SteadyStateError as exc:  # e.g. g = 0, where mode B is dark
        return {"steady_state": None, "steady_state_error": str(exc)}


def cmd_run(args) -> int:
    cfg = build_config(args)
    runner = SchemeRunner(cfg.params, lamb_shift=cfg.lamb_shift)
    times = cfg.times

    # everything is computed before the first file is written, so a failing
    # run leaves no partial output
    tables: dict = {}
    summary_schemes: dict = {}
    for scheme in cfg.schemes:
        traj = runner.trajectory(scheme, times)
        header, cols = _trajectory_columns(traj)
        if scheme == "exact":
            energies = runner.exact_run(times).energies
            header += ["e_s0", "e_sg", "e_1", "e_e"]
            cols += [energies[:, j] for j in range(4)]
        tables[_scheme_filename(scheme)] = (header, cols)

        if scheme == "exact":  # no closed-form fixed point, report the end of the run
            entry = {"final_state": _state_summary(traj.state(len(traj) - 1))}
        elif scheme == "mixture":  # relaxes to the global fixed point
            entry = _steady_entry(resolve_scheme("global", runner.coeffs))
        else:
            equation = resolve_scheme(scheme, runner.coeffs)
            entry = _steady_entry(equation)
            if equation.filter_s is not None:
                entry["filter_s"] = equation.filter_s
        summary_schemes[scheme] = entry

    try:
        tau_memory = memory_time(cfg.params)
    except EstimationError:  # e.g. a cold bath whose |c^(1)| never halves
        tau_memory = None

    summary = {
        "params": _params_summary(cfg.params),
        "lamb_shift": cfg.lamb_shift,
        "grid": {"start": cfg.grid[0], "stop": cfg.grid[1],
                 "count": cfg.grid[2], "kind": cfg.grid[3]},
        "cp_threshold": cp_bound_from_tensors(runner.coeffs.gamma1, runner.coeffs.gamma2),
        "tau_memory": tau_memory,
        "t_recurrence": cfg.params.recurrence_time,
        "schemes": summary_schemes,
    }
    if cfg.oracle_verify:
        summary["oracle_verify"] = _run_oracle_spot_check(cfg, runner.coeffs)

    cfg.outdir.mkdir(parents=True, exist_ok=True)
    for name, (header, cols) in tables.items():
        _write_csv(cfg.outdir / name, header, cols)
    _write_json(cfg.outdir / "summary.json", summary)
    print(f"wrote {len(cfg.schemes)} scheme file(s) + summary.json to {cfg.outdir}")
    return 0


def _params_summary(params: ModelParams) -> dict:
    return {
        "omega0": params.omega0, "g": params.g, "kappa0": params.kappa0,
        "omega_c": params.omega_c, "alpha": params.alpha, "beta": params.beta,
        "n_omega0": params.n_occupation_omega0, "M": params.M,
        "delta_t": params.delta_t, "mixture_rate": params.mixture_rate,
        "omega_plus": params.omega_plus, "omega_minus": params.omega_minus,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_fidelity(args) -> int:
    cfg = build_config(args)
    if cfg.reference == "mixture":
        raise ValidationError("the mixture state is not Gaussian; pick another reference")
    runner = SchemeRunner(cfg.params, lamb_shift=cfg.lamb_shift)
    times = cfg.times

    ref_traj = runner.trajectory(cfg.reference, times)
    f2 = {scheme: gaussian_fidelity_sq(runner.trajectory(scheme, times), ref_traj)
          for scheme in cfg.schemes if scheme != "mixture"}

    header = ["t"]
    cols: list[np.ndarray] = [times]
    for scheme in cfg.schemes:
        if scheme == "mixture":  # RunConfig guarantees local and global are present
            f_loc, f_glob = (np.sqrt(np.clip(f2[s][0], 0.0, 1.0)) for s in ("local", "global"))
            bound = mixture_fidelity_lower_bound(f_loc, f_glob, cfg.params.mixture_rate, times)
            header.append("f2_mixture_lower_bound")
            cols.append(np.asarray(bound) ** 2)
            continue
        vals, physical = f2[scheme]
        if scheme == "redfield":
            header += ["re_f2_redfield", "redfield_nonphysical"]
            cols += [vals, (~physical).astype(float)]
        else:
            if not physical.all():
                raise OscPairError(
                    f"scheme {scheme} produced non-physical fidelity input "
                    f"at t = {times[np.argmin(physical)]}")
            header.append(f"f2_{scheme.replace(':', '_s')}")
            cols.append(vals)
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(cfg.outdir / "fidelity.csv", header, cols)
    print(f"wrote fidelity.csv ({len(header) - 1} column(s)) to {cfg.outdir}")
    return 0


def cmd_sweep(args) -> int:
    if args.axis not in _PARAM_KEYS and args.axis != "delta_t":
        raise ValidationError(
            f"sweep axis must be a model parameter, got {args.axis!r}")
    raw_values = [v.strip() for v in (args.values or "").split(",") if v.strip()]
    if not raw_values:
        raise ValidationError("sweep needs a non-empty --values list")
    caster = _PARAM_KEYS.get(args.axis, float)
    out_root = Path(args.out or ".")
    out_root.mkdir(parents=True, exist_ok=True)

    def one(value_text: str) -> tuple[str, dict]:
        sub = argparse.Namespace(**vars(args))
        sub.set = list(args.set or []) + [f"{args.axis}={value_text}"]
        sub.out = str(out_root / f"{args.axis}={value_text}")
        try:
            caster(value_text)
            cmd_run(sub)
            files = sorted(p.name for p in Path(sub.out).iterdir())
            return value_text, {"status": "ok", "dir": Path(sub.out).name, "files": files}
        except Exception as exc:  # record, let the siblings proceed
            return value_text, {"status": "error", "dir": Path(sub.out).name,
                                "error": f"{type(exc).__name__}: {exc}"}

    results = dict(one(value) for value in raw_values)
    index = {"axis": args.axis, "values": results}
    _write_json(out_root / "index.json", index)
    failures = [v for v, r in results.items() if r["status"] != "ok"]
    print(f"sweep over {args.axis}: {len(raw_values) - len(failures)} ok, "
          f"{len(failures)} failed; index.json in {out_root}")
    return 0 if not failures else 2


def cmd_threshold(args) -> int:
    cfg = build_config(args)
    coeffs = dissipator_coefficients(cfg.params, lamb_shift=cfg.lamb_shift)
    bound = cp_bound_from_tensors(coeffs.gamma1, coeffs.gamma2)
    print(f"cp_threshold = {_fmt(bound)}")
    for i, gam in enumerate((coeffs.gamma1, coeffs.gamma2), start=1):
        off = abs(gam[0, 1])
        block = np.sqrt(gam[0, 0].real * gam[1, 1].real) / off if off else np.inf
        print(f"block_{i}_bound = {_fmt(block) if np.isfinite(block) else 'unconstrained'}")
    eigs = np.linalg.eigvalsh(dissipation_matrix(coeffs, bound))
    print("dissipation_matrix_eigenvalues_at_bound = "
          + " ".join(_fmt(e) for e in eigs))
    return 0


def cmd_verify(args) -> int:
    if args.draws < 1:
        raise ValidationError(f"--draws must be >= 1, got {args.draws}")
    reports = verify_mod.run_suite(args.draws, args.seed, verbose=True)
    worst_m = max(r.max_moment_error for r in reports)
    worst_f = max(r.max_fidelity_error for r in reports)
    ok = all(r.passed for r in reports)
    print(f"{len(reports)} draws: max moment deviation {worst_m:.2e}, "
          f"max fidelity deviation {worst_f:.2e} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def _add_common(sub: argparse.ArgumentParser, grid_default: bool = True) -> None:
    sub.add_argument("--preset", choices=sorted(PRESETS), default=None,
                     help="named parameter/scheme preset")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a parameter or config field (repeatable)")
    if grid_default:
        sub.add_argument("--grid", default=None, metavar="START:STOP:COUNT:{lin|log}",
                         help="time grid; log grids get t=0 prepended")
        sub.add_argument("--lamb-shift", choices=("on", "off"), default="on")
        sub.add_argument("--out", default=None, help="output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oscpair",
        description="Master-equation schemes and the exact benchmark for two "
                    "coupled oscillators with one-sided thermal dissipation.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="propagate schemes, write per-scheme CSV + summary")
    _add_common(p_run)
    p_run.add_argument("--oracle-verify", choices=("on", "off"), default="off",
                       help="spot-check local/global moments against the Fock oracle")
    p_run.set_defaults(func=cmd_run)

    p_fid = subs.add_parser("fidelity", help="F²(t) of each scheme against a reference")
    _add_common(p_fid)
    p_fid.add_argument("--reference", default=None,
                       help="reference scheme (default exact)")
    p_fid.set_defaults(func=cmd_fidelity)

    p_sweep = subs.add_parser("sweep", help="repeat a run across parameter values")
    _add_common(p_sweep)
    p_sweep.add_argument("--oracle-verify", choices=("on", "off"), default="off")
    p_sweep.add_argument("--axis", required=True, help="model parameter to vary")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_thr = subs.add_parser("threshold", help="print the complete-positivity bound")
    _add_common(p_thr, grid_default=False)
    p_thr.add_argument("--lamb-shift", choices=("on", "off"), default="on")
    p_thr.set_defaults(func=cmd_threshold)

    p_ver = subs.add_parser("verify", help="Fock-oracle equivalence suite")
    p_ver.add_argument("--draws", type=int, default=4)
    p_ver.add_argument("--seed", type=int, default=20260809)
    p_ver.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OscPairError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
