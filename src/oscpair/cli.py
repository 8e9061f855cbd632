"""Command-line front end: deterministic CSV/JSON artifacts for runs, sweeps and checks.

Subcommands: ``run``, ``fidelity``, ``sweep``, ``threshold``, ``verify``.
This module parses arguments and formats files; what a scheme name means and
how a fidelity table is scored belong to :class:`~oscpair.runner.SchemeRunner`.
All serialized frequencies, rates and times are in units of ω0 (the default
parameters set ω0 = 1). Exit codes: 0 success, 1 configuration/validation
error, 2 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import (DomainError, EstimationError, OscPairError, SteadyStateError,
                     ValidationError)
from .gaussian import lambda_c_trajectory, to_ab_basis
from .moments import MomentState, Trajectory, steady_state
from .params import SATURATING, ModelParams
from .presets import PRESETS, preset
from .runner import SchemeRunner, parse_scheme, scheme_label, time_grid
from .spectral import (cp_block_bounds, dissipation_matrix, dissipator_coefficients,
                       memory_time)


def _delta_t(value: str) -> float | str:
    return value if value == SATURATING else float(value)


#: model parameter -> parser of its --set / sweep value
_PARAM_KEYS = {
    "omega0": float, "g": float, "kappa0": float, "omega_c": float, "alpha": float,
    "beta": float, "n_omega0": float, "M": int, "mixture_rate": float, "delta_t": _delta_t,
}


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


def build_config(args) -> tuple[ModelParams, list[str], tuple[float, float, int, str]]:
    """The model parameters, scheme list and grid spec that ``--preset``, ``--set``
    and ``--grid`` describe; each command reads its other flags from ``args``.

    The scheme list must be non-empty and name no scheme twice once parsed
    (``cg_redfield:0.5`` and ``cg_redfield:5e-1`` are one scheme), else
    ``ValidationError``. The grid spec is checked by :func:`~oscpair.runner.time_grid`.
    """
    base: dict = {"params": {}, "schemes": ["exact", "global", "local"],
                  "grid": (0.0, 300.0, 1501, "lin")}
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
    grid = _parse_grid(args.grid) if getattr(args, "grid", None) else tuple(base["grid"])
    params = ModelParams(**param_fields)
    if not schemes:
        raise ValidationError("scheme list must not be empty")
    if len(set(map(parse_scheme, schemes))) < len(schemes):
        raise ValidationError(f"scheme list repeats an entry once parsed: {','.join(schemes)!r}")
    return params, list(schemes), grid


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """The header line, then one line of 17-significant-digit cells per row.

    These are the bytes of ``np.savetxt(fmt="%.17g", delimiter=",")``, but
    the table is formatted by one ``%`` over the repeated row format instead
    of a Python loop over rows.
    """
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    body = (row * table.shape[0]) % tuple(table.ravel().tolist())
    path.write_text(",".join(header) + "\n" + body)


def _state_summary(state: MomentState) -> dict:
    aa, bb, ab_dag = to_ab_basis(state)
    return {
        "n_plus": state.n_plus, "n_minus": state.n_minus,
        "re_cross": state.cross.real, "im_cross": state.cross.imag,
        "aa": aa, "bb": bb, "re_ab": ab_dag.real, "im_ab": ab_dag.imag,
    }


def _trajectory_columns(traj: Trajectory) -> tuple[list[str], list[np.ndarray]]:
    aa, bb, ab_dag = to_ab_basis(traj)
    header = ["t", "n_plus", "n_minus", "re_cross", "im_cross", "lambda_c",
              "aa", "bb", "re_ab", "im_ab"]
    cols = [traj.times, traj.n_plus, traj.n_minus, traj.cross.real, traj.cross.imag,
            lambda_c_trajectory(traj), aa, bb, ab_dag.real, ab_dag.imag]
    return header, cols


def _steady_entry(equation) -> dict:
    try:
        return {"steady_state": _state_summary(steady_state(equation))}
    except SteadyStateError as exc:  # e.g. g = 0, where mode B is dark
        return {"steady_state": None, "steady_state_error": str(exc)}


def cmd_run(args) -> int:
    params, schemes, grid = build_config(args)
    lamb_shift = args.lamb_shift == "on"
    runner = SchemeRunner(params, time_grid(*grid), lamb_shift=lamb_shift)

    # everything is computed before the first file is written, so a failing
    # run leaves no partial output
    tables: dict = {}
    summary_schemes: dict = {}
    for scheme in schemes:
        traj = runner.trajectory(scheme)
        header, cols = _trajectory_columns(traj)
        if scheme == "exact":  # no closed-form fixed point, report the end of the run
            energies = runner.exact.energies
            header += ["e_s0", "e_sg", "e_1", "e_e"]
            cols += [energies[:, j] for j in range(4)]
            entry = {"final_state": _state_summary(traj.state(len(traj) - 1))}
        else:
            equation = runner.equation(scheme)
            entry = _steady_entry(equation)
            if equation.filter_s is not None and scheme != "mixture":
                entry["filter_s"] = equation.filter_s
        tables[f"{scheme_label(scheme)}.csv"] = (header, cols)
        summary_schemes[scheme] = entry

    try:
        tau_memory = memory_time(params)
    except EstimationError:  # e.g. a cold bath whose |c^(1)| never halves
        tau_memory = None

    summary = {
        "params": _params_summary(params),
        "lamb_shift": lamb_shift,
        "grid": {"start": grid[0], "stop": grid[1], "count": grid[2], "kind": grid[3]},
        "cp_threshold": runner.coeffs.cp_bound,
        "tau_memory": tau_memory,
        "t_recurrence": params.recurrence_time,
        "schemes": summary_schemes,
    }
    if args.oracle_verify == "on":
        from .verify import spot_check  # the Fock oracle loads SciPy; only this branch needs it
        summary["oracle_verify"] = spot_check(runner, schemes)

    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (header, cols) in tables.items():
        _write_csv(outdir / name, header, cols)
    _write_json(outdir / "summary.json", summary)
    print(f"wrote {len(schemes)} scheme file(s) + summary.json to {outdir}")
    return 0


def _params_summary(params: ModelParams) -> dict:
    # n_omega0 is an init-only field, stored as beta
    fields = {key: getattr(params, key) for key in _PARAM_KEYS if key != "n_omega0"}
    return {**fields, "n_omega0": params.n_occupation_omega0,
            "omega_plus": params.omega_plus, "omega_minus": params.omega_minus}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_fidelity(args) -> int:
    params, schemes, grid = build_config(args)
    runner = SchemeRunner(params, time_grid(*grid), lamb_shift=args.lamb_shift == "on")
    columns = runner.fidelity_columns(schemes, args.reference)
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "fidelity.csv", list(columns), list(columns.values()))
    print(f"wrote fidelity.csv ({len(columns) - 1} column(s)) to {outdir}")
    return 0


def cmd_sweep(args) -> int:
    if args.axis not in _PARAM_KEYS:
        raise ValidationError(
            f"sweep axis must be a model parameter, got {args.axis!r}")
    raw_values = [v.strip() for v in (args.values or "").split(",") if v.strip()]
    if not raw_values:
        raise ValidationError("sweep needs a non-empty --values list")

    def parsed(text: str):  # a value --set's parser rejects fails in its own run below
        try:
            return _parse_set([f"{args.axis}={text}"])[args.axis]
        except ValidationError:
            return text

    if len(set(map(parsed, raw_values))) < len(raw_values):
        raise ValidationError(
            f"sweep --values repeats an entry once parsed: {args.values!r}")
    out_root = Path(args.out or ".")
    out_root.mkdir(parents=True, exist_ok=True)

    def one(value_text: str) -> tuple[str, dict]:
        sub = argparse.Namespace(**vars(args))
        sub.set = list(args.set or []) + [f"{args.axis}={value_text}"]
        sub.out = str(out_root / f"{args.axis}={value_text}")
        try:
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
    params, _, _ = build_config(args)
    coeffs = dissipator_coefficients(params, lamb_shift=args.lamb_shift == "on")
    print(f"cp_threshold = {_fmt(coeffs.cp_bound)}")
    for i, block in enumerate(cp_block_bounds(coeffs.gamma1, coeffs.gamma2), start=1):
        print(f"block_{i}_bound = {_fmt(block) if np.isfinite(block) else 'unconstrained'}")
    eigs = np.linalg.eigvalsh(dissipation_matrix(coeffs, coeffs.cp_bound))
    print("dissipation_matrix_eigenvalues_at_bound = "
          + " ".join(_fmt(e) for e in eigs))
    return 0


def cmd_verify(args) -> int:
    if args.draws < 1:
        raise ValidationError(f"--draws must be >= 1, got {args.draws}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")
    from .verify import run_suite  # the Fock oracle loads SciPy; only verify needs it
    reports = run_suite(args.draws, args.seed, verbose=True)
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
    sub.add_argument("--lamb-shift", choices=("on", "off"), default="on")
    if grid_default:
        sub.add_argument("--grid", default=None, metavar="START:STOP:COUNT:{lin|log}",
                         help="time grid; log grids get t=0 prepended")
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
    p_fid.add_argument("--reference", default="exact",
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
