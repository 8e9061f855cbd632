import argparse
import json

import numpy as np
import pytest

from oscpair import ModelParams, ValidationError, cp_threshold, time_grid
from oscpair.fock import thermal_product_state
from oscpair import cli, runner, spectral, verify
from oscpair.cli import build_config, main
from oscpair.presets import PRESETS, preset


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_run_starts_at_zero_and_reruns_byte_identical(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", "--preset", "fig7", "--out", str(first)]) == 0
    header, rows = read_csv(first / "exact.csv")
    assert header[-4:] == ["e_s0", "e_sg", "e_1", "e_e"]
    assert rows.shape == (751, len(header))
    assert np.all(rows[0] == 0.0)

    assert main(["run", "--preset", "fig7", "--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_every_preset_starts_every_scheme_at_the_vacuum(tmp_path):
    for name in PRESETS:
        assert main(["run", "--preset", name, "--out", str(tmp_path / name)]) == 0
        for scheme in PRESETS[name]["schemes"]:
            _, rows = read_csv(tmp_path / name / f"{scheme}.csv")
            assert np.all(rows[0] == 0.0), (name, scheme)
    # the Fock oracle accepts the cold-bath t = 0 moments as a state
    for scheme in PRESETS["fig9b"]["schemes"]:
        header, rows = read_csv(tmp_path / "fig9b" / f"{scheme}.csv")
        t0 = dict(zip(header, rows[0]))
        thermal_product_state(t0["n_plus"], t0["n_minus"], 4,
                              complex(t0["re_cross"], t0["im_cross"]))


def test_csv_cells_are_17_significant_digits(tmp_path):
    # round-trip text for every float, including the signed zero and non-finite values
    values = np.array([0.0, -0.0, 0.1, 1e22, 5e-324, np.inf, -np.inf, np.nan])
    cli._write_csv(tmp_path / "t.csv", ["a", "b"], [values, values[::-1]])
    lines = (tmp_path / "t.csv").read_text().split("\n")
    assert lines[0] == "a,b" and lines[-1] == ""
    assert lines[1:-1] == [f"{x:.17g},{y:.17g}" for x, y in zip(values, values[::-1])]
    assert lines[2] == "-0,-inf"


def test_csv_bytes_equal_savetxt(tmp_path, rng):
    table = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-300, 300, (7, 5))
    table[0] = [0.0, -0.0, 1e-300, 1e300, np.nan]
    header = [f"c{j}" for j in range(5)]
    cli._write_csv(tmp_path / "fast.csv", header, list(table.T))
    np.savetxt(tmp_path / "ref.csv", table, fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_fidelity_in_unit_interval(tmp_path):
    argv = ["fidelity", "--preset", "fig6", "--grid", "0:300:151:lin", "--out", str(tmp_path)]
    assert main(argv) == 0
    header, rows = read_csv(tmp_path / "fidelity.csv")
    f2 = [j for j, name in enumerate(header) if "f2" in name]
    assert len(f2) == 5
    assert np.all(rows[:, f2] >= 0.0)
    assert np.all(rows[:, f2] <= 1.0 + 1e-9)
    # physical columns are clamped: identical states at t = 0 read exactly 1
    physical = [j for j, name in enumerate(header) if name.startswith("f2_")]
    assert len(physical) == 4
    assert np.all(rows[:, physical] <= 1.0)


def test_filter_past_the_cp_bound_is_flagged_whatever_its_name(tmp_path):
    # cg_redfield:1.0 is the Redfield equation: both get the flagged pair
    argv = ["fidelity", "--preset", "fig6", *_EDGE_GRID, "--out", str(tmp_path / "hot"),
            "--set", "schemes=global,local,mixture,cg_redfield:1.0,redfield"]
    assert main(argv) == 0
    header, rows = read_csv(tmp_path / "hot" / "fidelity.csv")
    assert header == ["t", "f2_global", "f2_local", "f2_mixture_lower_bound",
                      "re_f2_cg_redfield_s1.0", "cg_redfield_s1.0_nonphysical",
                      "re_f2_redfield", "redfield_nonphysical"]
    assert np.array_equal(rows[:, 4:6], rows[:, 6:8])
    # at g = 0 the bound is clamped to 1, so the Redfield filter stays inside it
    argv = ["fidelity", "--preset", "fig6", *_EDGE_GRID, "--out", str(tmp_path / "dark"),
            "--set", "g=0", "--set", "schemes=redfield,global"]
    assert main(argv) == 0
    header, _ = read_csv(tmp_path / "dark" / "fidelity.csv")
    assert header == ["t", "f2_redfield", "f2_global"]


def test_bad_set_field_exits_1(tmp_path, capsys):
    argv = ["run", "--preset", "fig7", "--set", "no_such_field=1", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "no_such_field" in capsys.readouterr().err


def test_non_finite_filter_value_exits_1(tmp_path, capsys):
    argv = ["run", "--preset", "fig7", "--set", "schemes=cg_redfield:nan",
            "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "must be finite" in capsys.readouterr().err


def test_cold_bath_run_reports_no_memory_time(tmp_path):
    # at beta = 1e4 |c^(1)| never halves, so tau_E is undefined, not an error
    argv = ["run", "--preset", "fig7", "--set", "beta=1e4", "--out", str(tmp_path)]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["tau_memory"] is None


def test_underflowing_bath_run_reports_no_memory_time(tmp_path):
    # at beta = 1e6 every N(omega_k) underflows to 0, so c^(1) vanishes and
    # tau_E is undefined; it used to read off grid[-1] as 26.18
    argv = ["run", "--preset", "fig7", "--set", "beta=1e6", "--out", str(tmp_path)]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["tau_memory"] is None


def test_zero_temperature_run(tmp_path):
    # beta = inf: nothing to dissipate, so the exact state stays at the vacuum
    argv = ["run", "--preset", "fig7", "--set", "beta=inf", "--out", str(tmp_path)]
    assert main(argv) == 0
    _, rows = read_csv(tmp_path / "exact.csv")
    assert np.all(rows[:, 1:] == 0.0)
    assert json.loads((tmp_path / "summary.json").read_text())["tau_memory"] is None


def test_flat_spectrum_at_zero_temperature(tmp_path, capsys):
    # with N = 0 only the bare Lamb-shift integral is left, which converges at alpha = 0
    cold_flat = ["--set", "beta=inf", "--set", "alpha=0"]
    assert main(["threshold", *cold_flat]) == 0
    out = capsys.readouterr().out.splitlines()
    bound = cp_threshold(ModelParams(beta=np.inf, alpha=0.0))
    assert out[:2] == [f"cp_threshold = {bound:.17g}", "block_1_bound = unconstrained"]
    assert main(["run", *cold_flat, *_EDGE_GRID, "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "exact.csv", "global.csv", "local.csv", "summary.json"]


def test_sweep_writes_index(tmp_path):
    argv = ["sweep", "--preset", "fig7", "--grid", "0:20:11:lin", "--axis", "M",
            "--values", "40,50", "--out", str(tmp_path)]
    assert main(argv) == 0
    values = json.loads((tmp_path / "index.json").read_text())["values"]
    assert [values[v]["status"] for v in ("40", "50")] == ["ok", "ok"]
    assert "exact.csv" in values["40"]["files"]


def test_sweep_records_failed_value_and_exits_2(tmp_path):
    # g = 2 makes omega_minus negative: that value fails, its sibling still runs
    argv = ["sweep", "--preset", "fig7", "--grid", "0:20:11:lin", "--axis", "g",
            "--values", "0.2,2.0", "--out", str(tmp_path)]
    assert main(argv) == 2
    values = json.loads((tmp_path / "index.json").read_text())["values"]
    assert values["0.2"]["status"] == "ok"
    assert values["2.0"]["status"] == "error"
    assert values["2.0"]["error"].startswith("ValidationError")


def test_sweep_records_bad_value_with_the_set_parser_error(tmp_path):
    argv = ["sweep", "--preset", "fig7", "--grid", "0:20:11:lin", "--axis", "M",
            "--values", "100,100.5", "--out", str(tmp_path)]
    assert main(argv) == 2
    values = json.loads((tmp_path / "index.json").read_text())["values"]
    assert values["100"]["status"] == "ok"
    assert values["100.5"] == {"status": "error", "dir": "M=100.5",
                               "error": "ValidationError: field 'M': cannot parse '100.5'"}


def test_run_oracle_spot_check(tmp_path):
    argv = ["run", "--preset", "fig9b", "--oracle-verify", "on", "--out", str(tmp_path)]
    assert main(argv) == 0
    oracle = json.loads((tmp_path / "summary.json").read_text())["oracle_verify"]
    assert oracle["schemes"] == ["global", "local"]
    assert oracle["cutoff"] == 9
    assert oracle["max_moment_deviation"] <= 1e-9


def test_failed_oracle_spot_check_exits_2(tmp_path, monkeypatch, capsys):
    # a deviation just past the tolerance fails the spot check and a verify draw alike
    monkeypatch.setattr(verify, "moment_deviation", lambda *args: (2e-4, [], None))
    out = tmp_path / "out"
    argv = ["run", "--preset", "fig9b", "--oracle-verify", "on", "--out", str(out)]
    assert main(argv) == 2
    assert "oracle spot check failed" in capsys.readouterr().err
    assert not out.exists()
    case = verify.draw_case(np.random.default_rng(3))
    assert not verify.EquivalenceReport(case, 2e-4, 0.0).passed


def test_verify_one_draw():
    assert main(["verify", "--draws", "1", "--seed", "3"]) == 0


def test_threshold(capsys):
    assert main(["threshold", "--preset", "fig5"]) == 0
    assert capsys.readouterr().out.startswith("cp_threshold = ")


def test_threshold_builds_coefficients_once(capsys, monkeypatch):
    build = spectral.dissipator_coefficients
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("lamb_shift", True))
        return build(*args, **kwargs)

    for module in (cli, runner, spectral):
        monkeypatch.setattr(module, "dissipator_coefficients", counting, raising=False)
    for flags, lamb_shift in (([], True), (["--lamb-shift", "off"], False)):
        calls.clear()
        assert main(["threshold", "--preset", "fig5", *flags]) == 0
        assert calls == [lamb_shift]
        assert capsys.readouterr().out.startswith("cp_threshold = ")


@pytest.mark.parametrize("flags, over, lamb_shift", [
    ([], {}, True),
    (["--lamb-shift", "off"], {}, False),
    (["--set", "beta=inf"], {"beta": np.inf, "n_omega0": None}, True)])
def test_threshold_prints_the_dissipation_matrix_spectrum(capsys, flags, over, lamb_shift):
    # the reference builds the 4x4 block matrix [[s∘γ1, 0], [0, s∘γ2]] at the bound,
    # whose spectrum is that of the CP-Redfield scheme's u and w
    assert main(["threshold", "--preset", "fig5", *flags]) == 0
    out = capsys.readouterr().out
    params = ModelParams(**{**preset("fig5")["params"], **over})
    coeffs = spectral.dissipator_coefficients(params, lamb_shift=lamb_shift)
    gammas = (coeffs.gamma1, coeffs.gamma2)
    bounds = [np.sqrt(gam[0, 0].real * gam[1, 1].real) / abs(gam[0, 1])
              if abs(gam[0, 1]) > 0.0 else np.inf for gam in gammas]
    s = min(1.0, *bounds)
    lines = [f"cp_threshold = {s:.17g}"]
    lines += [f"block_{i}_bound = {b:.17g}" if np.isfinite(b) else f"block_{i}_bound = unconstrained"
              for i, b in enumerate(bounds, start=1)]
    matrix = np.zeros((4, 4), dtype=complex)
    for i, gam in enumerate(gammas):
        matrix[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[gam[0, 0], s * gam[0, 1]],
                                                    [s * gam[1, 0], gam[1, 1]]]
    lines.append("dissipation_matrix_eigenvalues_at_bound = "
                 + " ".join(f"{float(e):.17g}" for e in np.linalg.eigvalsh(matrix)))
    assert out == "\n".join(lines) + "\n"
    if over:  # no thermal occupation: γ1 = 0 constrains nothing
        assert "block_1_bound = unconstrained" in out


def test_lamb_shift_off_reaches_run_and_fidelity(tmp_path):
    # the flag decides the coefficients of every scheme, the bound and the summary
    for sub in ("run", "fidelity"):
        for flag in ("on", "off"):
            argv = [sub, "--preset", "fig6", *_EDGE_GRID, "--lamb-shift", flag,
                    "--out", str(tmp_path / f"{sub}_{flag}")]
            assert main(argv) == 0
    summary = json.loads((tmp_path / "run_off" / "summary.json").read_text())
    params = ModelParams(**preset("fig6")["params"])
    assert summary["lamb_shift"] is False
    assert summary["cp_threshold"] == cp_threshold(params, lamb_shift=False)
    assert summary["cp_threshold"] != cp_threshold(params)
    # the global populations do not see the shifted eigenfrequencies, so global.csv
    # is left out; every other scheme, and the fidelity table, moves
    schemes = [s for s in preset("fig6")["schemes"] if s != "global"]
    for name in [f"{s}.csv" for s in schemes] + ["fidelity.csv"]:
        sub = "fidelity" if name == "fidelity.csv" else "run"
        on, off = (read_csv(tmp_path / f"{sub}_{flag}" / name) for flag in ("on", "off"))
        assert on[0] == off[0]
        assert not np.array_equal(on[1][1:], off[1][1:]), name


@pytest.mark.parametrize("argv, message", [
    (["--draws", "0"], "error: --draws must be >= 1"),
    (["--draws", "1", "--seed", "-1"], "error: --seed must be >= 0"),
])
def test_verify_rejects_bad_arguments(capsys, argv, message):
    assert main(["verify", *argv]) == 1
    assert capsys.readouterr().err.startswith(message)


def test_non_physical_fidelity_error_names_the_reference(tmp_path, capsys):
    # the non-physical states are the Redfield reference's: cp_redfield against exact is physical
    out = tmp_path / "out"
    argv = ["fidelity", "--preset", "fig9b", "--reference", "redfield", "--out", str(out)]
    assert main(argv) == 2
    assert "against reference redfield" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("axis,values", [
    ("M", "50,50"),
    ("g", "0.1,0.10"),                  # one configuration, two spellings
    ("delta_t", "0.5,5e-1"),            # compared as parsed by --set's parser
])
def test_sweep_rejects_repeated_values(tmp_path, capsys, axis, values):
    out = tmp_path / "out"
    argv = ["sweep", "--preset", "fig7", "--grid", "0:20:11:lin", "--axis", axis,
            "--values", values, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: sweep --values repeats an entry")
    assert not out.exists()


def test_presets_resolve():
    for name in PRESETS:
        params, schemes, grid = build_config(argparse.Namespace(preset=name, set=None, grid=None))
        assert params == ModelParams(**preset(name)["params"])
        assert schemes == preset(name)["schemes"]
        assert time_grid(*grid).size == preset(name)["grid"][2]
    with pytest.raises(ValidationError):
        preset("nope")


_EDGE_GRID = ["--grid", "0:300:151:lin"]


@pytest.mark.parametrize("override", ["g=1e-6", "g=0.98", "alpha=0.1", "M=1", "M=3",
                                      "n_omega0=1e-12", "n_omega0=1e4"])
@pytest.mark.parametrize("command", [("run", "fig5"), ("fidelity", "fig6")])
def test_edge_parameters_run(tmp_path, command, override):
    sub, name = command
    argv = [sub, "--preset", name, "--set", override, *_EDGE_GRID, "--out", str(tmp_path)]
    assert main(argv) == 0
    for path in tmp_path.iterdir():
        if path.suffix == ".csv":
            _, rows = read_csv(path)
            assert rows.shape[0] == 151 and np.all(np.isfinite(rows))


@pytest.mark.parametrize("command", [("run", "fig5"), ("fidelity", "fig6")])
def test_ohmic_exponent_zero_exits_1(tmp_path, capsys, command):
    sub, name = command
    out = tmp_path / "out"
    argv = [sub, "--preset", name, "--set", "alpha=0", *_EDGE_GRID, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command, override", [
    (("run", "fig7"), "alpha=nan"), (("run", "fig7"), "alpha=inf"),
    (("run", "fig7"), "kappa0=inf"), (("run", "fig7"), "mixture_rate=inf"),
    (("fidelity", "fig6"), "mixture_rate=inf")])
def test_non_finite_parameter_exits_1(tmp_path, capsys, command, override):
    sub, name = command
    out = tmp_path / "out"
    argv = [sub, "--preset", name, "--set", override, *_EDGE_GRID, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0:inf:10:lin", "-5:150:11:lin", "-inf:5:10:lin",
                                  "1:inf:10:log"])
def test_grid_with_infinite_or_negative_bounds_exits_1(tmp_path, capsys, grid):
    out = tmp_path / "out"
    assert main(["run", "--preset", "fig7", f"--grid={grid}", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_dark_mode_run_records_null_steady_states(tmp_path):
    # at g = 0 mode B never sees the bath: no unique fixed point for most schemes
    argv = ["run", "--preset", "fig5", "--set", "g=0", *_EDGE_GRID, "--out", str(tmp_path)]
    assert main(argv) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted([f"{s}.csv" for s in PRESETS["fig5"]["schemes"]] + ["summary.json"])
    schemes = json.loads((tmp_path / "summary.json").read_text())["schemes"]
    for name in ("redfield", "cp_redfield", "local"):
        assert schemes[name]["steady_state"] is None
        assert schemes[name]["steady_state_error"]
    assert "final_state" in schemes["exact"]


def test_failed_run_writes_no_files(tmp_path, capsys):
    # the oracle spot check rejects a hot bath only after every scheme has run
    out = tmp_path / "out"
    argv = ["run", "--preset", "fig5", "--oracle-verify", "on", *_EDGE_GRID, "--out", str(out)]
    assert main(argv) == 1
    assert "oracle-verify needs small occupations" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "fidelity"])
def test_diverging_scheme_exits_2_and_writes_nothing(tmp_path, capsys, command):
    # a filter far past the CP bound overflows at t = 35.8; it used to write NaN rows
    out = tmp_path / "out"
    argv = [command, "--preset", "fig7", "--set", "schemes=cg_redfield:1000", "--out", str(out)]
    assert main(argv) == 2
    assert "propagation diverged at t = 35.8" in capsys.readouterr().err
    assert not out.exists()


def test_reference_is_not_a_set_field(tmp_path, capsys):
    # the fidelity reference is chosen with --reference only
    argv = ["fidelity", "--preset", "fig6", "--set", "reference=local", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "'reference'" in capsys.readouterr().err


@pytest.mark.parametrize("grid, start, rows_expected",
                         [("1:150:50:log", 1.0, 51), ("5:150:30:lin", 5.0, 31)])
def test_grid_not_starting_at_zero_gets_t0_prepended(tmp_path, grid, start, rows_expected):
    argv = ["run", "--preset", "fig7", "--grid", grid, "--out", str(tmp_path)]
    assert main(argv) == 0
    _, rows = read_csv(tmp_path / "exact.csv")
    assert rows.shape[0] == rows_expected
    assert np.all(rows[0] == 0.0)
    assert rows[1, 0] == start and rows[-1, 0] == 150.0


_FILTER_RUN = ["run", "--preset", "fig5", *_EDGE_GRID, "--set", "schemes=global,cg_redfield"]


def test_infinite_delta_t_is_the_global_scheme(tmp_path):
    assert main([*_FILTER_RUN, "--set", "delta_t=inf", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "cg_redfield.csv").read_bytes() == (tmp_path / "global.csv").read_bytes()


def test_verify_exits_2_when_a_cutoff_is_exceeded(monkeypatch, capsys):
    # a draw whose truncation fails is reported, not replaced by a weaker case
    monkeypatch.setattr(verify, "_cutoff_for", lambda n_scale: 4)
    assert main(["verify", "--draws", "1", "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "increase the cutoff" in err


@pytest.mark.parametrize("sub, schemes", [
    ("run", "exact,exact"),
    ("fidelity", "global,global"),
    ("run", "cg_redfield:0.5,cg_redfield:5e-1"),    # one filter, two spellings
])
def test_repeated_scheme_names_exit_1(tmp_path, capsys, sub, schemes):
    out = tmp_path / "out"
    argv = [sub, "--preset", "fig6", *_EDGE_GRID, "--set", f"schemes={schemes}",
            "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: scheme list repeats an entry")
    assert not out.exists()


_SWEEP = ["sweep", "--preset", "fig7", "--grid", "0:20:11:lin"]


@pytest.mark.parametrize("argv", [
    ["run", "--preset", "fig7", "--set", "g"],                       # --set without =
    ["run", "--preset", "fig7", "--grid", "0:20:11"],                # three grid fields
    ["run", "--preset", "fig7", "--grid", "0:20:11:lin:x"],          # five grid fields
    ["run", "--preset", "fig7", "--grid", "0:twenty:11:lin"],        # non-numeric field
    ["run", "--preset", "fig7", "--grid", "0:20:1:lin"],             # count below 2
    ["run", "--preset", "fig7", "--grid", "0:20:11:log"],            # log grid from 0
    ["run", "--preset", "fig7", "--grid", "0:20:11:cubic"],          # unknown grid kind
    ["run", "--preset", "fig7", "--set", "schemes=quantum"],
    ["run", "--preset", "fig7", "--set", "schemes=global:0.5"],
    ["run", "--preset", "fig7", "--set", "schemes=cg_redfield:x"],
    ["run", "--preset", "fig7", "--set", "schemes=,"],              # empty scheme list
    ["fidelity", "--preset", "fig6", *_EDGE_GRID, "--reference", "mixture"],
    [*_SWEEP, "--axis", "schemes", "--values", "exact"],             # not a parameter
    [*_SWEEP, "--axis", "M", "--values", " , "],                     # empty values list
    ["run", "--preset", "fig7", "--set", "delta_t=saturating"],      # the CP bound is cp_redfield
])
def test_invalid_arguments_exit_1_and_write_nothing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_mixture_runs_without_local_and_global(tmp_path):
    # the runner propagates the local and global parts of the mixture itself
    argv = ["run", "--preset", "fig5", *_EDGE_GRID, "--out"]
    assert main([*argv, str(tmp_path / "alone"), "--set", "schemes=exact,mixture"]) == 0
    assert main([*argv, str(tmp_path / "all")]) == 0
    assert sorted(p.name for p in (tmp_path / "alone").iterdir()) == [
        "exact.csv", "mixture.csv", "summary.json"]
    for name in ("exact.csv", "mixture.csv"):
        assert (tmp_path / "alone" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()
    schemes = json.loads((tmp_path / "alone" / "summary.json").read_text())["schemes"]
    assert set(schemes) == {"exact", "mixture"} and "filter_s" not in schemes["mixture"]

    argv = ["fidelity", "--preset", "fig6", *_EDGE_GRID, "--out"]
    assert main([*argv, str(tmp_path / "f_alone"), "--set", "schemes=mixture"]) == 0
    assert main([*argv, str(tmp_path / "f_all")]) == 0
    header, rows = read_csv(tmp_path / "f_alone" / "fidelity.csv")
    full_header, full_rows = read_csv(tmp_path / "f_all" / "fidelity.csv")
    assert header == ["t", "f2_mixture_lower_bound"]
    j = full_header.index("f2_mixture_lower_bound")
    assert np.array_equal(rows, full_rows[:, [0, j]])
