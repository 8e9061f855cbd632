import argparse
import json

import numpy as np
import pytest

from oscpair import ModelParams, ValidationError, cp_threshold
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


def test_csv_cells_are_17_significant_digits(tmp_path):
    # round-trip text for every float, including the signed zero and non-finite values
    values = np.array([0.0, -0.0, 0.1, 1e22, 5e-324, np.inf, -np.inf, np.nan])
    cli._write_csv(tmp_path / "t.csv", ["a", "b"], [values, values[::-1]])
    lines = (tmp_path / "t.csv").read_text().split("\n")
    assert lines[0] == "a,b" and lines[-1] == ""
    assert lines[1:-1] == [f"{x:.17g},{y:.17g}" for x, y in zip(values, values[::-1])]
    assert lines[2] == "-0,-inf"


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


def test_run_oracle_spot_check(tmp_path):
    argv = ["run", "--preset", "fig9b", "--oracle-verify", "on", "--out", str(tmp_path)]
    assert main(argv) == 0
    oracle = json.loads((tmp_path / "summary.json").read_text())["oracle_verify"]
    assert oracle["schemes"] == ["global", "local"]
    assert oracle["cutoff"] == 9
    assert oracle["max_moment_deviation"] <= 1e-9


def test_verify_one_draw():
    assert main(["verify", "--draws", "1", "--seed", "3"]) == 0


def test_threshold(capsys):
    assert main(["threshold", "--preset", "fig5"]) == 0
    assert capsys.readouterr().out.startswith("cp_threshold = ")


def test_threshold_builds_coefficients_once(capsys, monkeypatch):
    build = spectral.dissipator_coefficients
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    for module in (cli, runner, spectral):
        monkeypatch.setattr(module, "dissipator_coefficients", counting, raising=False)
    assert main(["threshold", "--preset", "fig5"]) == 0
    assert len(calls) == 1
    out = capsys.readouterr().out

    # the same lines through cp_threshold and a separate coefficient set
    params = ModelParams(**preset("fig5")["params"])
    thr = cp_threshold(params)
    coeffs = build(params)
    lines = [f"cp_threshold = {thr.bound:.17g}"]
    for i, gam in enumerate((coeffs.gamma1, coeffs.gamma2), start=1):
        block = np.sqrt(gam[0, 0].real * gam[1, 1].real) / abs(gam[0, 1])
        lines.append(f"block_{i}_bound = {float(block):.17g}")
    lines.append("dissipation_matrix_eigenvalues_at_bound = "
                 + " ".join(f"{float(e):.17g}" for e in np.linalg.eigvalsh(thr.matrix)))
    assert out == "\n".join(lines) + "\n"


def test_verify_rejects_zero_draws(capsys):
    assert main(["verify", "--draws", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: --draws must be >= 1")


def test_presets_resolve():
    for name in PRESETS:
        cfg = build_config(argparse.Namespace(preset=name, set=None, grid=None))
        assert cfg.times.size == preset(name)["grid"][2]
    for alias, target in (("fig8", "fig8a"), ("fig9", "fig9a"), ("fig10", "fig9a"),
                          ("fig10a", "fig9a"), ("fig10b", "fig9b")):
        assert preset(alias) == preset(target)
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


def test_saturating_delta_t_filters_at_cp_threshold(tmp_path):
    assert main([*_FILTER_RUN, "--set", "delta_t=saturating", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["schemes"]["cg_redfield"]["filter_s"] == summary["cp_threshold"]


def test_infinite_delta_t_is_the_global_scheme(tmp_path):
    assert main([*_FILTER_RUN, "--set", "delta_t=inf", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "cg_redfield.csv").read_bytes() == (tmp_path / "global.csv").read_bytes()


def test_verify_exits_2_when_a_cutoff_is_exceeded(monkeypatch, capsys):
    # a draw whose truncation fails is reported, not replaced by a weaker case
    monkeypatch.setattr(verify, "_cutoff_for", lambda n_scale: 4)
    assert main(["verify", "--draws", "1", "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "increase the cutoff" in err
