import json

import numpy as np

from oscpair.cli import main


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
