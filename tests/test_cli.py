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
    # identical states at t = 0 read 1 up to roundoff, the slack gaussian_fidelity clamps
    assert np.all(rows[:, f2] >= 0.0)
    assert np.all(rows[:, f2] <= 1.0 + 1e-9)


def test_bad_set_field_exits_1(tmp_path, capsys):
    argv = ["run", "--preset", "fig7", "--set", "no_such_field=1", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "no_such_field" in capsys.readouterr().err
