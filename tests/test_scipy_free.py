"""The run path loads no SciPy module; only the Fock oracle does.

Runs in a fresh interpreter: the test process has SciPy loaded already (the
pytest configuration names ``scipy.integrate.IntegrationWarning``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import oscpair

SRC = Path(oscpair.__file__).resolve().parent.parent

SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import oscpair
steps = {"import oscpair": (0, scipy_modules())}
from oscpair.cli import main
for name, argv in [
        ("threshold", ["threshold", "--preset", "fig5"]),
        ("run", ["run", "--preset", "fig5", "--out", "run"]),
        ("fidelity", ["fidelity", "--preset", "fig6", "--out", "fidelity"]),
        ("sweep", ["sweep", "--preset", "fig7", "--grid", "0:20:11:lin", "--axis", "M",
                   "--values", "40,50", "--out", "sweep"]),
        ("verify", ["verify", "--draws", "1"]),
        ("oracle", ["run", "--preset", "fig9b", "--oracle-verify", "on", "--out", "oracle"])]:
    code = main(argv)
    steps[name] = (code, scipy_modules())
print(json.dumps(steps))
"""


def test_run_path_loads_no_scipy_and_the_oracle_still_runs(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in ("import oscpair", "threshold", "run", "fidelity", "sweep"):
        code, loaded = steps[name]
        assert code == 0, name
        assert loaded == [], f"{name} loaded {loaded[:5]}"
    for name in ("verify", "oracle"):
        code, loaded = steps[name]
        assert code == 0, name
        assert "scipy.integrate" in loaded
