"""The benchmark tracer's layer names resolve against the package.

``perfbench/tracing.py`` wraps every function its ``LAYERS`` table lists and
raises ``LookupError`` for a listed name the package no longer defines, so a
rename or move in ``oscpair`` must fail here rather than in a traced run.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracer_installs_every_layer_name_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        try:
            tracer.install()
            assert tracing.installed_wrappers()
        finally:
            tracer.restore()
        assert tracing.installed_wrappers() == []
    finally:
        del sys.modules[spec.name]
