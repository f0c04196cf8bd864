"""Run an experiment script from ``scripts/`` in-process, or load a ``bench/`` module."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
BENCH = SCRIPTS.parent / "bench"


def run_script(name, argv):
    """``scripts/<name>.py``'s ``main(argv)``; returns its exit code."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)


def load_bench_module(name):
    """``bench/<name>.py`` as module ``bench_<name>``, loaded once; the file is only read."""
    key = f"bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses resolves the defining module through sys.modules.
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]
