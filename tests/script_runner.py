"""Run an experiment script from ``scripts/`` in-process through its ``main``."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, argv):
    """``scripts/<name>.py``'s ``main(argv)``; returns its exit code."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)
