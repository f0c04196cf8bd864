"""Fast guard for the traced benchmark's hook table.

``bench/tracing.py`` wraps ``qhbm.<module>.<name>`` attributes by name and
reads counters from their arguments and results.  A rename in the package
would otherwise only show up as a ``HookError`` in a traced benchmark run.
The table is read, never modified.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from qhbm import ebm

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    if "bench_tracing" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
        module = importlib.util.module_from_spec(spec)
        # dataclasses resolves the defining module through sys.modules.
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return sys.modules["bench_tracing"]


def bound_arguments(fn, *args):
    bound = inspect.signature(fn).bind(*args)
    bound.apply_defaults()
    return bound.arguments


def test_every_hook_target_is_callable():
    tracing = load_tracing()
    for key, targets in tracing.HOOKS.items():
        for module_name, attr in targets:
            module = importlib.import_module(f"qhbm.{module_name}")
            assert callable(getattr(module, attr, None)), f"{key}: qhbm.{module_name}.{attr}"
    assert set(tracing.COUNTERS) <= set(tracing.HOOKS)


def test_sampler_and_hamiltonian_counters_read_real_calls():
    counters = load_tracing().COUNTERS
    model = ebm.EnergyModel.initialize(3, rng=np.random.default_rng(0))
    chain = ebm.initial_chain(model, np.random.default_rng(1))

    sampled = ebm.metropolis_sample(model, chain, 5, 40)
    args = bound_arguments(ebm.metropolis_sample, model, chain, 5, 40)
    assert counters["ebm.metropolis_sample"]["samples"](args, sampled) == 40

    assert "samples" in inspect.signature(ebm.build_hamiltonian).parameters
    ham = ebm.build_hamiltonian(model, sampled[0])
    args = bound_arguments(ebm.build_hamiltonian, model, sampled[0])
    build = counters["ebm.build_hamiltonian"]
    assert build["collected"](args, ham) == 40
    assert build["support"](args, ham) == len(ham.support) == len(np.unique(sampled[0]))
