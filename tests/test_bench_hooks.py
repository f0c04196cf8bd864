"""Fast guard for the traced benchmark's hook table.

``bench/tracing.py`` wraps ``qhbm.<module>.<name>`` attributes by name and
reads counters from their arguments and results.  A rename in the package
would otherwise only show up as a ``HookError`` in a traced benchmark run.
The table is read, never modified.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qhbm
import qhbm.cli  # noqa: F401  (the tracer hooks the CLI commands too)
from qhbm import anomaly, ebm, io, qsim, train

from oracles import hamiltonian_from_energies
from script_runner import load_bench_module

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
LAYER_MAP = TRACING.parent / "layer_map.json"


def load_tracing():
    return load_bench_module("tracing")


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
    model = ebm.EnergyModel.initialize(3, 6, np.random.default_rng(0))
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


# Hooked functions that score_events calls once per event, by mode.
PER_EVENT_HOOKS = {
    "t_zero": ("anomaly.expectation_score", "embed.bernoulli_index_samples"),
    "spectral": ("anomaly.time_evolution_series", "embed.bernoulli_index_samples"),
}
# Hooked functions that score_events calls once per call: the routing table.
PER_CALL_HOOKS = ("qsim.ansatz_unitary",)


@pytest.mark.parametrize("mode", sorted(PER_EVENT_HOOKS))
def test_scoring_calls_each_per_event_hook_once_per_event(monkeypatch, mode):
    """The traced per-event counts need one call per event of each hooked function.

    The circuit unitary depends on the model only, so one routing table
    per ``score_events`` call builds it exactly once.
    """
    hooks = load_tracing().HOOKS
    targets = {
        "anomaly.expectation_score": (anomaly, "expectation_score"),
        "anomaly.time_evolution_series": (anomaly, "time_evolution_series"),
        "embed.bernoulli_index_samples": (anomaly, "bernoulli_index_samples"),
        "qsim.ansatz_unitary": (qsim, "ansatz_unitary"),
    }
    calls = dict.fromkeys(targets, 0)
    for key, (module, attr) in targets.items():
        assert (module.__name__.removeprefix("qhbm."), attr) in hooks[key]

        def counted(*args, _key=key, _fn=getattr(module, attr), **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    model = ebm.EnergyModel.initialize(3, 6, np.random.default_rng(0))
    ansatz = qsim.CircuitAnsatz(3, 1, np.full(4, 0.3))
    state = train.TrainState(
        energy_model=model,
        ansatz=ansatz,
        hamiltonian=hamiltonian_from_energies(3, [0, 5, 6], [0.1, 0.7, 1.3]),
        chain=ebm.initial_chain(model, np.random.default_rng(1)),
        adam=train.AdamState.zeros_like(train.parameters(model, ansatz)),
        lr_current=1e-2,
    )
    events = [np.array([0.2, 0.5, 0.8 - 0.1 * i]) for i in range(3)]
    anomaly.score_events(
        state, events, mode, np.random.default_rng(2),
        f_min=0.5, total_time=5.0, dt=0.1, n_draws=4,
    )
    for key, count in calls.items():
        expected = len(events) if key in PER_EVENT_HOOKS[mode] else int(key in PER_CALL_HOOKS)
        assert count == expected, key


def test_traced_fit_calls_every_train_8q_hook():
    """A traced train-8q run raises HookError for a mapped hook with no call.

    ``bench/run.py`` checks every hook that ``layer_map.json`` places on the
    workload; a three-qubit, one-epoch ``fit`` runs the same code paths.
    """
    tracing = load_tracing()
    rows = json.loads(LAYER_MAP.read_text())
    hooks = {".".join(row["metric"].split(".")[:2]) for row in rows if "train-8q" in row["on"]}
    hooks &= set(tracing.HOOKS)
    assert "train.batch_objective" in hooks and "qsim.ansatz_unitary" in hooks
    config = train.TrainConfig(
        n_qubits=3, n_layers=1, n_mc_samples=20, n_embed_samples=10, batch_size=2,
        max_epochs=1, seed=3,
    )
    events = [np.array([0.2, 0.5, 0.8 - 0.1 * i]) for i in range(5)]
    with tracing.Tracer(qhbm) as tracer:
        train.fit(config, events[:3], events[3:])
    counts, _ = tracer.layer_stats()
    assert {hook: counts[f"{hook}.calls"] for hook in sorted(hooks) if not counts[f"{hook}.calls"]} == {}


# Hooks on the ``qhbm anomaly`` path, all of them placed on cli-6q.
ANOMALY_COMMAND_HOOKS = {
    "cli.anomaly",
    "io.load_checkpoint",
    "io.read_image_container",
    "io.write_csv_with_provenance",
    "qsim.ansatz_unitary",
    "embed.bernoulli_index_samples",
    "anomaly.expectation_score",
    "anomaly.time_evolution_series",
    "anomaly.spectral_score",
    "metrics.power_spectrum",
    "metrics.roc_from_scores",
}


def test_traced_anomaly_command_calls_every_cli_6q_hook(tmp_path):
    """A traced cli-6q run raises HookError for a mapped hook with no call.

    A small ``qhbm anomaly`` run takes the code paths of the cli-6q anomaly
    step, so each hook that ``layer_map.json`` places on cli-6q along that
    command must have calls, and the per-event scoring ratios must exist.
    """
    tracing = load_tracing()
    rows = json.loads(LAYER_MAP.read_text())
    hooks = {".".join(row["metric"].split(".")[:2]) for row in rows if "cli-6q" in row["on"]}
    assert ANOMALY_COMMAND_HOOKS <= hooks & set(tracing.HOOKS)
    config = train.TrainConfig(
        n_qubits=3, n_layers=1, n_mc_samples=20, n_embed_samples=10, batch_size=2,
        max_epochs=1, seed=3,
    )
    probs = [np.array([0.2, 0.5, 0.8 - 0.1 * i]) for i in range(5)]
    events = probs
    state, history = train.fit(config, events[:3], events[3:])
    io.save_checkpoint(tmp_path / "model.qhbm", state, config, history)
    for name, split in (("signal", probs[:2]), ("background", probs[2:])):
        io.write_image_container(
            tmp_path / f"{name}.qhbimg",
            np.array(split)[:, None],
            ["unlabelled"] * len(split),
            {"kind": "probabilities"},
        )
    argv = [
        "anomaly", "--checkpoint", str(tmp_path / "model.qhbm"),
        "--signal", str(tmp_path / "signal.qhbimg"),
        "--background", str(tmp_path / "background.qhbimg"),
        "--outdir", str(tmp_path / "anomaly"),
        "--total-time", "5", "--dt", "0.1", "--n-draws", "4", "--f-min", "0.5",
    ]
    with tracing.Tracer(qhbm) as tracer:
        assert qhbm.cli.main(argv) == 0
    counts, _ = tracer.layer_stats()
    missing = {hook for hook in ANOMALY_COMMAND_HOOKS if not counts[f"{hook}.calls"]}
    assert missing == set()
    assert counts["qsim.ansatz_unitary.calls"] == 1
    assert "qsim.ansatz_unitary.calls_per_event" in counts
    # The spectral pass's series are the only ones: one per event.
    assert counts["anomaly.time_evolution_series.calls_per_event"] == 1.0
    # One transform per block of up to 16 events gives a class's scores and
    # mean spectrum: one block for each of the two classes here.
    assert counts["metrics.power_spectrum.calls"] == 2


def test_repeated_traced_fits_agree_bitwise():
    """Two traced fits of one config in one process give the same counts and history.

    The benchmark repeats its timed part and reports ``correct: false`` when
    an exact value or a traced layer count differs between repetitions, as
    state carried from one call to the next would make it.
    """
    tracing = load_tracing()
    config = train.TrainConfig(
        n_qubits=4, n_layers=2, n_mc_samples=30, n_embed_samples=20, batch_size=2,
        max_epochs=2, seed=5,
    )
    events = [np.array([0.2, 0.5, 0.8, 0.3 + 0.1 * i]) for i in range(6)]
    runs = []
    for _ in range(2):
        with tracing.Tracer(qhbm) as tracer:
            _, history = train.fit(config, events[:4], events[4:])
        counts, _ = tracer.layer_stats()
        runs.append((counts, history))
    (counts_a, history_a), (counts_b, history_b) = runs
    assert counts_a == counts_b
    assert counts_a["qsim.ansatz_unitary.calls"] > 0
    assert [row.keys() for row in history_a] == [row.keys() for row in history_b]
    assert bits(history_a) == bits(history_b)


def bits(history):
    return [np.float64(value).tobytes() for row in history for value in row.values()]


def test_traced_score_benchmark_smoke_run():
    """One short traced score-6q run: every hook fires and exact values repeat.

    The run keeps its scratch directory at the root of the checkout and
    writes no bytecode, so ``bench/`` is only read.
    """
    root = TRACING.parents[1]
    argv = [sys.executable, "bench/run.py", "--workload", "score-6q", "--seed", "11",
            "--seconds", "0.01", "--trace", "1"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "HookError" not in proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
