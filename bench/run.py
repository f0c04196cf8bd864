#!/usr/bin/env python3
"""qhbm benchmark: one seeded workload per process.

    python3 bench/run.py --workload train-8q|score-6q|cli-6q \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` there.  The workload builds its inputs from ``--seed`` (set-up
is repeated and its median reported as ``setup_s``), then repeats its
timed part until ``--seconds`` have passed and reports medians over the
repetitions.  Every repetition's outputs are checked, and values that
must be deterministic (losses, AUCs, and in traced runs every exact
layer count) must repeat bit for bit.

``--workload all`` runs every workload, each in its own process.

Output lines: ``env`` (seed, BLAS threads, nproc, versions, git SHA when
run from a clone, digest of the sources), ``metric`` (every end-to-end
metric the workload has, with its unit), ``check`` (failed checks), and
with ``--trace 1`` also ``layer`` (the rows of ``bench/layer_map.json``
that apply to the workload, each naming the end-to-end metrics it
explains) and ``hook`` (calls, self, total time and errors of every
hooked function that ran).  The last line is the JSON result: with
``--trace 0`` the ``end_to_end`` metrics of BENCHMARK.json, with
``--trace 1`` its ``per_layer`` metrics.  Both lists hold only metrics
that every workload produces; rates, losses and AUCs that exist on some
workloads only are ``metric`` lines.

BLAS runs on one thread, at most nproc: the benchmark is one process
with no worker threads.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
# Must be set before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_REPS = 2
MIN_COVERAGE = 0.9
WORKLOADS = ("train-8q", "score-6q", "cli-6q")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_sha() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """Digest of the package sources, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qhbm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def line(kind: str, name: str, value, unit: str) -> str:
    return f"{kind:6s} {name:48s} {value!r:>24} {unit}"


@dataclass
class Rep:
    wall_s: float
    outcome: object
    checks: dict[str, bool]
    tracer: tracing.Tracer | None


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def _terminate(signum, frame):
    # Unwind like Ctrl-C so ``finally`` blocks clean up; SystemExit would be
    # caught where a CLI command's argparse exit is.
    raise KeyboardInterrupt


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "qhbm" / "__init__.py").is_file():
        print(f"no qhbm sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((BENCH / "layer_map.json").read_text())

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import qhbm
    import qhbm.cli
    import workloads
    import_s = time.perf_counter() - started
    if not Path(qhbm.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported qhbm from {qhbm.__file__}, not from this checkout", file=sys.stderr)
        return 2

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print("env    " + json.dumps(env, sort_keys=True))

    setup, run, check = workloads.WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - start)

        reps: list[Rep] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            # With tracing on, untraced and traced repetitions alternate.
            tracer = tracing.Tracer(qhbm) if args.trace and len(reps) % 2 else None
            gc.collect()
            with tracer or contextlib.nullcontext():
                start = time.perf_counter()
                outcome = run(inputs)
                wall = time.perf_counter() - start
            reps.append(Rep(wall, outcome, check(inputs, outcome), tracer))
            n_traced = sum(r.tracer is not None for r in reps)
            if (
                time.perf_counter() >= deadline
                and len(reps) - n_traced >= MIN_REPS
                and (not args.trace or n_traced >= MIN_REPS)
            ):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in reps if r.tracer is None]
    attempted = sum(r.outcome.ops + len(r.checks) for r in reps)
    failed = sum(r.outcome.failed_ops + sum(not ok for ok in r.checks.values()) for r in reps)
    problems = [f"{name}: FAILED" for r in reps for name, ok in r.checks.items() if not ok]
    problems += [e for r in reps for k, e in r.outcome.data.items() if k.startswith("error")]
    # Values that must not vary between repetitions, traced or not.
    first = reps[0].outcome
    if any(r.outcome.exact != first.exact or r.outcome.layer != first.layer for r in reps):
        failed += 1
        problems.append("exact values differ between repetitions: "
                        + " / ".join(repr(r.outcome.exact) for r in reps))

    wall_s = statistics.median(r.wall_s for r in plain)
    if args.trace:
        report, layer_failed, layer_lines = layer_values(args.workload, reps, layer_map, wall_s, problems)
        failed += layer_failed

    e2e = {
        "setup_s": import_s + statistics.median(setup_times),
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": failed / attempted,
    }
    units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}
    for key in sorted({k for r in plain for k in r.outcome.rates}):
        e2e[key] = statistics.median(r.outcome.rates[key] for r in plain if key in r.outcome.rates)
        units[key] = "1/s"
    for key in sorted(first.exact):
        e2e[key] = first.exact[key]
        units[key] = "loss" if "loss" in key else "auc"
    for key in sorted({k for r in plain for k in r.outcome.seconds}):
        e2e[key] = statistics.median(r.outcome.seconds[key] for r in plain)
        units[key] = "s"
    print(f"reps   {len(plain)} untraced, {len(reps) - len(plain)} traced; wall_s of each: "
          + " ".join(f"{r.wall_s:.4f}" for r in reps))
    print(f"setup  {len(setup_times)} set-ups of " + " ".join(f"{t:.4f}" for t in setup_times)
          + f" s after {import_s:.4f} s of imports")
    for key, value in e2e.items():
        print(line("metric", key, value, units[key]))
    if args.trace:
        print("\n".join(layer_lines))
    else:
        report = e2e
    for problem in problems:
        print(f"check  {problem}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in report]
    if missing:
        raise tracing.HookError(f"{args.workload} produced no value for {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": report[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def layer_values(workload, reps, layer_map, untraced_wall, problems) -> tuple[dict, int, list[str]]:
    """Per-layer metrics of the traced repetitions, failed checks among them, report lines.

    Raises HookError when a hook that ``layer_map`` places on this
    workload was never called, rather than reporting zero.
    """
    traced = [r for r in reps if r.tracer is not None]
    stats = [r.tracer.layer_stats() for r in traced]
    counts = stats[0][0] | traced[0].outcome.layer
    failed = 0
    if any(s[0] != stats[0][0] for s in stats):
        failed += 1
        problems.append("layer counts differ between traced repetitions")
    errors = {k: v for k, v in counts.items() if k.endswith(".errors") and v}
    if errors:
        failed += 1
        problems.append(f"hooked calls raised: {errors}")
    values = dict(counts)
    for key in stats[0][1]:
        values[key] = statistics.median(s[1][key] for s in stats)
    coverage = statistics.median(r.tracer.root_s() / r.wall_s for r in traced)
    if coverage < MIN_COVERAGE:
        failed += 1
        problems.append(f"hooked spans cover {coverage:.3f} of traced wall time (< {MIN_COVERAGE})")
    traced_wall = statistics.median(r.wall_s for r in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.hook_coverage"] = coverage

    lines = []
    for row in (row for row in layer_map if workload in row["on"]):
        hook = ".".join(row["metric"].split(".")[:2])
        if hook in tracing.HOOKS and not counts[f"{hook}.calls"]:
            raise tracing.HookError(f"{hook} has no callers on {workload}")
        if row["metric"] not in values:
            raise tracing.HookError(f"{row['metric']} was not measured on {workload}")
        lines.append(line("layer", row["metric"], values[row["metric"]], row["unit"])
                     + f"  moves {','.join(row['moves'])}")
    for hook in tracing.HOOKS:
        if counts[f"{hook}.calls"]:
            for stat in ("calls", "self_s", "total_s", "errors"):
                name = f"{hook}.{stat}"
                lines.append(line("hook", name, values[name], "count" if stat in ("calls", "errors") else "s"))
    idle = [hook for hook in tracing.HOOKS if not counts[f"{hook}.calls"]]
    lines.append(f"hooks  not on the {workload} path: {' '.join(idle) or '-'}")
    return values, failed, lines


if __name__ == "__main__":
    sys.exit(main())
