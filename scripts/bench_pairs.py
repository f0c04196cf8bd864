#!/usr/bin/env python3
"""Run the benchmark on a parent and a change checkout in alternating pairs and compare them.

    python3 scripts/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --pairs 10 --seeds 101,102 --seconds 25 --out pairs.jsonl \\
        [--workload train-8q ...] [--claim train-8q:wall_s]

Each pair runs ``bench/run.py --trace 0`` once in each checkout for every
workload, with the pair's seed (``--seeds`` is cycled over the pairs):
the parent first in odd pairs, the change first in even ones.  Every
run's result line goes to ``--out`` as one JSON line, so ``--summarise
FILE`` prints the summary again without running anything.

Per workload and end-to-end metric of ``BENCHMARK.json`` the summary
gives both sides' medians and quartiles and the pairs the change won.  A
metric named by ``--claim WORKLOAD:METRIC`` is met when the change wins
at least nine tenths of the pairs, ties counting for neither, and the
medians differ by more than the parent's interquartile range.  Every
other metric is "within bound" when the change's median is worse than
the parent's by no more than its bound, a fraction of the parent's
median; "unresolved" when the parent's interquartile range is wider than
the bound, unless every run of the change beats every run of the
parent; and "beyond bound" otherwise.  A run that fails or reports
``correct: false`` is listed and takes no part in the numbers.

The script reads ``BENCHMARK.json`` from the change checkout and runs
each checkout's ``bench/run.py``; it imports nothing from either.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CLAIM_WINS = 0.9


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its JSON result line, or the failure."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        return {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    return result


def run_pairs(args, workloads: list[str]) -> list[dict]:
    """Every run of every pair, each also written to ``args.out`` as it ends."""
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    records = []
    with args.out.open("w") as fh:
        for pair in range(1, args.pairs + 1):
            seed = args.seeds[(pair - 1) % len(args.seeds)]
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = run_once(sides[side], workload, seed, args.seconds)
                    record = {"pair": pair, "side": side, "workload": workload, "seed": seed,
                              "result": result}
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
                    fh.flush()
                    print(f"pair {pair:2d} {workload:9s} {side:6s} seed {seed}: "
                          + json.dumps(result.get("metrics", result)), flush=True)
                    records.append(record)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], wins: int, n_pairs: int,
            lower_better: bool, bound: float, claimed: bool) -> str:
    """The claim rule for a claimed metric; the bound rule for any other."""
    p1, p_med, p3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    iqr = p3 - p1
    gain = p_med - c_med if lower_better else c_med - p_med
    if claimed:
        met = wins >= CLAIM_WINS * n_pairs and gain > iqr
        return (("claim met" if met else "claim NOT met")
                + f" ({wins}/{n_pairs} wins, gain {gain:.6g} vs parent IQR {iqr:.6g})")
    beats = min(parent) > max(change) if lower_better else max(parent) < min(change)
    if iqr > bound * abs(p_med) and not beats:
        return f"unresolved (parent IQR {iqr:.6g} > bound {bound:g} x median)"
    if -gain > bound * abs(p_med):
        return f"beyond bound ({-gain / abs(p_med):+.1%} worse, bound {bound:.0%})"
    return "within bound" + (" (change better in every run)" if beats else "")


def summarise(records: list[dict], spec: dict, claims: set[tuple[str, str]]) -> list[str]:
    """Summary lines: failed runs, then one row per workload and end-to-end metric."""
    failed = [r for r in records if not r["result"].get("correct")]
    lines = [f"FAILED pair {r['pair']} {r['workload']} {r['side']}: "
             + r["result"].get("error", "correct: false") for r in failed]
    good = [r for r in records if r["result"].get("correct")]
    lines.append(f"{'workload':9s} {'metric':12s} {'parent q1/median/q3':>32s} "
                 f"{'change q1/median/q3':>32s}  verdict")
    for workload in dict.fromkeys(r["workload"] for r in records):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            runs: dict[int, dict[str, float]] = {}
            for r in good:
                if r["workload"] == workload:
                    runs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"][name]["value"]
            paired = [(v["parent"], v["change"]) for _, v in sorted(runs.items()) if len(v) == 2]
            if not paired:
                lines.append(f"{workload:9s} {name:12s} no complete pair")
                continue
            parent, change = [p for p, _ in paired], [c for _, c in paired]
            lower_better = metric["better"] == "lower"
            wins = sum((c < p) if lower_better else (c > p) for p, c in paired)
            cells = ["/".join(f"{v:.4g}" for v in quartiles(side)) for side in (parent, change)]
            result = verdict(parent, change, wins, len(paired), lower_better, metric["bound"],
                             (workload, name) in claims)
            lines.append(f"{workload:9s} {name:12s} {cells[0]:>32s} {cells[1]:>32s}  "
                         f"{wins}/{len(paired)} wins; {result}")
    return lines


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, help="checkout of the change; its BENCHMARK.json is read")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")], default=[11])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workload", action="append", help="a workload to run (default: all)")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    parser.add_argument("--out", type=Path, help="file for the runs' result lines")
    parser.add_argument("--summarise", type=Path, metavar="FILE",
                        help="summarise the result lines of an earlier run instead of running")
    args = parser.parse_args(argv)
    if args.summarise is None and not (args.parent and args.change and args.out):
        parser.error("--parent, --change and --out are required unless --summarise is given")
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    if any(claim.count(":") != 1 for claim in args.claim):
        parser.error("--claim takes WORKLOAD:METRIC")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = args.change if args.summarise is None else Path(__file__).resolve().parents[1]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    claims = {tuple(claim.split(":")) for claim in args.claim}
    known = {(w["name"], m["name"]) for w in spec["workloads"] for m in spec["end_to_end"]}
    if unknown := claims - known:
        print(f"--claim names no workload and end-to-end metric: {sorted(unknown)}", file=sys.stderr)
        return 2
    if args.summarise is not None:
        records = [json.loads(line) for line in args.summarise.read_text().splitlines() if line]
    else:
        records = run_pairs(args, args.workload or [w["name"] for w in spec["workloads"]])
    print("\n".join(summarise(records, spec, claims)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
