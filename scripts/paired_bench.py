"""Paired benchmark runs of two checkouts, alternating which goes first.

    python scripts/paired_bench.py --parent DIR --change DIR --workload oracle \
        --pairs 10 --seconds 30 --first-seed 1000

Pair i runs `python bench/run.py --workload W --seed K+i --seconds S
--trace 0` in each checkout, the parent first on even pairs and the change
first on odd ones, so a drift in machine speed lands on both sides alike.
For each end-to-end metric that BENCHMARK.json declares, it prints each
side's median and quartiles, the change/parent ratio of the medians, the
pairs the change won (in the metric's better direction) and whether the
medians differ by more than the parent's interquartile range. The same
rows follow for the workload's per-arm figures, read from each run's
`REPORT` line, each with its change/parent ratio pair by pair, so that a
gain can be placed in an arm. On `train` these are the env-steps/s both
probe-normalized (what `throughput_per_s` reports) and raw: the probe can
absorb a varying share of a gain, so a small one must be read both ways. It
exits 1 if any run is not `correct: true` or prints no result line.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


# workload -> the REPORT metrics of its arms, each with its better direction
ARM_METRICS = {
    "train": [("train_env_steps_per_s@probe", "higher"), ("train_env_steps_per_s", "higher")],
    "evaluate": [(f"{arm}@probe", "higher") for arm in (
        "fidelity_episodes_per_s", "attack_episodes_per_s", "patch_episodes_per_s",
        "explain_steps_per_s")],
    "oracle": [("oracle_query_ms_p50@probe", "lower")],
}


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The result object (the last line) and the REPORT object of one
    untraced bench run."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    report = next((line[len("REPORT "):] for line in lines if line.startswith("REPORT ")), "{}")
    try:
        return json.loads(lines[-1]), json.loads(report)
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        return {"correct": False, "metrics": {}}, {}


def print_row(name: str, values: dict[str, list[float]], higher: bool, pairs: int,
              per_pair: bool = False) -> None:
    """One metric's quartiles per side, the ratio of the medians, the pairs
    the change won and whether the medians differ by more than the parent's
    interquartile range; with `per_pair`, a line of each pair's ratio."""
    if min(len(v) for v in values.values()) < pairs:
        print(f"  {name:<34} missing in some runs")
        return
    values = {side: np.array(v) for side, v in values.items()}
    quartiles = {side: np.percentile(v, [25, 50, 75]) for side, v in values.items()}
    wins = int(np.sum(values["change"] > values["parent"] if higher
                      else values["change"] < values["parent"]))
    p_q1, p_med, p_q3 = quartiles["parent"]
    c_med = quartiles["change"][1]
    clear = abs(c_med - p_med) > p_q3 - p_q1
    cells = {side: "/".join(f"{v:.5g}" for v in q) for side, q in quartiles.items()}
    ratio = c_med / p_med if p_med else float("nan")
    print(f"  {name:<34} {cells['parent']:>32} {cells['change']:>32} "
          f"{ratio:>7.4f} {wins:>3}/{pairs:<2} {'yes' if clear else 'no':>6}")
    if per_pair:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = values["change"] / values["parent"]
        print(f"    per pair change/parent: {' '.join(f'{r:.4f}' for r in ratios)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True, choices=["train", "evaluate", "oracle"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    reports: dict[str, list[dict]] = {"parent": [], "change": []}
    correct = True
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, report = run_bench(sides[side], args.workload, seed, args.seconds)
            results[side].append(result)
            reports[side].append(report)
            if result.get("correct") is not True:
                correct = False
                print(f"pair {i} seed {seed} {side}: not correct: {json.dumps(result)}")
    print(f"workload={args.workload} pairs={args.pairs} seconds={args.seconds} "
          f"seeds={args.first_seed}..{args.first_seed + args.pairs - 1}")
    print(f"  {'metric':<34} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'ratio':>7} {'wins':>6} {'clear':>6}")
    rows = [(metric["name"], metric["better"], results) for metric in declared]
    rows += [(name, better, reports) for name, better in ARM_METRICS[args.workload]]
    for name, better, runs in rows:
        print_row(name, {side: [r["metrics"][name]["value"] for r in runs[side]
                                if name in r.get("metrics", {})] for side in runs},
                  better == "higher", args.pairs, per_pair=runs is reports)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
