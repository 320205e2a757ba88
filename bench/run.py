"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {train,evaluate,oracle} --seed N \
        --seconds S --trace {0,1}

`--trace 0` measures the end-to-end metrics with no instrumentation.
`--trace 1` measures the same units of work twice, each for half the time:
untraced, then with the timing wrappers of `tracing.py` installed. It
reports the per-layer metrics of the traced half, the tracing overhead (the
gap between the two halves' throughput), and fails the run unless both halves
produced identical output digests and every wrapped attribute was restored.

Every metric is printed by name with its unit, followed by a `REPORT` line
(a JSON object with the run metadata and the sample count behind each
figure) and, as the last line, the result object
`{"correct", "attempted", "failed", "metrics"}` whose metrics are those
declared in `BENCHMARK.json`. Exit code 0 after a completed run; 2 when the
checkout has no `src/emai` to benchmark.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import benchenv

SETUP_REPEATS = 7


@dataclass
class Unit:
    seconds: float   # wall time of the unit, probe time excluded
    ops: list

    def normalized_seconds(self) -> float:
        """Each op's time over its own slowdown; time outside the ops (e.g.
        the oracle's target episode) over their mean slowdown."""
        inside = sum(op.seconds for op in self.ops)
        mean = statistics.fmean(op.slowdown for op in self.ops)
        return sum(op.seconds / op.slowdown for op in self.ops) + (self.seconds - inside) / mean


def measure(workload, plan: list, seconds: float, span=None) -> list[Unit]:
    """Closed loop: run units back to back until `seconds` have passed."""
    from workloads import Op, Timer
    timer = Timer(span)
    units: list[Unit] = []
    deadline = time.perf_counter() + seconds
    k = 0
    while not units or time.perf_counter() < deadline:
        item = plan[k % len(plan)]
        start, probed = time.perf_counter(), timer.probe_total
        try:
            ops = workload.unit(k, item, timer)
        except Exception as exc:  # noqa: BLE001 - a failed unit is a result
            ops = [Op(k, "unit", str(item), error=f"{type(exc).__name__}: {exc}")]
        elapsed = time.perf_counter() - start - (timer.probe_total - probed)
        units.append(Unit(elapsed, ops))
        k += 1
    return units


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples beyond it."""
    if n < 11:
        return None
    return int(math.floor(100.0 * (n - 10) / n))


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def workload_metrics(name: str, units: list[Unit], normalized: bool = False
                     ) -> tuple[dict, float]:
    """Named end-to-end figures {name: (value, unit, samples)} and the
    workload's primary throughput. With `normalized`, every duration is
    divided by the probe slowdown measured around it (see probe.py)."""
    def op_s(op) -> float:
        return op.seconds / op.slowdown if normalized else op.seconds

    def unit_s(u: Unit) -> float:
        return u.normalized_seconds() if normalized else u.seconds

    def rate(arm: str) -> tuple[float, int]:
        picked = [op for u in units for op in u.ops if op.arm == arm]
        seconds = sum(op_s(op) for op in picked)
        return (sum(op.work for op in picked) / seconds if seconds > 0 else 0.0), len(picked)

    out: dict = {}
    if name == "train":
        primary, n = rate("train")
        out["train_env_steps_per_s"] = (primary, "env-steps/s", f"{n} train_emai calls")
    elif name == "evaluate":
        for arm, metric, unit in (("fidelity", "fidelity_episodes_per_s", "episodes/s"),
                                  ("attack", "attack_episodes_per_s", "episodes/s"),
                                  ("patch", "patch_episodes_per_s", "episodes/s"),
                                  ("explain", "explain_steps_per_s", "steps/s")):
            value, n = rate(arm)
            out[metric] = (value, unit, f"{n} calls")
        episodes = sum(op.extra.get("episodes", 0) if op.arm == "explain" else op.work
                       for u in units for op in u.ops)
        seconds = sum(op_s(op) for u in units for op in u.ops)
        primary = episodes / seconds if seconds > 0 else 0.0
        out["evaluate_episodes_per_s"] = (primary, "episodes/s",
                                          f"{len(units)} rounds, {episodes} episodes")
    else:
        latencies = [op_s(op) * 1000.0 for u in units for op in u.ops if op.arm == "query"]
        seconds = sum(unit_s(u) for u in units)
        primary = len(latencies) / seconds if seconds > 0 else 0.0
        out["oracle_queries_per_s"] = (primary, "queries/s", f"{len(latencies)} queries")
        if latencies:
            out["oracle_query_ms_p50"] = (statistics.median(latencies), "ms",
                                          f"p50 of {len(latencies)} queries")
        pct = tail_percentile(len(latencies))
        if pct is not None:
            out["oracle_query_ms_tail"] = (nearest_rank(latencies, pct), "ms",
                                           f"p{pct} of {len(latencies)} queries")
    walls = [unit_s(u) for u in units]
    out["wall_s"] = (statistics.median(walls), "s", f"median of {len(walls)} units")
    return out, primary


def layer_metrics(tracer, traced: list[Unit]) -> dict:
    """Per-layer figures of the traced half, {name: (value, unit)}."""
    from tracing import LAYER_FUNCTIONS
    window = sum(u.seconds for u in traced)
    out: dict = {}
    for name in LAYER_FUNCTIONS:
        calls, total, self_s = tracer.stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_pct"] = (100.0 * self_s / window if window > 0 else 0.0, "%")
        out[f"{name}.self_s"] = (self_s, "s")
        out[f"{name}.total_s"] = (total, "s")
    patch_ops = [op for u in traced for op in u.ops if op.arm == "patch"]
    steps = sum(op.extra.get("patched_steps", 0) for op in patch_ops)
    overrides = sum(op.extra.get("overrides", 0) for op in patch_ops)
    out["evaluation.patch.override_share"] = (overrides / steps if steps else 0.0, "ratio")
    out["replay.bytes"] = (sum(op.extra.get("replay_bytes", 0)
                               for u in traced for op in u.ops), "count")
    return out


def _git_sha() -> str | None:
    git = benchenv.ROOT / ".git"
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


def _src_sha() -> str:
    h = hashlib.sha256()
    for path in sorted((benchenv.SRC / "emai").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(benchenv.SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, import_s: float) -> dict:
    import numpy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": _git_sha(), "src_sha256": _src_sha(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "import_s": import_s,
            "blas_threads": {v: os.environ.get(v) for v in benchenv.BLAS_THREAD_VARS}}


def write_spans(tracer, args) -> Path:
    """Write the traced half's spans and hot-call aggregates as JSON lines."""
    path = benchenv.BENCH_DIR / "traces" / f"{args.workload}-seed{args.seed}.ndjson"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                 "parent": parent}) + "\n")
        for (parent, name), (count, total) in tracer.agg.items():
            fh.write(json.dumps({"parent": parent, "name": name, "count": count,
                                 "total_s": total}) + "\n")
    return path


def declared(kind: str) -> list[str]:
    """Metric names of one kind ("end_to_end" or "per_layer") in BENCHMARK.json."""
    doc = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in doc[kind]]


def set_up(workload) -> tuple:
    workload.setup()
    return 0, "", {}, None


def run(args) -> tuple[dict, dict]:
    """Returns (report, result) for one run."""
    start = time.perf_counter()
    emai = benchenv.import_emai()
    import_s = time.perf_counter() - start
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload](emai)
    timer = workloads.Timer()
    setups = [timer.run(workloads.Op(-1, "setup", str(i)), lambda: set_up(wl))
              for i in range(SETUP_REPEATS)]
    for op in setups:
        if op.error:
            raise RuntimeError(f"set-up failed: {op.error}")
    plan = wl.plan(args.seed)

    problems: list[str] = []
    tracer = None
    if args.trace:
        untraced = measure(wl, plan, args.seconds / 2.0)
        tracer = Tracer()
        with tracer.installed():
            patched = tracer.patched_attributes()
            traced = measure(wl, plan, args.seconds / 2.0, tracer.span)
        for owner, attribute, original in patched:
            if owner.__dict__[attribute] is not original:
                problems.append(f"{owner.__name__}.{attribute} not restored")
        units = untraced + traced
        first = {(op.unit, op.key): op.digest for u in untraced for op in u.ops}
        for op in (op for u in traced for op in u.ops):
            if (op.unit, op.key) in first and first[(op.unit, op.key)] != op.digest:
                problems.append(f"traced digest differs for unit {op.unit} {op.key}")
    else:
        units = measure(wl, plan, args.seconds)
    ops = [op for u in units for op in u.ops]
    wl.check(ops)
    failures = [f"unit {op.unit} {op.arm} {op.key}: {op.error}" for op in ops if op.error]
    attempted, failed = len(ops), len(failures)

    named, primary = workload_metrics(args.workload, untraced if args.trace else units)
    named["setup_s"] = (statistics.median(op.seconds for op in setups), "s",
                        f"median of {SETUP_REPEATS} set-ups")
    named["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", "whole process")
    named["failed_share"] = (failed / attempted, "ratio", f"{failed} of {attempted} ops")
    norm, norm_primary = workload_metrics(args.workload, untraced if args.trace else units,
                                          normalized=True)
    norm["setup_s"] = (statistics.median(op.seconds / op.slowdown for op in setups), "s",
                       f"median of {SETUP_REPEATS} set-ups")
    for key, (value, unit, samples) in norm.items():
        named[f"{key}@probe"] = (value, unit, samples + ", probe-normalized")
    gated = {"throughput_per_s": (norm_primary, "1/s"), "wall_s": norm["wall_s"][:2],
             "setup_s": norm["setup_s"][:2], "peak_rss_mb": named["peak_rss_mb"][:2]}
    report = {"metadata": metadata(args, import_s), "sizes": wl.sizes,
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in named.items()},
              "unit_seconds": [u.seconds for u in units],
              "digests": [[op.unit, op.arm, op.key, op.digest] for op in ops],
              "failures": failures + problems}
    if tracer is not None:
        traced_named, traced_primary = workload_metrics(args.workload, traced,
                                                        normalized=True)
        layers = layer_metrics(tracer, traced)
        overhead = (100.0 * (norm_primary / traced_primary - 1.0)
                    if traced_primary > 0 else 0.0)
        layers["trace.overhead_pct"] = (overhead, "%")
        spans_path = write_spans(tracer, args)
        report["trace"] = {"spans": len(tracer.spans), "aggregates": len(tracer.agg),
                           "spans_file": str(spans_path.relative_to(benchenv.ROOT)),
                           "traced_metrics": {k: v[0] for k, v in traced_named.items()},
                           "layers": {k: {"value": v, "unit": u}
                                      for k, (v, u) in layers.items()}}
        metrics = {k: {"value": layers[k][0], "unit": layers[k][1]}
                   for k in declared("per_layer")}
    else:
        metrics = {k: {"value": gated[k][0], "unit": gated[k][1]}
                   for k in declared("end_to_end")}
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["train", "evaluate", "oracle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        report, result = run(args)
    except benchenv.MissingSourceError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    for name, row in report["metrics"].items():
        print(f"  {name:<26} {row['value']:>14.6g} {row['unit']:<12} ({row['samples']})")
    if "trace" in report:
        for name, row in report["trace"]["layers"].items():
            if not name.endswith(".self_s") and not name.endswith(".total_s"):
                print(f"  {name:<40} {row['value']:>14.6g} {row['unit']}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print("REPORT " + json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
