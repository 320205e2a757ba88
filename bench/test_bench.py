"""Tests of the benchmark itself (not of emai):

    python3 -m pytest -q bench

`train` runs at a reduced size, since only invariants gate it; `evaluate` and
`oracle` keep their reference sizes so their digests are still checked, and
run a single unit.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import benchenv

EMAI = benchenv.import_emai()

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
TINY = {"train": {"steps": 1600, "baseline_episodes": 20}}


def make(name: str):
    wl = workloads.WORKLOADS[name](EMAI)
    wl.sizes.update(TINY.get(name, {}))
    wl.setup()
    return wl


def ops_of(units):
    return [op for u in units for op in u.ops]


def emai_namespaces():
    """Every emai module and every class defined in one."""
    out = []
    for module_name in benchenv.MODULES:
        module = sys.modules[f"emai.{module_name}"]
        out.append(module)
        out.extend(v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == module.__name__)
    return out


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_has_no_failed_operations(name):
    wl = make(name)
    ops = ops_of(run.measure(wl, wl.plan(0), 0.0))
    wl.check(ops)
    assert ops
    assert [op.error for op in ops if op.error] == []


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_digests_match(name):
    wl = make(name)
    plan = wl.plan(1)
    plain = ops_of(run.measure(wl, plan, 0.0))
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = ops_of(run.measure(wl, plan, 0.0, tracer.span))
    assert [op.digest for op in plain] == [op.digest for op in traced]
    assert all(op.digest and not op.error for op in traced)
    for layer in ("envs.step", "target.act", "rng.stream", "rollout.greedy_actions"):
        assert tracer.stats[layer][0] > 0, layer
    if name == "oracle":
        assert tracer.stats["envs.clone"][0] > 0
        assert tracer.stats["explain.suffix_rollout"][0] > 0
    if name == "train":
        assert tracer.stats["ctde.td_train_step"][0] > 0
        assert tracer.stats["masking.baseline"][0] == 1


def test_uninstall_restores_every_wrapped_attribute():
    before = [(ns, dict(vars(ns))) for ns in emai_namespaces()]
    tracer = tracing.Tracer()
    with tracer.installed():
        patched = tracer.patched_attributes()
        for owner, attribute, original in patched:
            assert vars(owner)[attribute] is not original
        names = {getattr(vars(owner)[attribute], "__name__", "") for owner, attribute, _ in patched}
    assert {t[2] for t in tracing.TARGETS} <= names
    assert tracer.patched_attributes() == []
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is original
    for ns, snapshot in before:
        now = vars(ns)
        assert all(now.get(k) is v for k, v in snapshot.items()), ns


def test_self_time_excludes_wrapped_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10_000))
    calls, total, self_s = tracer.stats["outer"]
    inner_total = tracer.stats["inner"][1]
    assert calls == 1
    assert self_s == pytest.approx(total - inner_total)
    assert [s[1] for s in tracer.spans] == ["inner", "outer"]
    assert tracer.spans[0][4] == tracer.spans[1][0]  # inner's parent is outer


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(110) == 90
    values = list(range(1, 111))
    pct = run.tail_percentile(len(values))
    assert sum(v > run.nearest_rank(values, pct) for v in values) >= 10


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_declares_exactly_the_benchmark_metrics(trace, capsys):
    code = run.main(["--workload", "oracle", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    assert sorted(result["metrics"]) == sorted(run.declared(kind))
    report = json.loads(lines[-2].removeprefix("REPORT "))
    for key in ("git_sha", "python", "numpy", "nproc", "cpu_model", "seed"):
        assert key in report["metadata"]
    assert all("samples" in row for row in report["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(benchenv.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
