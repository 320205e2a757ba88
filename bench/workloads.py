"""The benchmark's three workloads, all on `keycorridor` (3 agents, horizon 30).

Each workload is closed-loop and single-process: one caller, `workers=1`,
and each operation starts when the previous one returns. A run repeats
*units* of work until its measuring time is spent; a unit is one or more
timed operations:

- `train`: one unit is one `masking.train_emai` call (monotonic mixer,
  lambda 0, 500 baseline episodes, the settings of
  `configs/keycorridor_emai.json`) on a seed drawn from the run seed.
- `evaluate`: one unit is a round of four operations on two committed masking
  checkpoints: RRD fidelity and the observation attack (default target),
  patch harvest + apply (weakened target), and the CLI's explain path
  (annotate episodes, then `replay.record` -> `serialize` -> `parse`).
- `oracle`: one unit is one seeded target episode and a
  `McOracleExplainer(rollouts=64)` query at every 6th step (the sampling of
  the oracle-agreement criterion).

Outputs are checked after the timed loop. `evaluate` and `oracle` outputs
must equal the digests in `reference.json`, recorded from the seed commit by
`make_reference.py`; to make that possible the run seed picks which entries
of a fixed input pool a run uses, and in what order. `train` is checked by
invariants and its digest is reported, not gated.
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from benchenv import BENCH_DIR
from probe import PROBE_REFERENCE_S, probe_seconds

ENV_NAME = "keycorridor"
REFERENCE_PATH = BENCH_DIR / "reference.json"
CHECKPOINT_DIR = BENCH_DIR / "checkpoints"
POOL_SIZE = 64

TRAIN_SIZES = {"steps": 4000, "baseline_episodes": 500}
EVALUATE_SIZES = {"fidelity_episodes": 40, "attack_episodes": 40, "noise_eps": 0.5,
                  "harvest_episodes": 100, "quantile": 0.3, "d_th": 1.6,
                  "patch_episodes": 40, "explain_episodes": 4}
ORACLE_SIZES = {"rollouts": 64, "oracle_seed": 9, "query_every": 6,
                "episode_root_seed": 7}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode("utf-8"))
    return h.hexdigest()[:32]


def file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:32]


@dataclass
class Op:
    """One timed operation: what it did, how long it took, what it produced."""

    unit: int
    arm: str
    key: str            # names the input, e.g. the pool entry and query step
    seconds: float = 0.0
    work: int = 0       # env steps, episodes or queries, per the workload
    digest: str = ""
    extra: dict = field(default_factory=dict)
    output: object = None
    error: str = ""
    slowdown: float = 1.0   # machine speed around the op, see Timer


class Timer:
    """Times operations and runs the speed probe (probe.py) around each one.

    Probes inside an operation (`probe_inside`, e.g. from a training progress
    hook) split it into segments; probe time is never counted. Each segment
    is normalized by the mean of the probe times at its two ends over the
    reference probe time, and an operation's slowdown is its measured time
    over the sum of its normalized segments. Exceptions are recorded on the
    op, not raised: they count as a failed operation.
    """

    def __init__(self, span=None):
        self.span = span
        self.probe_total = 0.0
        self._inside: list[tuple[float, float]] = []   # (probe start, probe time)
        self._last_probe = self._probe()

    def _probe(self) -> float:
        seconds = probe_seconds()
        self.probe_total += seconds
        return seconds

    def probe_inside(self, *_ignored) -> None:
        """Probe from inside a long operation."""
        mark = time.perf_counter()
        self._inside.append((mark, self._probe()))

    def run(self, op: Op, fn) -> Op:
        """Time fn(), which returns (work, digest, extra, output)."""
        self._inside = []
        start = time.perf_counter()
        try:
            if self.span is None:
                op.work, op.digest, op.extra, op.output = fn()
            else:
                with self.span(f"op.{op.arm}"):
                    op.work, op.digest, op.extra, op.output = fn()
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            op.error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        after = self._probe()
        probes = [self._last_probe, *(p for _, p in self._inside), after]
        starts = [start, *(mark + p for mark, p in self._inside)]
        ends = [*(mark for mark, _ in self._inside), end]
        seconds = normalized = 0.0
        for i, (a, b) in enumerate(zip(starts, ends)):
            seconds += b - a
            normalized += (b - a) * 2.0 * PROBE_REFERENCE_S / (probes[i] + probes[i + 1])
        op.seconds = seconds
        op.slowdown = seconds / normalized if normalized > 0 else 1.0
        self._last_probe = after
        return op


class Workload:
    """Base: subclasses define setup(), unit() and check()."""

    name = ""
    sizes: dict = {}

    def __init__(self, emai):
        self.emai = emai
        self.sizes = dict(self.sizes)

    def setup(self) -> None:
        raise NotImplementedError

    def plan(self, seed: int) -> list:
        """Per-unit inputs for a run; unit k uses plan[k % len(plan)]."""
        return list(np.random.default_rng(seed).permutation(POOL_SIZE))

    def unit(self, k: int, item, timer: Timer) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> None:
        """Set op.error on every operation whose output is wrong."""
        raise NotImplementedError


def _reference(section: str, sizes: dict, checkpoints: dict) -> dict:
    doc = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    ref = doc[section]
    if ref["sizes"] != sizes or ref.get("checkpoints", {}) != checkpoints:
        raise ValueError(f"reference.json {section} was recorded for other sizes or "
                         "checkpoints; regenerate it with make_reference.py")
    return ref["digests"]


def _check_digests(ops: list[Op], reference: dict | None) -> None:
    for op in ops:
        if op.error:
            continue
        if reference is None:
            op.error = "no reference digests for these sizes"
        elif reference.get(op.key) != op.digest:
            op.error = f"digest {op.digest} != reference {reference.get(op.key)}"


class Train(Workload):
    name = "train"
    sizes = TRAIN_SIZES

    def setup(self) -> None:
        envs, target = self.emai.envs, self.emai.target
        self.env = envs.make_env(ENV_NAME)
        self.target = target.scripted_by_name(self.env, "default")

    def config(self) -> dict:
        return {"steps": self.sizes["steps"], "lambda": 0.0,
                "baseline_episodes": self.sizes["baseline_episodes"],
                "epsilon_anneal_steps": 30_000}

    def plan(self, seed: int) -> list:
        return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, 256)]

    def unit(self, k: int, item, timer: Timer) -> list[Op]:
        masking = self.emai.masking
        env_steps = (self.sizes["baseline_episodes"] * self.env.spec.horizon
                     + self.sizes["steps"])

        def train():
            policy, curves = masking.train_emai(self.target, self.env, self.config(),
                                                seed=item, progress=timer.probe_inside)
            doc = policy.to_doc(self.env, self.sizes["steps"])
            return env_steps, digest(doc, curves), {}, (policy, curves)

        return [timer.run(Op(k, "train", str(item)), train)]

    def check(self, ops: list[Op]) -> None:
        masking = self.emai.masking
        for op in ops:
            if op.error:
                continue
            policy, curves = op.output
            params = policy.qnet.params() + policy.mixer.params()
            baseline = masking.estimate_baseline_return(
                self.target, self.env, self.sizes["baseline_episodes"], policy.gamma,
                seed=int(op.key))
            if not all(np.all(np.isfinite(p.data)) for p in params):
                op.error = "non-finite parameter after training"
            elif not curves or any(row["env_steps"] <= 0 for row in curves):
                op.error = "no curve rows"
            elif policy.j_pi != baseline.j_pi:
                op.error = f"j_pi {policy.j_pi!r} != separate estimate {baseline.j_pi!r}"


class Evaluate(Workload):
    name = "evaluate"
    sizes = EVALUATE_SIZES
    CHECKPOINTS = {"default": "keycorridor_default.json",
                   "weakened": "keycorridor_weakened.json"}

    def checkpoint_digests(self) -> dict:
        return {v: file_digest(CHECKPOINT_DIR / n) for v, n in self.CHECKPOINTS.items()}

    def setup(self) -> None:
        envs, target, masking, explain = (self.emai.envs, self.emai.target,
                                          self.emai.masking, self.emai.explain)
        self.env = envs.make_env(ENV_NAME)
        self.targets, self.explainers = {}, {}
        for variant, name in self.CHECKPOINTS.items():
            self.targets[variant] = target.scripted_by_name(self.env, variant)
            policy = masking.MaskingPolicy.load(CHECKPOINT_DIR / name)
            self.explainers[variant] = explain.EmaiExplainer(policy)

    def unit(self, k: int, item, timer: Timer) -> list[Op]:
        evaluation = self.emai.evaluation
        s = self.sizes
        seed = 100 + int(item)  # pool entry -> the round's root seed
        env, ex_d, ex_w = self.env, self.explainers["default"], self.explainers["weakened"]
        t_d, t_w = self.targets["default"], self.targets["weakened"]

        def fidelity():
            rep = evaluation.eval_fidelity(ex_d, t_d, env, episodes=s["fidelity_episodes"],
                                           seed=seed)
            return 3 * s["fidelity_episodes"], digest(rep.to_dict()), {}, None

        def attack():
            rep = evaluation.launch_attack(ex_d, t_d, env, noise_eps=s["noise_eps"],
                                           episodes=s["attack_episodes"], seed=seed)
            return 2 * s["attack_episodes"], digest(rep.to_dict()), {}, None

        def patch():
            pkg = evaluation.build_patch_package(ex_w, t_w, env,
                                                 harvest_episodes=s["harvest_episodes"],
                                                 quantile=s["quantile"], seed=seed)
            rep = evaluation.apply_patch(pkg, ex_w, t_w, env, d_th=s["d_th"],
                                         episodes=s["patch_episodes"], seed=seed)
            patched_steps = rep.episodes * env.spec.horizon
            extra = {"overrides": rep.mean_overrides * rep.episodes,
                     "patched_steps": patched_steps}
            return (s["harvest_episodes"] + 2 * s["patch_episodes"],
                    digest(pkg.to_doc(), rep.to_dict()), extra, None)

        return [timer.run(Op(k, "fidelity", f"{item}/fidelity"), fidelity),
                timer.run(Op(k, "attack", f"{item}/attack"), attack),
                timer.run(Op(k, "patch", f"{item}/patch"), patch),
                timer.run(Op(k, "explain", f"{item}/explain"), lambda: self.explain_arm(seed))]

    def explain_arm(self, seed: int):
        """The CLI `explain` command's path, with a parse of each replay."""
        explain, replay, rollout = self.emai.explain, self.emai.replay, self.emai.rollout
        rng = self.emai.rng
        env, target, explainer = self.env, self.targets["default"], self.explainers["default"]
        texts, steps = [], 0
        for i in range(self.sizes["explain_episodes"]):
            ep_seed = rng.episode_seed(seed, "explain", i)
            trace = rollout.run_target_episode(env, ep_seed, target)
            prefix: list[list[int]] = []
            for step in trace.steps:
                ctx = explain.ExplainContext(step.observations, step.state, step.t,
                                             env.name, env.params, ep_seed, list(prefix))
                step.importance = explainer.scores(ctx)
                prefix.append(list(step.final_actions))
            rec = replay.record(trace.steps, env.name, env.params, ep_seed,
                                target_id=target.descriptor(), explainer_id=explainer.kind)
            text = replay.serialize(rec)
            if replay.parse(text) != rec:
                raise ValueError(f"replay of episode {i} does not round-trip")
            texts.append(text)
            steps += len(trace.steps)
        n_bytes = sum(len(t.encode("utf-8")) for t in texts)
        extra = {"replay_bytes": n_bytes, "episodes": self.sizes["explain_episodes"]}
        return steps, digest(texts), extra, None

    def check(self, ops: list[Op]) -> None:
        try:
            reference = _reference(self.name, self.sizes, self.checkpoint_digests())
        except (OSError, KeyError, ValueError):
            reference = None
        _check_digests(ops, reference)


class Oracle(Workload):
    name = "oracle"
    sizes = ORACLE_SIZES

    def setup(self) -> None:
        envs, target, explain = self.emai.envs, self.emai.target, self.emai.explain
        self.env = envs.make_env(ENV_NAME)
        self.target = target.scripted_by_name(self.env, "default")
        self.oracle = explain.McOracleExplainer(self.target, rollouts=self.sizes["rollouts"],
                                                seed=self.sizes["oracle_seed"])

    def unit(self, k: int, item, timer: Timer) -> list[Op]:
        explain, rollout, rng = self.emai.explain, self.emai.rollout, self.emai.rng
        env = self.env
        ep_seed = rng.episode_seed(self.sizes["episode_root_seed"], "crit8", int(item))
        trace = rollout.run_target_episode(env, ep_seed, self.target)
        ops = []
        for t in range(0, len(trace.steps), self.sizes["query_every"]):
            prefix = [s.final_actions for s in trace.steps[:t]]
            ctx = explain.ExplainContext(trace.steps[t].observations, trace.steps[t].state,
                                         t, env.name, env.params, ep_seed, prefix)

            def query(ctx=ctx):
                scores, stderr = self.oracle.scores_with_stderr(ctx)
                return 1, digest(scores, stderr), {}, None

            ops.append(timer.run(Op(k, "query", f"{item}/{t}"), query))
        return ops

    def check(self, ops: list[Op]) -> None:
        try:
            reference = _reference(self.name, self.sizes, {})
        except (OSError, KeyError, ValueError):
            reference = None
        _check_digests(ops, reference)


WORKLOADS = {w.name: w for w in (Train, Evaluate, Oracle)}
