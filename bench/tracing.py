"""Outside-in tracing of the emai layers for the benchmark's traced mode.

`Tracer.install()` swaps timing wrappers in for the public functions of each
emai module, and `uninstall()` puts every original back. A name is patched
where its caller looks it up: a module-level function is replaced in every
loaded `emai.*` module that holds it (so `greedy_actions`, imported by name
into `masking`, `evaluation` and `explain`, is caught there), a method is
replaced on its class, and the oracle's environment copies are caught through
the `copy` reference that `emai.explain` uses. No file under `src/` changes.

Each wrapped call is a span (name, start, end, parent). Calls of the hot
functions, made thousands of times per second, are not kept one by one but
aggregated as (count, total time) per parent span. Self time is a call's
duration minus the time of the wrapped calls made inside it; both are summed
per name into `stats`.
"""
from __future__ import annotations

import contextlib
import copy
import functools
import sys
import time

# (metric name, dotted owner inside the emai package, attribute, hot)
TARGETS = (
    ("envs.reset", "envs.KeyCorridor", "reset", True),
    ("envs.step", "envs.KeyCorridor", "step", True),
    ("target.act", "target.ScriptedKeyCorridor", "act", True),
    ("rng.stream", "rng", "stream", True),
    ("rollout.greedy_actions", "rollout", "greedy_actions", True),
    ("rollout.run_target_episode", "rollout", "run_target_episode", True),
    ("nn.mlp_forward", "nn.Mlp", "forward", True),
    ("nn.backward", "nn.Tensor", "backward", False),
    ("nn.adam_step", "nn.Adam", "step", False),
    ("nn.check_finite", "nn", "_check_finite", True),
    ("ctde.td_train_step", "ctde.QLearner", "td_train_step", False),
    ("ctde.flatten_batch", "ctde", "_flatten_batch", False),
    ("ctde.td_loss", "ctde", "build_td_loss", False),
    ("ctde.stale_max_qtot", "ctde", "stale_max_qtot", False),
    ("ctde.mixer_mix", "ctde.MonotonicMixer", "mix", False),
    ("ctde.buffer_sample", "ctde.EpisodeBuffer", "sample", False),
    ("ctde.stale_refresh", "ctde.StaleCopy", "refresh", False),
    ("ctde.q_all_agents", "ctde.AgentQNet", "q_all_agents", True),
    ("masking.baseline", "masking", "estimate_baseline_return", False),
    ("masking.train_emai", "masking", "train_emai", False),
    ("masking.importance_vector", "masking.MaskingPolicy", "importance_vector", True),
    ("explain.most_critical", "explain.Explainer", "most_critical", True),
    ("explain.oracle", "explain", "mc_counterfactual_oracle", False),
    ("explain.suffix_rollout", "explain", "_suffix_return", True),
    ("explain.suffix_rollout", "explain", "_randomized_suffix_return", True),
    ("evaluation.fidelity", "evaluation", "eval_fidelity", False),
    ("evaluation.attack", "evaluation", "launch_attack", False),
    ("evaluation.patch_build", "evaluation", "build_patch_package", False),
    ("evaluation.patch_apply", "evaluation", "apply_patch", False),
    ("replay.record", "replay", "record", False),
    ("replay.serialize", "replay", "serialize", False),
    ("replay.parse", "replay", "parse", False),
)
CLONE = ("envs.clone", "explain", "copy")  # the oracle's copy.deepcopy per rollout

LAYER_FUNCTIONS = tuple(dict.fromkeys([t[0] for t in TARGETS] + [CLONE[0]]))


def _resolve(dotted: str):
    module, _, cls = dotted.partition(".")
    owner = sys.modules[f"emai.{module}"]
    return getattr(owner, cls) if cls else owner


class _CopyModule:
    """Stands in for the `copy` module inside emai.explain; only deepcopy is timed."""

    def __init__(self, deepcopy):
        self.deepcopy = deepcopy

    def __getattr__(self, name):
        return getattr(copy, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (span id, name, start, end, parent span id)
        self.agg: dict[tuple, list] = {}   # (parent span id, name) -> [count, total]
        self.stats: dict[str, list] = {}   # name -> [calls, total, self]
        self._stack: list[list] = []   # frames: [name, hot, start, child time, span id]
        self._next_id = 0
        self._patches: list[tuple] = []   # (owner, attribute, original)

    # ---- recording ----

    def _enter(self, name: str, hot: bool) -> list:
        if hot:
            span_id = self._stack[-1][4] if self._stack else None
        else:
            self._next_id += 1
            span_id = self._next_id
        frame = [name, hot, 0.0, 0.0, span_id]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        name, hot, start, child, span_id = frame
        if self._stack.pop() is not frame:
            raise RuntimeError(f"unbalanced trace stack at {name}")
        duration = end - start
        row = self.stats.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if hot:
            cell = self.agg.setdefault((span_id, name), [0, 0.0])
            cell[0] += 1
            cell[1] += duration
        else:
            self.spans.append((span_id, name, start, end, parent[4] if parent else None))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one operation."""
        frame = self._enter(name, False)
        try:
            yield
        finally:
            self._exit(frame)

    def _wrap(self, name: str, fn, hot: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name, hot)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)
        return traced

    # ---- patching ----

    def _patch(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "emai" or n.startswith("emai."))]
        for name, dotted, attribute, hot in TARGETS:
            owner = _resolve(dotted)
            original = owner.__dict__[attribute]
            wrapped = self._wrap(name, original, hot)
            for holder in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapped)
        name, module, attribute = CLONE
        explain = _resolve(module)
        self._patch(explain, attribute, _CopyModule(self._wrap(name, copy.deepcopy, True)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def patched_attributes(self) -> list[tuple]:
        return list(self._patches)
