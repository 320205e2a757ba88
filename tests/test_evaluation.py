"""Evaluation harness: RRD accounting, attacks, patch packages."""
from __future__ import annotations

import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emai import evaluation, rng
from emai.ctde import AgentQNet, MonotonicMixer
from emai.envs import GridBatch, KeyCorridor, make_env
from emai.evaluation import (AttackReport, PatchPackage, PatchReport, RRD_DENOMINATOR_GUARD,
                             RrdReport, apply_patch, build_patch_package, eval_fidelity,
                             launch_attack)
from emai.explain import (EmaiExplainer, ExplainContext, Explainer, GradientBasedExplainer,
                          McOracleExplainer, RandomExplainer, ValueBasedExplainer)
from emai.masking import MaskingPolicy
from emai.rng import episode_seed, stream
from emai.rollout import greedy_actions, run_episode, run_target_episode
from emai.target import LearnedPolicy, scripted_policy


class _FixedAgentExplainer(Explainer):
    """Always names the same agent; handy deterministic probe."""

    kind = "fixed"

    def __init__(self, agent: int, n: int):
        self.agent, self.n = agent, n

    def scores_batch(self, observations, t, episode_seeds, batch):
        out = np.zeros((len(observations), self.n))
        out[:, self.agent] = 1.0
        return out


def test_rrd_direct_formula():
    # R_e = 4, R_o = 10, R_r = 8  ->  |4-10| / |8-10| = 3.0
    assert abs(4.0 - 10.0) / abs(8.0 - 10.0) == pytest.approx(3.0)


def test_fidelity_matched_seeds_reproducible():
    env = make_env("diagnostic", n_agents=3, grid=5, horizon=8)
    pol = scripted_policy(env)
    ex = RandomExplainer(seed=1)
    a = eval_fidelity(RandomExplainer(seed=1), pol, env, episodes=40, seed=6)
    b = eval_fidelity(RandomExplainer(seed=1), pol, env, episodes=40, seed=6)
    assert a == b
    assert a.episodes == 40


def test_fidelity_random_explainer_normalizes_to_one():
    env = make_env("diagnostic", n_agents=3, grid=6, horizon=10)
    pol = scripted_policy(env)
    rep = eval_fidelity(RandomExplainer(seed=2), pol, env, episodes=500, seed=7)
    assert rep.rrd is not None
    assert abs(rep.rrd - 1.0) <= 2 * rep.rrd_stderr


def test_fidelity_oracle_beats_random_on_keycorridor():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    rep = eval_fidelity(McOracleExplainer(pol, rollouts=8, seed=0), pol, env,
                        episodes=30, seed=8)
    assert rep.rrd is not None and rep.rrd > 1.0


def test_fidelity_denominator_guard():
    env = make_env("diagnostic", n_agents=3, grid=5, horizon=6, zero_reward=True)
    pol = scripted_policy(env)
    rep = eval_fidelity(RandomExplainer(seed=3), pol, env, episodes=20, seed=9)
    assert rep.rrd is None and rep.rrd_stderr is None
    assert rep.delta_e == 0.0 and rep.delta_r == 0.0  # both preserved
    assert abs(rep.delta_r) < RRD_DENOMINATOR_GUARD


def test_attack_zero_noise_is_exactly_zero_delta():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    rep = launch_attack(_FixedAgentExplainer(0, 3), pol, env, noise_eps=0.0,
                        episodes=25, seed=10)
    assert rep.delta == 0.0 and rep.stderr == 0.0


def test_attack_on_pivotal_agent_hurts():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    rep = launch_attack(_FixedAgentExplainer(0, 3), pol, env, noise_eps=0.5,
                        episodes=60, seed=11)
    assert rep.delta < 0


def test_attack_all_agents_saturating_noise_nonpositive():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    rep = launch_attack(_FixedAgentExplainer(0, 3), pol, env, noise_eps=2.0,
                        episodes=60, seed=12, attack_all=True)
    assert rep.delta <= 2 * rep.stderr


def test_attack_rejects_negative_noise():
    env = make_env("keycorridor")
    with pytest.raises(ValueError):
        launch_attack(_FixedAgentExplainer(0, 3), scripted_policy(env), env,
                      noise_eps=-0.1, episodes=10)


def test_patch_package_quantile_boundaries():
    env = make_env("spread", n_agents=2, grid=6, horizon=8)
    pol = scripted_policy(env)
    ex = _FixedAgentExplainer(0, 2)
    full = build_patch_package(ex, pol, env, harvest_episodes=20, quantile=1.0, seed=13)
    top = build_patch_package(ex, pol, env, harvest_episodes=20, quantile=0.1, seed=13)
    assert len(full) >= len(top) > 0
    with pytest.raises(ValueError):
        build_patch_package(ex, pol, env, harvest_episodes=9)
    with pytest.raises(ValueError):
        build_patch_package(ex, pol, env, harvest_episodes=20, quantile=0.0)


def test_patch_package_top_decile_selection_rule():
    # selection must come from exactly the 10 best of 100 episodes
    env = make_env("spread", n_agents=2, grid=6, horizon=8)
    pol = scripted_policy(env)
    seeds = [episode_seed(14, "harvest", i) for i in range(100)]
    from emai.rollout import run_target_episode
    rewards = np.array([run_target_episode(env, s, pol).episode_reward for s in seeds])
    order = sorted(range(100), key=lambda i: (-rewards[i], i))
    best10 = set(order[:10])

    class _Spy(_FixedAgentExplainer):
        def __init__(self):
            super().__init__(0, 2)
            self.seen_seeds = set()

        def scores_batch(self, observations, t, episode_seeds, batch):
            self.seen_seeds.update(int(s) for s in episode_seeds)
            return super().scores_batch(observations, t, episode_seeds, batch)

    spy = _Spy()
    build_patch_package(spy, pol, env, harvest_episodes=100, quantile=0.1, seed=14)
    assert spy.seen_seeds == {seeds[i] for i in best10}


def test_every_arm_scores_the_live_batch_it_steps():
    env = make_env("keycorridor", horizon=6)
    pol = scripted_policy(env)

    class _Spy(_FixedAgentExplainer):
        def scores_batch(self, observations, t, episode_seeds, batch):
            seen.append((t, batch.t, batch.size, len(episode_seeds),
                         np.array_equal(observations, batch.observations())))
            return super().scores_batch(observations, t, episode_seeds, batch)

    seen = []
    spy = _Spy(1, 3)
    eval_fidelity(spy, pol, env, episodes=3, seed=2)
    launch_attack(spy, pol, env, 0.3, episodes=3, seed=2)
    package = build_patch_package(spy, pol, env, harvest_episodes=10, quantile=0.3, seed=2)
    apply_patch(package, spy, pol, env, 1.0, episodes=3, seed=2)
    # one query per step of each arm: guided, attacked, harvest (3 kept), patched
    assert [(t, size) for t, _, size, _, _ in seen] == [
        (t, size) for size in (3, 3, 3, 3) for t in range(6)]
    assert all(t == batch_t and size == seeds and same
               for t, batch_t, size, seeds, same in seen)


def test_patch_degenerate_rewards_warns_and_keeps_all():
    env = make_env("diagnostic", n_agents=2, grid=5, horizon=5, zero_reward=True)
    pol = scripted_policy(env)
    with pytest.warns(UserWarning):
        pkg = build_patch_package(_FixedAgentExplainer(0, 2), pol, env,
                                  harvest_episodes=12, quantile=0.1, seed=15)
    assert len(pkg) > 0


def _first_sightings_by_lexsort(entries: np.ndarray) -> np.ndarray:
    """The package's earlier dedup, the reference: a stable lexsort puts each
    run of equal rows in entry order, so a run's first index is its first
    sighting (entries hold no NaN, so != negates tuple equality)."""
    order = np.lexsort(entries.T[::-1])
    ranked = entries[order]
    starts = np.empty(len(order), dtype=bool)
    starts[:1] = True
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return np.sort(order[starts])


@st.composite
def _harvest(draw):
    """Harvest entries and actions: rows drawn from a small pool (so rows
    repeat) of values that include both signed zeros, a single row too."""
    width = draw(st.integers(1, 4))
    values = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0])
    pool = draw(st.lists(st.lists(values, min_size=width, max_size=width), min_size=1,
                         max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    actions = draw(st.lists(st.integers(0, 4), min_size=len(rows), max_size=len(rows)))
    return np.array(rows, dtype=np.float64), np.array(actions, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(_harvest())
def test_patch_dedup_equals_the_lexsort_reference(harvest):
    entries, actions = harvest
    got, want = evaluation._first_sightings(entries), _first_sightings_by_lexsort(entries)
    assert got.tolist() == want.tolist()  # the same rows, in first-seen order
    assert entries[got].tobytes() == entries[want].tobytes()  # -0.0 or 0.0 as first seen
    assert actions[got].tolist() == actions[want].tolist()


def test_patch_dedup_of_one_row_and_of_signed_zeros():
    assert evaluation._first_sightings(np.array([[0.5, -0.0]])).tolist() == [0]
    entries = np.array([[-0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [-0.0, 1.0], [1.0, -0.0]])
    assert evaluation._first_sightings(entries).tolist() == [0, 2]


def test_patch_noop_when_package_equals_policy():
    # harvesting the policy's own behavior and patching the same policy can
    # only ever propose the action already chosen -> exact zero delta
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    ex = _FixedAgentExplainer(0, 3)
    pkg = build_patch_package(ex, pol, env, harvest_episodes=15, quantile=1.0, seed=16)
    rep = apply_patch(pkg, ex, pol, env, d_th=0.01, episodes=30, seed=16)
    assert rep.delta == 0.0 and rep.mean_overrides == 0.0


def test_patch_threshold_boundary_strictly_below():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    ex = _FixedAgentExplainer(0, 3)
    pkg = build_patch_package(ex, pol, env, harvest_episodes=15, quantile=1.0, seed=17)
    rep = apply_patch(pkg, ex, pol, env, d_th=0.0, episodes=10, seed=17)
    assert rep.mean_overrides == 0.0  # distance is never < 0


def test_patch_empty_package_rejected():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    empty = PatchPackage("keycorridor", "fixed", 0.1,
                         np.zeros((0, env.spec.obs_dim)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        apply_patch(empty, _FixedAgentExplainer(0, 3), pol, env, episodes=5)


@pytest.mark.parametrize("d_th", [-0.5, float("nan")])
def test_patch_threshold_must_be_nonnegative(d_th):
    # a NaN threshold compares false with every distance and would patch nothing
    env = make_env("keycorridor")
    pkg = PatchPackage(env.name, "fixed", 0.1, np.zeros((1, env.spec.obs_dim)),
                       np.zeros(1, dtype=np.int64))
    with pytest.raises(ValueError, match="d_th must be >= 0"):
        apply_patch(pkg, _FixedAgentExplainer(0, 3), scripted_policy(env), env, d_th, 5)


def test_patch_entries_deduplicated_on_exact_observation():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    for ex in (_FixedAgentExplainer(0, 3), RandomExplainer(seed=3)):
        pkg = build_patch_package(ex, pol, env, harvest_episodes=10, quantile=1.0, seed=19)
        keys = {tuple(row) for row in pkg.obs}
        assert len(keys) == len(pkg) < 10 * env.spec.horizon  # repeats were dropped
        # the entries and actions a loop over tuple keys keeps, in first-seen order
        reference = _scalar_patch_package(ex, pol, env, 10, 1.0, 19)
        assert pkg.obs.tolist() == reference.obs.tolist()
        assert pkg.actions.tolist() == reference.actions.tolist()


def test_evaluations_require_episodes():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    ex = _FixedAgentExplainer(0, 3)
    pkg = PatchPackage(env.name, "fixed", 0.1, np.zeros((1, env.spec.obs_dim)),
                       np.zeros(1, dtype=np.int64))
    for run in (lambda: eval_fidelity(ex, pol, env, episodes=0),
                lambda: launch_attack(ex, pol, env, episodes=0),
                lambda: apply_patch(pkg, ex, pol, env, episodes=0)):
        with pytest.raises(ValueError, match="episodes"):
            run()


# ---- lockstep arms against the scalar reference, report for report ----
# The scalar episode arms below play one episode at a time through
# run_episode and ask the explainer one context at a time; the lockstep arms
# of emai.evaluation must reproduce their reports exactly.

def _ctx(env, obs, state, ep_seed, prefix) -> ExplainContext:
    return ExplainContext(obs, state, len(prefix), env.name, env.params, ep_seed, list(prefix))


def _w_guided(payload) -> float:
    env, target, explainer, ep_seed, tags = payload
    mask_rng = stream(*tags)
    n_actions = env.spec.n_actions

    def act(obs, state, prefix):
        actions = greedy_actions(target, obs)
        critical = explainer.most_critical(_ctx(env, obs, state, ep_seed, prefix))
        actions[critical] = int(mask_rng.integers(0, n_actions))
        return actions

    return run_episode(env, ep_seed, act).episode_reward


def _w_random_guided(payload) -> float:
    env, target, ep_seed, tags = payload
    rng = stream(*tags)
    n, n_actions = env.spec.n_agents, env.spec.n_actions

    def act(obs, state, prefix):
        actions = greedy_actions(target, obs)
        actions[int(rng.integers(0, n))] = int(rng.integers(0, n_actions))
        return actions

    return run_episode(env, ep_seed, act).episode_reward


def _w_attacked(payload) -> float:
    env, target, explainer, ep_seed, noise_eps, tags, attack_all = payload
    rng = stream(*tags)
    obs_dim = env.spec.obs_dim
    n = env.spec.n_agents

    def act(obs, state, prefix):
        victims = (range(n) if attack_all else
                   [explainer.most_critical(_ctx(env, obs, state, ep_seed, prefix))])
        seen = obs.copy()
        for i in victims:
            noise = rng.uniform(-noise_eps, noise_eps, obs_dim)
            seen[i] = np.clip(obs[i] + noise, -1.0, 1.0)
        return target.act(seen)

    return run_episode(env, ep_seed, act).episode_reward


def _w_patched(payload) -> tuple[float, int]:
    env, target, explainer, pkg_obs, pkg_actions, ep_seed, d_th = payload
    overrides = 0

    def act(obs, state, prefix):
        nonlocal overrides
        actions = greedy_actions(target, obs)
        critical = explainer.most_critical(_ctx(env, obs, state, ep_seed, prefix))
        dists = np.abs(pkg_obs - obs[critical]).sum(axis=1)
        best = int(np.argmin(dists))  # ties resolve to the lowest entry index
        if dists[best] < d_th and int(pkg_actions[best]) != actions[critical]:
            actions[critical] = int(pkg_actions[best])
            overrides += 1
        return actions

    reward = run_episode(env, ep_seed, act).episode_reward
    return reward, overrides


def _scalar_original(env, target, seeds) -> np.ndarray:
    return np.array([run_target_episode(env, s, target).episode_reward for s in seeds])


def _scalar_fidelity(explainer, target, env, episodes, seed) -> RrdReport:
    seeds = [episode_seed(seed, "fidelity", i) for i in range(episodes)]
    r_e = np.array([_w_guided((env, target, explainer, s, (seed, "fid-mask-e", i)))
                    for i, s in enumerate(seeds)])
    r_r = np.array([_w_random_guided((env, target, s, (seed, "fid-mask-r", i)))
                    for i, s in enumerate(seeds)])
    return RrdReport.from_rewards(explainer.kind, env.name, _scalar_original(env, target, seeds),
                                  r_e, r_r)


def _scalar_attack(explainer, target, env, noise_eps, episodes, seed, attack_all) -> AttackReport:
    seeds = [episode_seed(seed, "attack", i) for i in range(episodes)]
    r_a = np.array([_w_attacked((env, target, explainer, s, noise_eps, (seed, "attack-noise", i),
                                 attack_all)) for i, s in enumerate(seeds)])
    return AttackReport.from_rewards(explainer.kind, env.name, noise_eps,
                                     _scalar_original(env, target, seeds), r_a)


def _scalar_patch_package(explainer, target, env, harvest_episodes, quantile,
                          seed) -> PatchPackage:
    traces = [run_target_episode(env, episode_seed(seed, "harvest", i), target)
              for i in range(harvest_episodes)]
    rewards = np.array([tr.episode_reward for tr in traces])
    if np.all(rewards == rewards[0]):
        kept = list(range(harvest_episodes))
    else:
        order = sorted(range(harvest_episodes), key=lambda i: (-rewards[i], i))
        kept = order[:max(1, int(round(quantile * harvest_episodes)))]
    seen, entries_obs, entries_act = set(), [], []
    for i in kept:
        prefix = []
        for step in traces[i].steps:
            critical = explainer.most_critical(_ctx(env, step.observations, step.state,
                                                    traces[i].seed, prefix))
            prefix.append(step.final_actions)
            key = tuple(step.observations[critical])
            if key not in seen:
                seen.add(key)
                entries_obs.append(np.asarray(step.observations[critical]))
                entries_act.append(int(step.final_actions[critical]))
    return PatchPackage(env.name, explainer.kind, float(quantile), np.stack(entries_obs),
                        np.array(entries_act, dtype=np.int64))


def _scalar_patch(package, explainer, target, env, d_th, episodes, seed) -> PatchReport:
    seeds = [episode_seed(seed, "patch", i) for i in range(episodes)]
    rows = [_w_patched((env, target, explainer, package.obs, package.actions, s, d_th))
            for s in seeds]
    return PatchReport.from_rewards(explainer.kind, env.name, d_th, len(package),
                                    _scalar_original(env, target, seeds),
                                    np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))


class _ScoresOnly(Explainer):
    """A user explainer with a per-row loop: each row's scores hash that
    row's episode seed, t and observations, all that scores() passes on."""

    kind = "scores-only"

    def scores_batch(self, observations, t, episode_seeds, batch):
        rows = []
        for obs, seed in zip(observations, episode_seeds):
            key = repr((int(seed), t, obs.tobytes()))
            rows.append(stream(zlib.crc32(key.encode()), "scores-only").random(len(obs)))
        return np.stack(rows)


PARITY_ENVS = [
    ("keycorridor", {"horizon": 10}),
    ("spread", {"n_agents": 3, "grid": 5, "horizon": 8}),
    ("diagnostic", {"n_agents": 3, "grid": 5, "horizon": 7, "inert": (2,)}),
]
PARITY_KINDS = ["emai", "random", "value", "gradient", "mc_oracle", "scores-only"]


def _parity_setup(kind, env):
    spec = env.spec
    learned = LearnedPolicy(AgentQNet(spec.obs_dim, spec.n_agents, spec.n_actions, (16, 16),
                                      rng=stream(2, "parity-target", env.name)))
    target, other = ((learned, scripted_policy(env)) if kind in ("value", "gradient") else
                     (scripted_policy(env), learned))
    if kind == "emai":
        net = AgentQNet(spec.obs_dim, spec.n_agents, 2, (16, 16), rng=stream(3, "parity-mask"))
        mixer = MonotonicMixer(spec.n_agents, spec.state_dim, 4)
        explainer = EmaiExplainer(MaskingPolicy(net, mixer, 0.1, 0.0, 0.99, 0.0, 0.0))
    else:
        explainer = {"random": lambda: RandomExplainer(seed=4),
                     "value": lambda: ValueBasedExplainer(learned),
                     "gradient": lambda: GradientBasedExplainer(learned),
                     "mc_oracle": lambda: McOracleExplainer(target, rollouts=2, seed=5),
                     "scores-only": _ScoresOnly}[kind]()
    return target, other, explainer


@pytest.mark.parametrize("kind", PARITY_KINDS)
@pytest.mark.parametrize("name,params", PARITY_ENVS, ids=[e[0] for e in PARITY_ENVS])
def test_lockstep_arms_equal_scalar_arms(name, params, kind):
    env = make_env(name, **params)
    target, other, explainer = _parity_setup(kind, env)
    episodes, seed = 5, 21
    fidelity = _scalar_fidelity(explainer, target, env, episodes, seed)
    attacks = {flag: _scalar_attack(explainer, target, env, 0.4, episodes, seed, flag)
               for flag in (False, True)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # equal harvest rewards keep every episode
        package = build_patch_package(explainer, target, env, harvest_episodes=10,
                                      quantile=0.3, seed=seed)
    assert package.to_doc() == _scalar_patch_package(explainer, target, env, 10, 0.3,
                                                     seed).to_doc()
    # the package patches the other target, whose actions it often overrides
    d_th = 0.4 * env.spec.obs_dim
    patch = _scalar_patch(package, explainer, other, env, d_th, episodes, seed)
    assert eval_fidelity(explainer, target, env, episodes, seed) == fidelity
    for flag, report in attacks.items():
        assert launch_attack(explainer, target, env, 0.4, episodes, seed,
                             attack_all=flag) == report
    assert apply_patch(package, explainer, other, env, d_th, episodes, seed) == patch


def _three_commands(explainer, target, other, env, package):
    return {
        "fidelity": lambda episodes: eval_fidelity(explainer, target, env, episodes, seed=3),
        "attack": lambda episodes: launch_attack(explainer, target, env, 0.5, episodes, seed=3),
        "patch": lambda episodes: apply_patch(package, explainer, other, env, 1.6, episodes,
                                              seed=3),
    }


def test_commands_place_each_seed_once_and_draw_no_stream_per_episode(monkeypatch):
    env = make_env("keycorridor")
    target, other, explainer = _parity_setup("emai", env)
    package = build_patch_package(explainer, target, env, harvest_episodes=10, quantile=0.3,
                                  seed=3)
    streams, placements, places = [], [], []
    original_stream = rng.stream
    original_rows, original_place = KeyCorridor._place_rows, KeyCorridor._place
    monkeypatch.setattr(rng, "stream", lambda *key: streams.append(key) or original_stream(*key))
    monkeypatch.setattr(KeyCorridor, "_place_rows", lambda self, seeds: placements.append(
        list(seeds)) or original_rows(self, seeds))
    monkeypatch.setattr(KeyCorridor, "_place",
                        lambda self, seed: places.append(seed) or original_place(self, seed))
    for name, run in _three_commands(explainer, target, other, env, package).items():
        counts = []
        for episodes in (20, 40):
            streams.clear()
            placements.clear()
            places.clear()
            run(episodes)
            counts.append(len(streams))
        # the matched arms share one batched placement of the 40 seeds;
        # every draw is a table
        assert len(placements) == 1 and len(set(placements[0])) == 40, name
        assert places == [], name
        assert counts[0] == counts[1], name


def test_each_command_steps_its_arms_as_one_batch(monkeypatch):
    # one GridBatch.step, one target query and one explainer query per step:
    # a return to one lockstep pass per arm would multiply each count
    env = make_env("keycorridor", horizon=7)
    target, other, explainer = _parity_setup("emai", env)
    package = build_patch_package(explainer, target, env, harvest_episodes=10, quantile=0.3,
                                  seed=3)
    calls = {"step": 0, "act_batch": 0, "scores_batch": 0}

    def counted(owner, attr):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counted(GridBatch, "step")
    counted(type(target), "act_batch")
    counted(type(other), "act_batch")
    counted(EmaiExplainer, "scores_batch")
    for name, run in _three_commands(explainer, target, other, env, package).items():
        calls.update(dict.fromkeys(calls, 0))
        run(6)
        assert calls == dict.fromkeys(calls, env.spec.horizon), name
