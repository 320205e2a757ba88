"""Evaluation harness: RRD accounting, attacks, patch packages."""
from __future__ import annotations

import numpy as np
import pytest

from emai.envs import make_env
from emai.evaluation import (PatchPackage, RRD_DENOMINATOR_GUARD, apply_patch,
                             build_patch_package, eval_fidelity, launch_attack)
from emai.explain import ExplainContext, Explainer, McOracleExplainer, RandomExplainer
from emai.rng import episode_seed
from emai.target import scripted_policy


class _FixedAgentExplainer(Explainer):
    """Always names the same agent; handy deterministic probe."""

    kind = "fixed"

    def __init__(self, agent: int, n: int):
        self.agent, self.n = agent, n

    def scores(self, ctx):
        out = np.zeros(self.n)
        out[self.agent] = 1.0
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

        def scores(self, ctx):
            self.seen_seeds.add(ctx.episode_seed)
            return super().scores(ctx)

    spy = _Spy()
    build_patch_package(spy, pol, env, harvest_episodes=100, quantile=0.1, seed=14)
    assert spy.seen_seeds == {seeds[i] for i in best10}


def test_patch_degenerate_rewards_warns_and_keeps_all():
    env = make_env("diagnostic", n_agents=2, grid=5, horizon=5, zero_reward=True)
    pol = scripted_policy(env)
    with pytest.warns(UserWarning):
        pkg = build_patch_package(_FixedAgentExplainer(0, 2), pol, env,
                                  harvest_episodes=12, quantile=0.1, seed=15)
    assert len(pkg) > 0


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


def test_patch_package_roundtrip(tmp_path):
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    pkg = build_patch_package(_FixedAgentExplainer(0, 3), pol, env,
                              harvest_episodes=12, quantile=0.5, seed=18)
    path = tmp_path / "pkg.json"
    pkg.save(path)
    loaded = PatchPackage.load(path)
    assert np.array_equal(pkg.obs, loaded.obs)
    assert np.array_equal(pkg.actions, loaded.actions)
    assert loaded.quantile == pkg.quantile


def test_patch_empty_package_rejected():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    empty = PatchPackage("keycorridor", "fixed", 0.1,
                         np.zeros((0, env.spec.obs_dim)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        apply_patch(empty, _FixedAgentExplainer(0, 3), pol, env, episodes=5)


def test_patch_entries_deduplicated_on_exact_observation():
    env = make_env("keycorridor")
    pol = scripted_policy(env)
    pkg = build_patch_package(_FixedAgentExplainer(0, 3), pol, env,
                              harvest_episodes=10, quantile=1.0, seed=19)
    keys = {tuple(row) for row in pkg.obs}
    assert len(keys) == len(pkg)


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
