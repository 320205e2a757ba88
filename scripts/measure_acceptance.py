"""Development measurement for the acceptance scenarios (not shipped logic)."""
import time

import numpy as np

from emai import envs, evaluation, explain, masking, rollout, target
from emai.rng import episode_seed


def stamp(msg):
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


t0 = time.time()

kc = envs.make_env("keycorridor")
kc_pol = target.scripted_policy(kc)
KC_CFG = {"steps": 40_000, "lambda": 0.0, "baseline_episodes": 500,
          "epsilon_anneal_steps": 20_000}
stamp("training kc emai...")
kc_mp, _ = masking.train_emai(kc_pol, kc, KC_CFG, seed=7)
stamp(f"kc trained ({time.time()-t0:.0f}s) j_pi={kc_mp.j_pi:.3f} beta={kc_mp.beta:.5f}")

# criterion 6: pivotal-agent recovery over 500 greedy rollouts
top0 = total = 0
rand_top0 = 0
rand_ex = explain.RandomExplainer(seed=123)
n_actions = kc.spec.n_actions
for i in range(500):
    seed_i, mask_rng = episode_seed(7, "crit6", i), np.random.default_rng(i)

    def act(obs, state, prefix):
        return [masking.apply_mask(a, int(b), n_actions, mask_rng)
                for a, b in zip(rollout.greedy_actions(kc_pol, obs),
                                kc_mp.greedy_mask_bits(obs))]

    for s in rollout.run_episode(kc, seed_i, act).steps:
        if s.state[6] < 0:
            total += 1
            top0 += int(np.argmax(kc_mp.importance_vector(s.observations)) == 0)
            ctx = explain.ExplainContext(s.observations, s.state, s.t, episode_seed=seed_i)
            rand_top0 += int(rand_ex.most_critical(ctx) == 0)
se = np.sqrt((1/3) * (2/3) / total)
stamp(f"CRIT6: pre-switch steps={total} emai_rate={top0/total:.3f} "
      f"random_rate={rand_top0/total:.3f} (band 1/3 +- {2*se:.3f})")

# criterion 7 (keycorridor)
for name, ex in (("emai", explain.EmaiExplainer(kc_mp)),
                 ("random", explain.RandomExplainer(seed=5))):
    rep = evaluation.eval_fidelity(ex, kc_pol, kc, episodes=500, seed=21)
    stamp(f"CRIT7 kc {name}: rrd={rep.rrd:.3f}+-{rep.rrd_stderr:.3f} "
          f"d_e={rep.delta_e:.3f}+-{rep.se_delta_e:.3f} d_r={rep.delta_r:.3f}")

# criterion 8: oracle agreement on 200 sampled states
stamp("crit8 oracle agreement...")
states = []
for i in range(40):
    tr = rollout.run_target_episode(kc, episode_seed(7, "crit8", i), kc_pol)
    for t in range(0, len(tr.steps), 6):
        states.append((episode_seed(7, "crit8", i), tr, t))
states = states[:200]
oracle = explain.McOracleExplainer(kc_pol, rollouts=64, seed=9)
emai_ex = explain.EmaiExplainer(kc_mp)
rnd_ex = explain.RandomExplainer(seed=11)
agree_e = agree_r = 0
for seed_i, tr, t in states:
    prefix = [s.final_actions for s in tr.steps[:t]]
    ctx = explain.ExplainContext(tr.steps[t].observations, tr.steps[t].state, t,
                                 kc.name, kc.params, seed_i, prefix)
    top_o = oracle.most_critical(ctx)
    agree_e += int(emai_ex.most_critical(ctx) == top_o)
    agree_r += int(rnd_ex.most_critical(ctx) == top_o)
n = len(states)
p_e, p_r = agree_e / n, agree_r / n
se_c = np.sqrt(p_e*(1-p_e)/n + p_r*(1-p_r)/n)
stamp(f"CRIT8: emai_agree={p_e:.3f} random_agree={p_r:.3f} combined_se={se_c:.3f} "
      f"margin_needed={2*se_c:.3f} actual={p_e-p_r:.3f}")

# criterion 9: attacks
for name, ex in (("emai", explain.EmaiExplainer(kc_mp)),
                 ("random", explain.RandomExplainer(seed=13))):
    rep = evaluation.launch_attack(ex, kc_pol, kc, noise_eps=0.5, episodes=500, seed=31)
    stamp(f"CRIT9 {name}: delta={rep.delta:.3f}+-{rep.stderr:.3f}")

# spread training + criterion 7
spread = envs.make_env("spread", n_agents=3, grid=8)
sp_pol = target.scripted_policy(spread)
SP_CFG = {"steps": 50_000, "lambda": 0.0, "baseline_episodes": 500,
          "epsilon_anneal_steps": 25_000}
stamp("training spread emai...")
sp_mp, _ = masking.train_emai(sp_pol, spread, SP_CFG, seed=7)
stamp(f"spread trained ({time.time()-t0:.0f}s)")
for name, ex in (("emai", explain.EmaiExplainer(sp_mp)),
                 ("random", explain.RandomExplainer(seed=5))):
    rep = evaluation.eval_fidelity(ex, sp_pol, spread, episodes=500, seed=21)
    stamp(f"CRIT7 spread {name}: rrd={rep.rrd:.3f}+-{rep.rrd_stderr:.3f} "
          f"d_e={rep.delta_e:.3f} d_r={rep.delta_r:.3f}")

# criterion 10: weakened patching
weak_pol = target.ScriptedKeyCorridor(weakened=True)
stamp("training emai vs weakened target...")
wk_mp, _ = masking.train_emai(weak_pol, kc, KC_CFG, seed=7)
stamp(f"weak trained ({time.time()-t0:.0f}s) j_pi={wk_mp.j_pi:.3f}")
for d_th in (0.65, 1.0, 1.3):
    for name, ex in (("emai", explain.EmaiExplainer(wk_mp)),
                     ("random", explain.RandomExplainer(seed=17))):
        pkg = evaluation.build_patch_package(ex, weak_pol, kc, harvest_episodes=100,
                                             quantile=0.1, seed=41)
        rep = evaluation.apply_patch(pkg, ex, weak_pol, kc, d_th=d_th,
                                     episodes=500, seed=43)
        stamp(f"CRIT10 d_th={d_th} {name}: delta={rep.delta:.3f}+-{rep.stderr:.3f} "
              f"overrides={rep.mean_overrides:.2f} entries={len(pkg)}")
stamp(f"ALL DONE {time.time()-t0:.0f}s")
