"""
Comparing allocators on an enumerable instance
==============================================

At desk scale the exact optimum is enumerable, so every allocator can be
scored as throughput: achieved utility as a percentage of the optimum.
MuSIC draws candidate plans around each user's center of mobility and
keeps the best of them; greedy picks the best normalized service for every
occurrence in isolation; rsa assigns uniformly at random among feasible
candidates. The instance below is shaped so plans must span clouds and
pay inter-cloud hops, which is exactly where one-step-at-a-time greedy
falls behind.
"""

import numpy as np

from tieralloc import Scenario, run_experiment

recipe = dict(scenario_id="desk-demo", grid_width=6, grid_height=6,
              local_clouds=2, public_instances=1, users=5,
              workflows_per_user=1, duration_s=120.0,
              local_function_rate=0.4,
              template_mix={"file_sync": 1.0},
              profiles={"intercloud": {"delay_ms_per_100kb": 400.0}},
              annealing={"radius_start_cells": 8.0},
              repetitions=3, algorithm="all")

per_alg = {}
for seed in range(5):
    rows = run_experiment(Scenario(**recipe, seed=seed))
    for row in rows:
        per_alg.setdefault(row.algorithm, []).append(row.throughput_pct)

print("mean throughput over 5 seeds x 3 repetitions:")
for alg in ("bruteforce", "music", "greedy", "rsa"):
    vals = [v for v in per_alg[alg] if v is not None]
    print(f"  {alg:<10} {np.mean(vals):6.1f}%  "
          f"(min {min(vals):5.1f}%, max {max(vals):5.1f}%)")

# bruteforce scores 100% by construction; MuSIC should sit between it
# and greedy, and random assignment far below.
music = np.mean(per_alg["music"])
greedy = np.mean(per_alg["greedy"])
rsa = np.mean(per_alg["rsa"])
print(f"\nmusic beats greedy here:    {music > greedy}")
print(f"greedy beats random:        {greedy > rsa}")
