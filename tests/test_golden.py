"""Pinned CSV digests: a refactor that keeps these keeps every result.

Each digest is the sha256 of the CSV that run_experiment writes for one
small scenario. The scenarios run in fresh interpreters under two hash
seeds, so set or dict iteration order cannot leak into the bytes. A change
that alters the random-number stream on purpose re-pins these digests and
says so in CHANGES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

DESK = dict(scenario_id="desk", grid_width=6, grid_height=6, local_clouds=2,
            public_instances=1, users=5, workflows_per_user=1,
            duration_s=120.0, local_function_rate=0.4,
            template_mix={"file_sync": 1.0},
            profiles={"intercloud": {"delay_ms_per_100kb": 400.0}},
            annealing={"radius_start_cells": 8.0}, repetitions=3,
            algorithm="all", seed=0, uncertainty_pct=30.0)
GROUPED = dict(scenario_id="group-trend", users=100, local_capacity=8,
               workflows_per_user=1, duration_s=300.0,
               template_mix={"file_sync": 1.0},
               annealing={"radius_start_cells": 3.0}, algorithm="gmusic",
               groups=20, repetitions=1, seed=7, enumeration_cap=1)
GAIN = dict(scenario_id="gain-study", users=10, algorithm="music",
            fixed_dimension="delay", repetitions=2, seed=0)
# the sequential baselines' public-only pass, with mispredicted requests
GAIN_SEQ = dict(scenario_id="gain-study", users=10, fixed_dimension="price",
                uncertainty_pct=30.0, repetitions=2, seed=0)
DEFAULT = dict(repetitions=1, enumeration_cap=1)

GOLDEN = {
    "desk": (DESK,
             "a81e1c4420da63c1c54f090679901b008414ba8bb3c209f1ecef1bd7223137f4"),
    "grouped": (GROUPED,
                "6ee427f47464c9fad5075dd2b13c1733a614fc6341f8f7ff7598fbf321da16bc"),
    "gain": (GAIN,
             "99ac09b65181a20ce964cb4d642c15499b00934d6c4fdc398193efe725a3f342"),
    "default": (DEFAULT,
                "e0bd20514d1feba90c980043c6e7feff8a70e9a521e06bfda9e3831152c0e051"),
    "gain-rsa": (dict(GAIN_SEQ, algorithm="rsa"),
                 "b4755db7d3c3d4caf96cddc26a9ddf10b15451e8bae379d82e5eef206d2cb447"),
    "gain-greedy": (dict(GAIN_SEQ, algorithm="greedy"),
                    "4a51c7e12a2b40c4caa1b556525d2a6c1b0168e7a2d79b00f9fb527aba2f0c95"),
    # capacity binds in every repetition, so the optimum combines several
    # options per user
    "desk-capacity-1": (dict(DESK, local_capacity=1),
                        "957e421d7f06c6edfe979eaf8cd83992f0c59b98d1786f907f12931fabddc566"),
    # 25 members per group, so a proposal's mean takes numpy's pairwise
    # branch; at capacity 2, most member searches that see earlier members'
    # tentative usage find a cloud it closed
    "grouped-capacity-2": (dict(GROUPED, groups=4, local_capacity=2),
                           "7d671c1dfdd6500f3123acd20a44107c6e9324fb2614c3292705b9d87f2161ac"),
    # two single-user searches draw proposals whose draw and repairs all
    # break the budget, so those proposals widen the radius, each spinning
    # its own slot of the call's one block of doubles at every radius
    "gain-seed-3": (dict(GAIN, seed=3),
                    "a5b8187e44199ca529cf3965560f7c839daed46936078b31e512f8a02d5b6248"),
    # grouped members under a delay budget at capacity 1: a member's cloud
    # closes that cloud for the later members of the same proposal
    "desk-grouped-budget": (dict(DESK, groups=2, local_capacity=1,
                                 budget_delay=12000.0),
                            "751544bd386dbd45b5d9e31cf46ca55c348a7bafaf5ed346bdf33ae8f7d1d63e"),
    # greedy at fleet scale: capacity binds in greedy's argmax
    "fleet-greedy": (dict(DEFAULT, users=200, algorithm="greedy"),
                     "5b1046ecab0d32ca13cb7350d84a47250dd1a36c39ffef57185f38f60cf8cc04"),
    # every allocator at default scale under prediction noise: rsa's
    # evaluate loop, greedy, music and carry-over
    "default-all-noisy": (dict(DEFAULT, algorithm="all", uncertainty_pct=30.0,
                               repetitions=2),
                          "d852bf5eb2828c3a9157cb32ecca2adf56c213697fcebb8e5680f99dced80332"),
    # music at default scale under a delay budget: most searches find no
    # admitted plan at any radius, so their targets stay unplaced
    "default-budget-delay": (dict(DEFAULT, algorithm="music",
                                  budget_delay=12000.0, repetitions=2),
                             "edf1a93ce97479976b2ead6cf8c86239aec44ab6abf2ab6448af1245e5d23a6a"),
    # a sparse deployment at default scale: each (cloud, function) draws
    # whether it is hosted and then its jitter, and a quarter of the device
    # services exist, so users lean on the local and public clouds
    "default-sparse": (dict(DEFAULT, algorithm="all", local_function_rate=0.5,
                            device_service_rate=0.25, repetitions=2),
                       "d7d2143fbd21107d45caa8c775ac0d74c29f72ea849922343c123f638c2d4fb9"),
    # gmusic at default scale under prediction noise: in 22 of the 24
    # entry depths of its 8 joint passes, a group's members mix workflow
    # fold shapes, so that depth's entry rows come from several folds
    "default-gmusic-noisy": (dict(DEFAULT, groups=4, algorithm="gmusic",
                                  uncertainty_pct=30.0, repetitions=2),
                             "755f9529d7e3b38c485f5bfc171e77a1eafab9c2a67f599a2996f5bd71e4bc09"),
    # gmusic on short trajectories with six workflows each: in 14 of its
    # 15 joint passes a group's members have unequal entry counts, so a
    # member with fewer entries adds the zero row at the deeper depths
    "short-gmusic": (dict(DEFAULT, groups=5, algorithm="gmusic",
                          workflows_per_user=6, duration_s=60.0,
                          repetitions=3),
                     "ee6358e1d086ebedca23dde120d28cfd98fd7e4288f8c045e577b6a2c30f45c5"),
    # gmusic at local capacity 2 under price and power budgets: each of
    # its admitted repairs lands on a cloud with room for some but not all
    # members, so the later members' clash test reads the repaired plan
    "default-gmusic-repair-clash": (dict(DEFAULT, groups=5, algorithm="gmusic",
                                         local_capacity=2, budget_price=0.2,
                                         budget_power=120000.0,
                                         repetitions=3),
                                    "17888d615ebc97e6e9b1c5b495c450db33c937c44e1c64dbbe1b6fd25747e15d"),
}

# reads {name: scenario kwargs} on stdin, prints {name: sha256} on stdout
_CHILD = """
import hashlib, json, sys
from tieralloc import Scenario, rows_to_csv, run_experiment
out = {}
for name, cfg in json.load(sys.stdin).items():
    csv = rows_to_csv(run_experiment(Scenario(**cfg)))
    out[name] = hashlib.sha256(csv.encode()).hexdigest()
print(json.dumps(out))
"""


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_csv_digests_match_the_pinned_values(hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=str(SRC))
    scenarios = {name: cfg for name, (cfg, _) in GOLDEN.items()}
    proc = subprocess.run([sys.executable, "-c", _CHILD],
                          input=json.dumps(scenarios), env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got == {name: digest for name, (_, digest) in GOLDEN.items()}
