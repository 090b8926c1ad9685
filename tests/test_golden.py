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
