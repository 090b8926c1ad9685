"""Mobility models and prediction uncertainty.

Both generators discretize movement into 1 second steps over the grid and
emit a Trajectory of (cell, dwell seconds) visits:

  random waypoint  pick a uniform random target cell center, walk straight
                   to it at a per-leg uniform speed, pause up to pause_max_s,
                   repeat.
  manhattan        walk the lanes between adjacent cell centers; at each
                   intersection continue straight with probability 0.5 or
                   turn left/right with 0.25 each, renormalized where walls
                   remove options.

Uncertainty perturbs a predicted location-time workflow: each entry is
independently rewritten with the given probability, moving it to a different
cell or swapping its workflow for a fresh instance of another template.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import LocationMap, Trajectory, TrajectoryEntry
from .workflow import LTW, LTWEntry

RANDOM_WAYPOINT = "random_waypoint"
MANHATTAN = "manhattan"

LOCATION = "location"
SERVICE = "service"
BOTH = "both"


@dataclass(frozen=True)
class MobilityParams:
    model: str
    duration_s: float
    speed_min: float = 1.0
    speed_max: float = 10.0
    pause_max_s: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.model not in (RANDOM_WAYPOINT, MANHATTAN):
            raise ValueError(f"unknown mobility model {self.model!r}")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if not 0 < self.speed_min <= self.speed_max:
            raise ValueError("need 0 < speed_min <= speed_max")
        if self.pause_max_s < 0:
            raise ValueError("pause bound must be >= 0")


@dataclass(frozen=True)
class UncertaintySpec:
    rate: float
    mode: str = BOTH

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("uncertainty rate must lie in [0, 1]")
        if self.mode not in (LOCATION, SERVICE, BOTH):
            raise ValueError(f"unknown uncertainty mode {self.mode!r}")


def _compress(cell_ids: Sequence[int]) -> Trajectory:
    entries: list[TrajectoryEntry] = []
    run_cell, run_len = cell_ids[0], 0
    for cid in cell_ids:
        if cid == run_cell:
            run_len += 1
        else:
            entries.append(TrajectoryEntry(run_cell, float(run_len)))
            run_cell, run_len = cid, 1
    entries.append(TrajectoryEntry(run_cell, float(run_len)))
    return Trajectory(tuple(entries))


def _walk_steps(pos: np.ndarray, target: np.ndarray, speed: float) -> list[np.ndarray]:
    """Positions after each 1 s step walking straight at speed, clamping on
    arrival. Returns an empty list when already there."""
    out = []
    delta = target - pos
    dist = float(np.hypot(*delta))
    if dist == 0.0:
        return out
    step = delta / dist * speed
    while dist > 0.0:
        if speed >= dist:
            pos = target
            dist = 0.0
        else:
            pos = pos + step
            dist -= speed
        out.append(pos)
    return out


def generate_random_waypoint(params: MobilityParams, grid: LocationMap) -> Trajectory:
    """Random-waypoint trajectory over the grid, 1 s resolution."""
    rng = np.random.default_rng(params.seed)
    steps = max(1, int(round(params.duration_s)))
    centers = grid.centers()
    pos = centers[rng.integers(len(centers))].copy()
    if len(centers) == 1:
        return Trajectory((TrajectoryEntry(0, float(steps)),))
    cells: list[int] = []
    pause_left = 0
    leg: list[np.ndarray] = []
    while len(cells) < steps:
        cells.append(grid.cell_at(pos[0], pos[1]).id)
        if pause_left > 0:
            pause_left -= 1
            continue
        if not leg:
            # at a waypoint: draw the next target (never the current cell)
            cur = grid.cell_at(pos[0], pos[1]).id
            target_cell = int(rng.integers(len(centers)))
            while target_cell == cur:
                target_cell = int(rng.integers(len(centers)))
            speed = rng.uniform(params.speed_min, params.speed_max)
            leg = _walk_steps(pos, centers[target_cell], speed)
        pos = leg.pop(0)
        if not leg:
            pause_left = int(round(rng.uniform(0.0, params.pause_max_s)))
    return _compress(cells)


_TURNS = ((0.5, lambda d: d),                       # straight
          (0.25, lambda d: (-d[1], d[0])),          # left
          (0.25, lambda d: (d[1], -d[0])))          # right


def generate_manhattan(params: MobilityParams, grid: LocationMap) -> Trajectory:
    """Manhattan-lane trajectory: straight 0.5, left 0.25, right 0.25 at
    each intersection, restricted to in-grid moves; dead ends force a
    u-turn."""
    rng = np.random.default_rng(params.seed)
    steps = max(1, int(round(params.duration_s)))
    if len(grid) == 1:
        return Trajectory((TrajectoryEntry(0, float(steps)),))

    def in_grid(col: int, row: int) -> bool:
        return 0 <= col < grid.width and 0 <= row < grid.height

    col = int(rng.integers(grid.width))
    row = int(rng.integers(grid.height))
    options = [d for d in ((1, 0), (-1, 0), (0, 1), (0, -1))
               if in_grid(col + d[0], row + d[1])]
    heading = options[rng.integers(len(options))]
    pos = grid.centers()[row * grid.width + col].copy()
    cells: list[int] = []
    leg: list[np.ndarray] = []
    while len(cells) < steps:
        cells.append(grid.cell_at(pos[0], pos[1]).id)
        if not leg:
            # at an intersection: pick the next heading, then the next lane
            col = int(pos[0] / grid.cell_size_m)
            row = int(pos[1] / grid.cell_size_m)
            moves, weights = [], []
            for w, rot in _TURNS:
                d = rot(heading)
                if in_grid(col + d[0], row + d[1]):
                    moves.append(d)
                    weights.append(w)
            if not moves:
                moves, weights = [(-heading[0], -heading[1])], [1.0]
            probs = np.array(weights) / sum(weights)
            heading = moves[rng.choice(len(moves), p=probs)]
            target = grid.centers()[(row + heading[1]) * grid.width
                                    + (col + heading[0])]
            speed = rng.uniform(params.speed_min, params.speed_max)
            leg = _walk_steps(pos, target, speed)
        pos = leg.pop(0)
    return _compress(cells)


_GENERATORS = {RANDOM_WAYPOINT: generate_random_waypoint,
               MANHATTAN: generate_manhattan}


def generate_trajectory(params: MobilityParams, grid: LocationMap) -> Trajectory:
    return _GENERATORS[params.model](params, grid)


def inject_uncertainty(ltw: LTW, spec: UncertaintySpec, grid: LocationMap,
                       templates: Sequence, rng: np.random.Generator) -> LTW:
    """Perturbed copy of a predicted location-time workflow.

    Each entry is rewritten with probability spec.rate: mode "location"
    moves it to a uniformly drawn different cell, "service" swaps in a fresh
    instance of a different template (same template only when no other
    exists), "both" flips a fair coin between the two. The input is never
    modified. templates entries must expose .name and .instantiate(rng).
    """
    if spec.rate > 0.0 and not templates:
        raise ValueError("uncertainty injection needs at least one template")
    out: list[LTWEntry] = []
    for entry in ltw.entries:
        if spec.rate == 0.0 or rng.random() >= spec.rate:
            out.append(entry)
            continue
        mode = spec.mode
        if mode == BOTH:
            mode = LOCATION if rng.random() < 0.5 else SERVICE
        if mode == LOCATION and len(grid) > 1:
            new_cell = int(rng.integers(len(grid)))
            while new_cell == entry.cell_id:
                new_cell = int(rng.integers(len(grid)))
            out.append(LTWEntry(new_cell, entry.window_s, entry.workflow,
                                entry.template))
        else:
            pool = [t for t in templates if t.name != entry.template] or list(templates)
            tpl = pool[rng.integers(len(pool))]
            out.append(LTWEntry(entry.cell_id, entry.window_s,
                                tpl.instantiate(rng), tpl.name))
    return LTW(tuple(out))
