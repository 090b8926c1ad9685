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

A leg (one walk between two cell centers) is walked whole: a scalar loop
counts its 1 s strides, sequential float adds give the positions, and once
the trajectory is complete one vectorized floor-and-clamp maps every
position to its cell and numpy run-length encodes the cells. The positions
and so the visits equal those of a stride-by-stride walk bit for bit, and
the random draws come in the same order: per leg the target (or heading,
drawn with weighted_pick, which consumes the stream like Generator.choice),
the speed and, for random waypoint, the pause.

Uncertainty perturbs a predicted location-time workflow: each entry is
independently rewritten with the given probability, moving it to a different
cell or swapping its workflow for a fresh instance of another template.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
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


def choice_cdf(p: Sequence[float]) -> list[float]:
    """The cumulative wheel Generator.choice(len(p), p=p) searches, built
    the way numpy builds it: cdf = p.cumsum(); cdf /= cdf[-1]."""
    cdf = np.asarray(p, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def weighted_pick(cdf: Sequence[float], rng: np.random.Generator) -> int:
    """Index drawn from a choice_cdf(p) wheel.

    Equals rng.choice(len(p), p=p) in the index and in the stream: both
    take one double from rng.random() and search the wheel to its right.
    """
    return bisect_right(cdf, rng.random())


def uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """rng.uniform(lo, hi) without numpy's per-call argument handling: the
    same double (lo + (hi - lo) * the next random double) from the same
    draw of the stream."""
    return lo + (hi - lo) * rng.random()


@lru_cache(maxsize=None)
def _turn_cdf(weights: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(choice_cdf(np.array(weights) / sum(weights)))


def _leg(x: float, y: float, tx: float, ty: float, speed: float
         ) -> tuple[list[float], list[float]]:
    """Coordinates after each 1 s step walking straight from (x, y) to
    (tx, ty) at speed; the last step stops on the target. Empty when
    already there.

    The scalar dist -= speed loop counts the strides and each coordinate is
    a run of sequential float adds, so every position equals the one a
    stride-by-stride walk reaches.
    """
    dx, dy = tx - x, ty - y
    # hypot(d, +-0.0) is |d| exactly; only a diagonal leg needs the call
    if dy == 0.0:
        dist = abs(dx)
    elif dx == 0.0:
        dist = abs(dy)
    else:
        dist = float(np.hypot(dx, dy))
    if dist == 0.0:
        return [], []
    strides = 0
    rest = dist
    while speed < rest:
        rest -= speed
        strides += 1
    sx, sy = dx / dist * speed, dy / dist * speed
    xs = list(accumulate(repeat(sx, strides), initial=x))
    ys = list(accumulate(repeat(sy, strides), initial=y))
    return xs[1:] + [tx], ys[1:] + [ty]


def _trajectory(grid: LocationMap, xs: list[float], ys: list[float]
                ) -> Trajectory:
    """Run-length encoded cells of the 1 s positions."""
    ids = grid.cell_ids_at(np.array(xs), np.array(ys))
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(ids)) + 1,
                             [len(ids)]))
    return Trajectory(tuple(
        TrajectoryEntry(cell, float(dwell))
        for cell, dwell in zip(ids[bounds[:-1]].tolist(),
                               np.diff(bounds).tolist())))


def generate_random_waypoint(params: MobilityParams, grid: LocationMap) -> Trajectory:
    """Random-waypoint trajectory over the grid, 1 s resolution."""
    rng = np.random.default_rng(params.seed)
    steps = max(1, int(round(params.duration_s)))
    centers = grid.centers()
    x, y = centers[rng.integers(len(centers))].tolist()
    if len(centers) == 1:
        return Trajectory((TrajectoryEntry(0, float(steps)),))
    xs, ys = [x], [y]
    while len(xs) < steps:
        # at a waypoint: draw the next target (never the current cell)
        cur = grid.cell_at(x, y).id
        target_cell = int(rng.integers(len(centers)))
        while target_cell == cur:
            target_cell = int(rng.integers(len(centers)))
        speed = uniform(rng, params.speed_min, params.speed_max)
        tx, ty = centers[target_cell].tolist()
        leg_x, leg_y = _leg(x, y, tx, ty, speed)
        pause = int(round(uniform(rng, 0.0, params.pause_max_s)))
        xs += leg_x + [tx] * pause
        ys += leg_y + [ty] * pause
        x, y = tx, ty
    return _trajectory(grid, xs[:steps], ys[:steps])


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

    centers = grid.centers()
    col = int(rng.integers(grid.width))
    row = int(rng.integers(grid.height))
    options = [d for d in ((1, 0), (-1, 0), (0, 1), (0, -1))
               if in_grid(col + d[0], row + d[1])]
    heading = options[rng.integers(len(options))]
    x, y = centers[row * grid.width + col].tolist()
    xs, ys = [x], [y]
    while len(xs) < steps:
        # at an intersection: pick the next heading, then the next lane
        col = int(x / grid.cell_size_m)
        row = int(y / grid.cell_size_m)
        moves, weights = [], []
        for w, rot in _TURNS:
            d = rot(heading)
            if in_grid(col + d[0], row + d[1]):
                moves.append(d)
                weights.append(w)
        if not moves:
            moves, weights = [(-heading[0], -heading[1])], [1.0]
        heading = moves[weighted_pick(_turn_cdf(tuple(weights)), rng)]
        tx, ty = centers[(row + heading[1]) * grid.width
                         + (col + heading[0])].tolist()
        speed = uniform(rng, params.speed_min, params.speed_max)
        leg_x, leg_y = _leg(x, y, tx, ty, speed)
        xs += leg_x
        ys += leg_y
        x, y = tx, ty
    return _trajectory(grid, xs[:steps], ys[:steps])


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
