"""Mobility models and prediction uncertainty.

Both generators discretize movement into 1 second steps over the grid and
emit a Trajectory: its visits as runs, in a column of cells and a column of
dwell seconds:

  random waypoint  pick a uniform random target cell center, walk straight
                   to it at a per-leg uniform speed, pause up to pause_max_s,
                   repeat.
  manhattan        walk the lanes between adjacent cell centers; at each
                   intersection continue straight with probability 0.5 or
                   turn left/right with 0.25 each, renormalized where walls
                   remove options.

A leg (one walk between two cell centers) goes straight to its target in
1 s strides, the last of which stops on the target. It is walked in closed
form, as runs of cells, never as per-second positions: O(1) work per leg
plus O(1) per lane it crosses.

  - the stride count is that of the loop rest -= speed while speed < rest:
    with q = dist / speed, ceil(q) - 1, floored at 0;
  - an axis the leg moves along has the stride positions of sequential
    float adds v + step + step + ..., the values a stride-by-stride walk
    reaches; an axis it does not move along keeps its coordinate;
  - the first stride at which a moving axis enters the next column (row)
    is floor(t) + 1, t = (edge - v) / step, the edge being the least
    double e with int(e / cell_size_m) >= column: moving up the first
    stride reaching the edge, ceil(t), moving down the first stride below
    it, floor(t) + 1, which are one number when t is not an integer. So
    the cells agree bit for bit with the truncate-and-clamp rule of
    LocationMap.cell_at;
  - the last stride's cell is the target's own, looked up directly, as
    the stride before it can round past the target.

The bound. A float add errs by at most 2**-53 of its result, so after i
adds a position lies within i * 2**-53 * M of its real value v + i *
step, M = |v| + (strides + 1) * |step| bounding every |position| of the
leg, and the rest of the count loop within i * 2**-53 * dist of dist - i *
speed; the divisions giving q and t add two more such errors. A count or
a crossing is trusted only when q lies farther than _SLACK * q from an
integer, or t farther than _SLACK * M / |step| strides, and the leg has at
most _MAX_STRIDES strides: the drift is then at most (1e5 + 3) * 2**-53 * M
< 1.2e-11 * M, over 80 times less than the slack, so the float walk falls
on the same side of every edge, and of the target, as the real one. A q
above limit + 1 needs no such test: the rest then stays above speed for
limit rounds. Where the bound is not met (an integer speed that divides
the leg, a leg starting on an edge), the count, or that axis, falls back
to the sequential walk: the rest -= speed loop, and the positions as a
list of adds, bisected.

A leg walks at most the seconds the trajectory still needs (limit), the
fallback too. The last leg's later seconds would be cut anyway, so the
output is the same, and a tiny speed costs O(duration_s), not O(leg length
/ speed).

A run that stays in the trajectory's last cell extends it. The edges, the
centers and Manhattan's turn table at each column, row and heading (the
moves and their cdf) are built once per grid geometry. Random waypoint
walks each leg with _leg; a Manhattan leg moves one lane along one axis,
so generate_manhattan walks it inline on that axis, through the same
_strides, _crossings and _lane_changes.

The random draws come in a fixed order: per leg the target (or heading,
drawn with weighted_pick, which consumes the stream like
Generator.choice), the speed and, for random waypoint, the pause.
Manhattan reads its doubles in blocks, rng.random(_BLOCK) after its three
integers draws, from the generator private to the call: the same doubles,
in the same order, as one rng.random() call each, and those drawn past the
last leg are never seen. Random waypoint's integer target draws
interleave with its doubles, so it draws them one at a time.

Uncertainty perturbs a predicted location-time workflow: each entry is
independently rewritten with the given probability, moving it to a different
cell or swapping its workflow for a fresh instance of another template.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .model import LocationMap, Trajectory
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


def _edges(n: int, size: float) -> tuple[float, ...]:
    """Edges of n lanes of the given size along one axis: edges[c - 1] is
    the least double v with int(v / size) >= c, for lanes c = 1..n-1. The
    count of edges <= v is then min(max(int(v / size), 0), n - 1), the
    column (row) LocationMap.cell_at gives v."""
    edges = []
    for c in range(1, n):
        v = c * size
        while int(v / size) < c:
            v = math.nextafter(v, math.inf)
        while int(math.nextafter(v, -math.inf) / size) >= c:
            v = math.nextafter(v, -math.inf)
        edges.append(v)
    return tuple(edges)


_TURNS = ((0.5, lambda d: d),                       # straight
          (0.25, lambda d: (-d[1], d[0])),          # left
          (0.25, lambda d: (d[1], -d[0])))          # right


@lru_cache(maxsize=None)
def _turn_choices(heading: tuple[int, int], open_turns: tuple[bool, ...]
                  ) -> tuple[tuple, tuple[float, ...]]:
    """The moves of _TURNS that open_turns marks open, turned from heading,
    and the choice_cdf of their renormalized weights; a dead end forces a
    u-turn. A few dozen tables serve every grid."""
    moves = tuple(rot(heading) for (_, rot), ok in zip(_TURNS, open_turns)
                  if ok)
    weights = [w for (w, _), ok in zip(_TURNS, open_turns) if ok]
    if not moves:
        moves, weights = ((-heading[0], -heading[1]),), [1.0]
    return moves, tuple(choice_cdf(np.array(weights) / sum(weights)))


class _Lanes:
    """Tables of one grid geometry (width, height, cell size): the column
    and row edges, the cell centers, and Manhattan's turn tables."""

    def __init__(self, grid: LocationMap):
        self.width, self.height = grid.width, grid.height
        self.col_edges = _edges(grid.width, grid.cell_size_m)
        self.row_edges = _edges(grid.height, grid.cell_size_m)
        self.centers = [tuple(c) for c in grid.centers().tolist()]
        self._turns: dict[tuple, tuple[tuple, tuple[float, ...]]] = {}

    def cell_at(self, x: float, y: float) -> int:
        """LocationMap.cell_at(x, y).id."""
        return (bisect_right(self.row_edges, y) * self.width
                + bisect_right(self.col_edges, x))

    def in_grid(self, col: int, row: int) -> bool:
        return 0 <= col < self.width and 0 <= row < self.height

    def turn_table(self, col: int, row: int, heading: tuple[int, int]
                   ) -> tuple[tuple, tuple[float, ...]]:
        """_turn_choices at the intersection (col, row) entered along
        heading, with the turns that stay in the grid open."""
        key = (col, row, heading)
        table = self._turns.get(key)
        if table is None:
            table = self._turns[key] = _turn_choices(heading, tuple(
                self.in_grid(col + d[0], row + d[1])
                for d in (rot(heading) for _, rot in _TURNS)))
        return table


_LANES: dict[tuple[int, int, float], _Lanes] = {}


def _lanes(grid: LocationMap) -> _Lanes:
    """The tables of grid's geometry, built on its first use in the
    process and kept."""
    key = (grid.width, grid.height, grid.cell_size_m)
    lanes = _LANES.get(key)
    if lanes is None:
        lanes = _LANES[key] = _Lanes(grid)
    return lanes


# the closed form trusts a count or crossing only on legs of at most
# _MAX_STRIDES strides and farther than _SLACK (relative) from an integer;
# see the module docstring for the bound
_MAX_STRIDES = 100_000
_SLACK = 1e-9


def _strides(dist: float, speed: float, limit: int) -> Optional[int]:
    """min(strides, limit), strides being the count of the loop rest -=
    speed while speed < rest from rest = dist: ceil(dist / speed) - 1,
    floored at 0. None where the closed form cannot vouch for it."""
    q = dist / speed  # inf for a speed far below dist's ulp
    if q > limit + 1:
        n = limit
    else:
        n = int(q)
        if q - n <= _SLACK * q or n + 1 - q <= _SLACK * q:
            return None
    return n if n <= _MAX_STRIDES else None


def _crossings(edges: tuple[float, ...], v: float, step: float, strides: int
               ) -> Optional[tuple[int, list[tuple[int, int]]]]:
    """_lane_changes in closed form: one division per edge crossed, and one
    for the first edge beyond the walk. None where a crossing lies within
    the slack of a stride, or the leg is too long to vouch for."""
    lane = bisect_right(edges, v)
    changes: list[tuple[int, int]] = []
    if not strides or step == 0.0:
        return lane, changes
    if strides > _MAX_STRIDES:
        return None
    # _SLACK * M / |step|, M = |v| + (strides + 1) * |step|
    slack = _SLACK * (abs(v / step) + strides + 1)
    if step > 0.0:  # at edges[c] lane c + 1 starts
        ahead, shift = range(lane, len(edges)), 1
    else:  # below edges[c] lane c starts
        ahead, shift = range(lane - 1, -1, -1), 0
    for c in ahead:
        t = (edges[c] - v) / step
        if t > strides + slack:
            break
        i = int(t)
        if t - i <= slack or i + 1 - t <= slack:
            return None
        changes.append((i + 1, c + shift))
    return lane, changes


def _lane_changes(edges: tuple[float, ...], v: float, step: float,
                  strides: int) -> tuple[int, list[tuple[int, int]]]:
    """The lane of v, and (stride, lane) wherever the lane of the positions
    v + step, v + 2 step, ... (sequential adds, strides of them) changes,
    in stride order, the stride counted from 1. The sequential walk that
    _crossings falls back to."""
    lane = bisect_right(edges, v)
    changes: list[tuple[int, int]] = []
    if strides and step > 0.0:
        vs = list(accumulate(repeat(step, strides), initial=v))
        for c in range(lane, len(edges)):  # at edges[c] lane c + 1 starts
            i = bisect_left(vs, edges[c], 1)
            if i > strides:
                break
            changes.append((i, c + 1))
    elif strides and step < 0.0:
        # negation is exact, so these are the positions negated, ascending
        vs = list(accumulate(repeat(-step, strides), initial=-v))
        for c in range(lane - 1, -1, -1):  # below edges[c] lane c starts
            i = bisect_right(vs, -edges[c], 1)
            if i > strides:
                break
            changes.append((i, c))
    return lane, changes


def _extend(cells: list[int], secs: list[int], cell: int, n: int) -> None:
    """Add n seconds in cell to the (cells, secs) runs."""
    if cells and cells[-1] == cell:
        secs[-1] += n
    else:
        cells.append(cell)
        secs.append(n)


def _leg(lanes: _Lanes, cells: list[int], secs: list[int], x: float,
         y: float, tx: float, ty: float, speed: float, limit: int) -> int:
    """Walk straight from (x, y) to (tx, ty) at speed in 1 s strides, the
    last stopping on the target, for at most limit (>= 1) seconds, and
    append the cells of the strides as (cells, secs) runs. Returns the
    seconds walked, 0 when already there.

    Every stride's cell is the one a stride-by-stride walk reaches. The
    stride count, ceil(dist / speed) - 1 floored at 0, and each moving
    axis's lane changes, at strides floor((edge - v) / step) + 1, come in
    closed form (_strides, _crossings), trusted only within the bound of
    the module docstring. Where it is not met, the count is the scalar
    rest -= speed loop and the axis a run of sequential float adds
    (_lane_changes), both cut at limit. So the work is O(1) per leg and
    per lane crossed, or at most O(limit) on the fallback.
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
        return 0
    strides = _strides(dist, speed, limit)
    if strides is None:
        strides = 0
        rest = dist
        while speed < rest and strides < limit:
            rest -= speed
            strides += 1
    sx, sy = dx / dist * speed, dy / dist * speed
    col, col_changes = (_crossings(lanes.col_edges, x, sx, strides)
                        or _lane_changes(lanes.col_edges, x, sx, strides))
    row, row_changes = (_crossings(lanes.row_edges, y, sy, strides)
                        or _lane_changes(lanes.row_edges, y, sy, strides))
    width = lanes.width
    cell = row * width + col
    if not row_changes:
        changes = [(i, cell - col + c) for i, c in col_changes]
    elif not col_changes:
        changes = [(i, cell + (r - row) * width) for i, r in row_changes]
    else:  # diagonal: a stable sort by stride keeps each axis's order
        changes = []
        for i, is_row, lane in sorted([(i, 0, c) for i, c in col_changes]
                                      + [(i, 1, r) for i, r in row_changes],
                                      key=itemgetter(0)):
            if is_row:
                row = lane
            else:
                col = lane
            changes.append((i, row * width + col))
    # of several changes at one stride, the last holds
    at = 1
    for i, next_cell in changes:
        if i > at:
            _extend(cells, secs, cell, i - at)
            at = i
        cell = next_cell
    if strides >= at:
        _extend(cells, secs, cell, strides + 1 - at)
    if strides == limit:  # the target's second lies past the limit
        return limit
    _extend(cells, secs, lanes.cell_at(tx, ty), 1)
    return strides + 1


def _visits(cells: list[int], secs: list[int], over: int) -> Trajectory:
    """Trajectory of the runs, less their last over seconds."""
    while over:
        if secs[-1] > over:
            secs[-1] -= over
            break
        over -= secs.pop()
        cells.pop()
    return Trajectory(tuple(cells), tuple(map(float, secs)))


def generate_random_waypoint(params: MobilityParams, grid: LocationMap) -> Trajectory:
    """Random-waypoint trajectory over the grid, 1 s resolution."""
    rng = np.random.default_rng(params.seed)
    steps = max(1, int(round(params.duration_s)))
    lanes = _lanes(grid)
    centers = lanes.centers
    x, y = centers[rng.integers(len(centers))]
    if len(centers) == 1:
        return Trajectory((0,), (float(steps),))
    cells, secs = [lanes.cell_at(x, y)], [1]
    walked = 1
    while walked < steps:
        # at a waypoint, the last run's cell: draw the next target (never
        # the current cell)
        target_cell = int(rng.integers(len(centers)))
        while target_cell == cells[-1]:
            target_cell = int(rng.integers(len(centers)))
        speed = uniform(rng, params.speed_min, params.speed_max)
        tx, ty = centers[target_cell]
        walked += _leg(lanes, cells, secs, x, y, tx, ty, speed,
                       steps - walked)
        pause = int(round(uniform(rng, 0.0, params.pause_max_s)))
        # the last run is the target's cell, or, after a leg cut at the
        # limit, a run whose pause _visits cuts again
        secs[-1] += pause
        walked += pause
        x, y = tx, ty
    return _visits(cells, secs, walked - steps)


# Manhattan draws its doubles in blocks of this many: an even count, so a
# leg's two (heading, speed) never straddle two blocks
_BLOCK = 64


def generate_manhattan(params: MobilityParams, grid: LocationMap) -> Trajectory:
    """Manhattan-lane trajectory: straight 0.5, left 0.25, right 0.25 at
    each intersection, restricted to in-grid moves; dead ends force a
    u-turn.

    Every leg moves one lane along one axis, between adjacent centers, so
    it is walked here on that axis alone, as _leg would walk it: the same
    count (_strides, or the rest -= speed loop), the same lane changes
    (_crossings, or _lane_changes) and the same runs. The other axis keeps
    its lane, and the target's second is the target's cell."""
    rng = np.random.default_rng(params.seed)
    steps = max(1, int(round(params.duration_s)))
    if len(grid) == 1:
        return Trajectory((0,), (float(steps),))
    lanes = _lanes(grid)
    width, size = grid.width, grid.cell_size_m
    col = int(rng.integers(grid.width))
    row = int(rng.integers(grid.height))
    options = [d for d in ((1, 0), (-1, 0), (0, 1), (0, -1))
               if lanes.in_grid(col + d[0], row + d[1])]
    heading = options[rng.integers(len(options))]
    # the doubles weighted_pick and uniform would draw one by one, in the
    # same order: the generator is the call's own, so those drawn past the
    # last leg are never seen
    lo, span = params.speed_min, params.speed_max - params.speed_min
    draws, at = rng.random(_BLOCK).tolist(), 0
    centers = lanes.centers
    col_edges, row_edges = lanes.col_edges, lanes.row_edges
    x, y = centers[row * width + col]
    cells, secs = [lanes.cell_at(x, y)], [1]
    walked = 1
    while walked < steps:
        # at an intersection: pick the next heading, then the next lane
        col = int(x / size)
        row = int(y / size)
        if at == _BLOCK:
            draws, at = rng.random(_BLOCK).tolist(), 0
        moves, cdf = lanes.turn_table(col, row, heading)
        heading = moves[bisect_right(cdf, draws[at])]
        speed = lo + span * draws[at + 1]
        at += 2
        target = (row + heading[1]) * width + col + heading[0]
        tx, ty = centers[target]
        # the moving axis: its edges, its coordinate and the target's, and
        # the cell id of its lane 0 with the other axis's lane kept
        if heading[0]:
            edges, v, t, unit, base = col_edges, x, tx, 1, row * width
        else:
            edges, v, t, unit, base = row_edges, y, ty, width, col
        dist = abs(t - v)
        if dist == 0.0:  # a subnormal cell size can round two centers
            continue     # into one; _leg walks no second then
        limit = steps - walked
        strides = _strides(dist, speed, limit)
        if strides is None:
            strides = 0
            rest = dist
            while speed < rest and strides < limit:
                rest -= speed
                strides += 1
        # (t - v) / dist is +-1.0 exactly
        step = speed if t > v else -speed
        lane, changes = (_crossings(edges, v, step, strides)
                         or _lane_changes(edges, v, step, strides))
        cell = base + lane * unit
        # of several changes at one stride, the last holds
        done = 1
        for i, c in changes:
            if i > done:
                if cells[-1] == cell:
                    secs[-1] += i - done
                else:
                    cells.append(cell)
                    secs.append(i - done)
                done = i
            cell = base + c * unit
        if strides >= done:
            if cells[-1] == cell:
                secs[-1] += strides + 1 - done
            else:
                cells.append(cell)
                secs.append(strides + 1 - done)
        if strides == limit:  # the target's second lies past the limit
            walked += limit
        else:
            if cells[-1] == target:
                secs[-1] += 1
            else:
                cells.append(target)
                secs.append(1)
            walked += strides + 1
        x, y = tx, ty
    return _visits(cells, secs, walked - steps)


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
