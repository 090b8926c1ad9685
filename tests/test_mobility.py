"""Mobility generators: determinism, timing, turn statistics, uncertainty."""

import hashlib
import time
import tracemalloc
from bisect import bisect_right
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tieralloc import (LTW, LTWEntry, LocationMap, MobilityParams, Scenario,
                       UncertaintySpec, build_deployment, build_population,
                       generate_manhattan, generate_random_waypoint,
                       generate_trajectory, inject_uncertainty, leaf,
                       load_scenario, seq)
from tieralloc import mobility
from tieralloc.mobility import (_lanes, _leg, choice_cdf, uniform,
                                weighted_pick)
from tieralloc.model import Trajectory

GRID = LocationMap(10, 10, 50.0)
DEMO_SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"


def _params(model, **kw):
    defaults = dict(duration_s=600.0, speed_min=1.0, speed_max=10.0,
                    pause_max_s=10.0, seed=3)
    defaults.update(kw)
    return MobilityParams(model=model, **defaults)


# --- generators ---------------------------------------------------------------------

@pytest.mark.parametrize("model", ["random_waypoint", "manhattan"])
def test_trajectories_are_seed_deterministic(model):
    a = generate_trajectory(_params(model), GRID)
    b = generate_trajectory(_params(model), GRID)
    c = generate_trajectory(_params(model, seed=4), GRID)
    assert a == b
    assert a != c


@pytest.mark.parametrize("model", ["random_waypoint", "manhattan"])
def test_dwells_sum_to_duration_and_cells_are_valid(model):
    for seed in range(5):
        traj = generate_trajectory(_params(model, seed=seed, duration_s=300.0), GRID)
        assert traj.duration() == 300.0
        for cell, dwell in zip(traj.cells, traj.dwells):
            assert 0 <= cell < len(GRID)
            assert dwell >= 1.0
        # run-length compression leaves no adjacent repeats
        for prev, cur in zip(traj.cells, traj.cells[1:]):
            assert prev != cur


@pytest.mark.parametrize("model", ["random_waypoint", "manhattan"])
def test_single_cell_grid_yields_one_stationary_entry(model):
    tiny = LocationMap(1, 1, 10.0)
    traj = generate_trajectory(_params(model, duration_s=42.0), tiny)
    assert (traj.cells, traj.dwells) == ((0,), (42.0,))


def _leg_runs(grid, x, y, tx, ty, speed, limit=10**9):
    """The (cell, seconds) runs _leg appends for one leg over grid."""
    cells, secs = [], []
    walked = _leg(_lanes(grid), cells, secs, x, y, tx, ty, speed, limit)
    assert walked == sum(secs)
    return list(zip(cells, secs))


def _runs_of(grid, positions):
    """Run-length encoded LocationMap.cell_at cells of 1 s positions."""
    runs = []
    for px, py in positions:
        cell = grid.cell_at(px, py).id
        if runs and runs[-1][0] == cell:
            runs[-1] = (cell, runs[-1][1] + 1)
        else:
            runs.append((cell, 1))
    return runs


def test_walk_steps_cover_the_leg_in_one_second_strides():
    metre = LocationMap(12, 1, 1.0)  # a position's cell is its whole metres
    coarse = LocationMap(3, 1, 4.0)
    cases = [((0.0, 0.0, 10.0, 0.0, 3.0), [(3.0, 0.0), (6.0, 0.0),
                                           (9.0, 0.0), (10.0, 0.0)]),
             ((0.0, 0.0, 10.0, 0.0, 5.0), [(5.0, 0.0), (10.0, 0.0)]),
             # overshoot clamps to the target in a single stride
             ((0.0, 0.0, 2.0, 0.0, 9.0), [(2.0, 0.0)]),
             ((10.0, 0.0, 0.0, 0.0, 3.0), [(7.0, 0.0), (4.0, 0.0),
                                           (1.0, 0.0), (0.0, 0.0)]),
             ((0.0, 0.0, 0.0, 0.0, 5.0), [])]
    for leg, positions in cases:
        for grid in (metre, coarse):
            assert _leg_runs(grid, *leg) == _runs_of(grid, positions)
    assert _leg_runs(metre, 0.0, 0.0, 10.0, 0.0, 3.0) == [
        (3, 1), (6, 1), (9, 1), (10, 1)]
    assert _leg_runs(coarse, 0.0, 0.0, 10.0, 0.0, 3.0) == [
        (0, 1), (1, 1), (2, 2)]


def test_uniform_draws_like_generator_uniform():
    bounds = ((1.0, 10.0), (0.0, 10.0), (0.0, 0.0), (0.5, 0.5),
              (3.3, 17.9), (1e-3, 2e3))
    for seed, (lo, hi) in enumerate(bounds):
        ours, numpy = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [uniform(ours, lo, hi) for _ in range(15000)]
        assert got == [numpy.uniform(lo, hi) for _ in range(15000)]
        assert ours.bit_generator.state == numpy.bit_generator.state


def _stride_positions(x, y, tx, ty, speed):
    """The 1 s positions of a leg walked stride by stride: the np.hypot
    distance, the rest -= speed loop, sequential adds, the target last."""
    dx, dy = tx - x, ty - y
    dist = float(np.hypot(dx, dy))
    steps, rest, px, py = [], dist, x, y
    if dist:
        while speed < rest:
            rest -= speed
            px += dx / dist * speed
            py += dy / dist * speed
            steps.append((px, py))
        steps.append((tx, ty))
    return steps


def test_axis_aligned_legs_measure_like_hypot():
    # lanes of 12.5 m, of 77.7 m (clamping past 700 m), and of 3.3 m, which
    # a stride can cross several of; negative positions clamp to lane 0
    grids = (LocationMap(70, 70, 12.5), LocationMap(9, 9, 77.7),
             LocationMap(250, 250, 3.3))
    rng = np.random.default_rng(8)
    for k in range(2000):
        x, y = (float(v) for v in rng.uniform(-500.0, 500.0, 2))
        d = float(rng.uniform(-300.0, 300.0)) if k % 10 else 0.0
        speed = float(rng.uniform(0.5, 15.0))
        for tx, ty in ((x + d, y), (x, y + d)):
            steps = _stride_positions(x, y, tx, ty, speed)
            for grid in grids:
                assert _leg_runs(grid, x, y, tx, ty, speed) == \
                    _runs_of(grid, steps)


def test_diagonal_legs_cross_lanes_like_the_stride_walk():
    # lanes narrower than a stride: one stride can cross several columns
    # and rows at once, in either direction
    grids = (LocationMap(120, 120, 2.5), LocationMap(40, 40, 7.7))
    rng = np.random.default_rng(9)
    for _ in range(1000):
        x, y, tx, ty = (float(v) for v in rng.uniform(0.0, 300.0, 4))
        speed = float(rng.uniform(0.5, 15.0))
        steps = _stride_positions(x, y, tx, ty, speed)
        for grid in grids:
            assert _leg_runs(grid, x, y, tx, ty, speed) == \
                _runs_of(grid, steps)


@pytest.fixture
def walk_spy(monkeypatch):
    """Counts how legs were walked: counts and axes in closed form, and
    counts and axes that fell back to the sequential walk."""
    seen = {"closed counts": 0, "loop counts": 0, "closed axes": 0,
            "sequential axes": 0}
    strides, crossings = mobility._strides, mobility._crossings
    lane_changes = mobility._lane_changes

    def spy_strides(*args):
        n = strides(*args)
        seen["closed counts" if n is not None else "loop counts"] += 1
        return n

    def spy_crossings(*args):
        found = crossings(*args)
        if found is not None and found[1]:
            seen["closed axes"] += 1
        return found

    def spy_lane_changes(*args):
        seen["sequential axes"] += 1
        return lane_changes(*args)

    monkeypatch.setattr(mobility, "_strides", spy_strides)
    monkeypatch.setattr(mobility, "_crossings", spy_crossings)
    monkeypatch.setattr(mobility, "_lane_changes", spy_lane_changes)
    return seen


def _near_boundary_legs():
    """(grid, leg) pairs whose strides land on or next to lane edges."""
    rng = np.random.default_rng(21)
    ten, narrow = LocationMap(12, 12, 10.0), LocationMap(120, 120, 2.5)
    centers = [5.0 + 10.0 * c for c in range(12)]
    # integer speeds that divide the cell size, center to center: strides
    # land exactly on edges, and the leg is a whole number of strides
    for speed in (1.0, 2.0, 5.0, 10.0):
        for _ in range(40):
            x, y, tx, ty = (float(rng.choice(centers)) for _ in range(4))
            for leg in ((x, y, tx, y), (x, y, x, ty), (x, y, tx, ty)):
                yield ten, (*leg, speed)
    # decimal speeds that divide the cell size in real numbers: the float
    # adds land within an ulp or so of an edge, on either side of it
    for speed in (0.1, 0.3, 0.7, 1.1, 2.2, 3.3, 0.4, 0.6):
        for _ in range(10):
            x, y, tx, ty = (float(rng.choice(centers)) for _ in range(4))
            for leg in ((x, y, tx, y), (x, y, x, ty), (x, y, tx, ty)):
                yield ten, (*leg, speed)
    # legs that start on an edge, up or down, along or across the grid
    for _ in range(200):
        x = 10.0 * float(rng.integers(1, 12))
        y = float(rng.uniform(0.0, 120.0))
        tx, ty = (float(v) for v in rng.uniform(-20.0, 140.0, 2))
        speed = float(rng.choice([2.5, 5.0, float(rng.uniform(0.5, 15.0))]))
        yield ten, (x, y, tx, y, speed)
        yield ten, (x, y, tx, ty, speed)
        yield ten, (y, x, y, ty, speed)
    # negative coordinates: walks within, into and out of lane 0's clamp
    for _ in range(200):
        x, y = (float(v) for v in rng.uniform(-200.0, 0.0, 2))
        tx, ty = (float(v) for v in rng.uniform(-200.0, 150.0, 2))
        speed = float(rng.uniform(0.5, 15.0))
        yield ten, (x, y, tx, ty, speed)
        yield ten, (x, y, tx, y, speed)
    # lanes narrower than a stride, at drawn and at whole speeds
    for _ in range(200):
        x, y, tx, ty = (float(v) for v in rng.uniform(-10.0, 310.0, 4))
        speed = float(rng.choice([5.0, 7.5, float(rng.uniform(2.6, 15.0))]))
        yield narrow, (x, y, tx, ty, speed)
        yield narrow, (x, y, x, ty, speed)


def test_near_boundary_legs_equal_the_stride_walk(walk_spy):
    for grid, leg in _near_boundary_legs():
        steps = _stride_positions(*leg)
        assert _leg_runs(grid, *leg) == _runs_of(grid, steps), leg
        # cut at the seconds a trajectory still needs, the same runs as
        # the first limit seconds of the whole leg
        for limit in {1, max(1, len(steps) // 2), len(steps) - 1}:
            if limit:
                assert _leg_runs(grid, *leg, limit=limit) == \
                    _runs_of(grid, steps[:limit]), (leg, limit)
    # both the closed form and its sequential fallback were exercised
    assert walk_spy["closed counts"] > 100 and walk_spy["loop counts"] > 100
    assert walk_spy["closed axes"] > 100 and walk_spy["sequential axes"] > 100


def test_legs_past_the_stride_bound_take_the_capped_sequential_walk(
        walk_spy):
    # 100 m at 0.41 mm/s is some 244k strides, more than the closed form
    # vouches for: the count loop and the adds walk it, cut at the limit
    grid = LocationMap(12, 12, 10.0)
    leg = (7.5, 5.0, 107.5, 5.0, 4.1e-4)
    steps = _stride_positions(*leg)
    limit = 150_000
    assert len(steps) > limit > mobility._MAX_STRIDES
    assert _leg_runs(grid, *leg, limit=limit) == \
        _runs_of(grid, steps[:limit])
    assert walk_spy["loop counts"] == 1
    assert walk_spy["sequential axes"] == 1


def test_tiny_speeds_walk_only_the_seconds_the_trajectory_keeps():
    # build the grid's tables outside the traced span
    for model in ("random_waypoint", "manhattan"):
        generate_trajectory(_params(model, duration_s=60.0), GRID)
    # at 1 mm/s a random-waypoint leg is some 10^5 strides, far past the
    # 60 s kept: walking it whole took megabytes
    slow = dict(duration_s=60.0, speed_min=1e-3, speed_max=1e-3)
    tracemalloc.start()
    try:
        for model in ("random_waypoint", "manhattan"):
            generate_trajectory(_params(model, **slow), GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # at 1 um/s: one stationary entry of the whole duration, fast
    tiny = dict(duration_s=60.0, speed_min=1e-6, speed_max=1e-6)
    start = time.perf_counter()
    for model in ("random_waypoint", "manhattan"):
        for seed in range(5):
            traj = generate_trajectory(_params(model, seed=seed, **tiny),
                                       GRID)
            assert len(traj) == 1
            assert traj.dwells[0] == 60.0
    assert time.perf_counter() - start < 1.0
    sc = replace(load_scenario(DEMO_SCENARIOS / "desk.json"),
                 speed_min=1e-6, speed_max=1e-6)
    pop = build_population(sc, build_deployment(sc), 0)
    assert [len(u.trajectory) for u in pop.users.values()] == \
        [1] * sc.users


# sha256 of every trajectory (repetition, user id, cell, dwell) of each
# repetition of the default and group_trend scenarios, pinned from the
# stride-by-stride walk
TRAJECTORY_DIGESTS = {
    ("default", 0): "d76759a6a39aa46efb4f46dfbb94c8db96658e76dff6340d7ab4b1b6747e3c26",
    ("default", 1): "2b6642648788aec5b8cd9f4490b10fafa79c9a6da776d70ab747038a81acbf85",
    ("default", 2): "7d6191a478f9440ebd2c06b3d48c280bd9c950840ca1a182f6ff67abe6db7d6a",
    ("group_trend", 0): "93b6cd61676df16cc715304bec7bfc3e501a9b22aba9410da619b8945ec151bd",
    ("group_trend", 1): "5719174dc72d8ab4aa2ed616c67baad6d71025c4f28691c9e63de9e07d3ba36f",
    ("group_trend", 2): "1ccf1d9600e746a5695152b663e6c99ca74e518c97d8e4ec3dfce89499f45342",
}


@pytest.mark.parametrize("name,seed", sorted(TRAJECTORY_DIGESTS))
def test_population_trajectories_match_the_pinned_digests(name, seed):
    base = (Scenario() if name == "default"
            else load_scenario(DEMO_SCENARIOS / "group_trend.json"))
    sc = replace(base, seed=seed)
    dep = build_deployment(sc)
    digest = hashlib.sha256()
    for rep in range(sc.repetitions):
        users = build_population(sc, dep, rep).users
        for uid in sorted(users):
            traj = users[uid].trajectory
            for cell, dwell in zip(traj.cells, traj.dwells):
                digest.update(f"{rep} {uid} {cell} {dwell!r}\n".encode())
    assert digest.hexdigest() == TRAJECTORY_DIGESTS[(name, seed)]


# --- whole-leg walks against the stride-by-stride walk they replaced -----------------

def _ref_walk_steps(pos, target, speed):
    """Positions after each 1 s step, as the generators once stepped them."""
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


def _ref_compress(cell_ids):
    cells, dwells = [], []
    run_cell, run_len = cell_ids[0], 0
    for cid in cell_ids:
        if cid == run_cell:
            run_len += 1
        else:
            cells.append(run_cell)
            dwells.append(float(run_len))
            run_cell, run_len = cid, 1
    cells.append(run_cell)
    dwells.append(float(run_len))
    return Trajectory(tuple(cells), tuple(dwells))


def _ref_random_waypoint(params, grid):
    """Random waypoint one step at a time: cell_at per step, leg.pop(0)."""
    rng = np.random.default_rng(params.seed)
    steps = max(1, int(round(params.duration_s)))
    centers = grid.centers()
    pos = centers[rng.integers(len(centers))].copy()
    if len(centers) == 1:
        return Trajectory((0,), (float(steps),))
    cells, pause_left, leg = [], 0, []
    while len(cells) < steps:
        cells.append(grid.cell_at(pos[0], pos[1]).id)
        if pause_left > 0:
            pause_left -= 1
            continue
        if not leg:
            cur = grid.cell_at(pos[0], pos[1]).id
            target_cell = int(rng.integers(len(centers)))
            while target_cell == cur:
                target_cell = int(rng.integers(len(centers)))
            speed = rng.uniform(params.speed_min, params.speed_max)
            leg = _ref_walk_steps(pos, centers[target_cell], speed)
        pos = leg.pop(0)
        if not leg:
            pause_left = int(round(rng.uniform(0.0, params.pause_max_s)))
    return _ref_compress(cells)


def _ref_manhattan(params, grid):
    """Manhattan one step at a time, turning with Generator.choice."""
    turns = ((0.5, lambda d: d), (0.25, lambda d: (-d[1], d[0])),
             (0.25, lambda d: (d[1], -d[0])))
    rng = np.random.default_rng(params.seed)
    steps = max(1, int(round(params.duration_s)))
    if len(grid) == 1:
        return Trajectory((0,), (float(steps),))

    def in_grid(col, row):
        return 0 <= col < grid.width and 0 <= row < grid.height

    col = int(rng.integers(grid.width))
    row = int(rng.integers(grid.height))
    options = [d for d in ((1, 0), (-1, 0), (0, 1), (0, -1))
               if in_grid(col + d[0], row + d[1])]
    heading = options[rng.integers(len(options))]
    pos = grid.centers()[row * grid.width + col].copy()
    cells, leg = [], []
    while len(cells) < steps:
        cells.append(grid.cell_at(pos[0], pos[1]).id)
        if not leg:
            col = int(pos[0] / grid.cell_size_m)
            row = int(pos[1] / grid.cell_size_m)
            moves, weights = [], []
            for w, rot in turns:
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
            leg = _ref_walk_steps(pos, target, speed)
        pos = leg.pop(0)
    return _ref_compress(cells)


@pytest.mark.parametrize("width,height", [(15, 15), (6, 6), (1, 5), (3, 1),
                                          (7, 4)])
def test_whole_leg_walks_equal_the_stride_by_stride_reference(width, height):
    rng = np.random.default_rng(width * 100 + height)
    cases = 0
    for size in (100.0, 50.0, 33.3, 77.7):
        grid = LocationMap(width, height, size)
        for k in range(12):
            speed_min = float(rng.uniform(0.5, 15.0))
            speed_max = (speed_min if k % 4 == 0
                         else speed_min + float(rng.uniform(0.0, 15.0)))
            pause = 0.0 if k % 3 == 0 else float(rng.uniform(0.0, 20.0))
            duration = float(rng.integers(1, 400))
            seed = int(rng.integers(2**31))
            for model, ref in (("random_waypoint", _ref_random_waypoint),
                               ("manhattan", _ref_manhattan)):
                params = MobilityParams(model, duration_s=duration,
                                        speed_min=speed_min,
                                        speed_max=speed_max,
                                        pause_max_s=pause, seed=seed)
                got = generate_trajectory(params, grid)
                assert got == ref(params, grid), params
                assert all(type(c) is int for c in got.cells)
                cases += 1
    assert cases == 96


def test_manhattan_walks_boundary_legs_like_the_stride_walk(walk_spy):
    """generate_manhattan walks its own legs: on 10 m cells at whole
    speeds that divide the cell (strides land on edges, legs are whole
    numbers of strides), at decimal speeds that do so in real numbers (the
    float adds land an ulp or so from an edge), over durations that end
    mid-leg, and on grids whose walls force u-turns."""
    for width, height in ((1, 5), (3, 1), (2, 2), (12, 12)):
        grid = LocationMap(width, height, 10.0)
        for speed in (1.0, 2.0, 5.0, 10.0, 0.1, 0.3, 1.1, 3.3):
            for duration in (1.0, 37.0, 250.0, 401.0):
                for seed in range(3):
                    params = MobilityParams("manhattan", duration_s=duration,
                                            speed_min=speed, speed_max=speed,
                                            seed=seed)
                    assert generate_manhattan(params, grid) == \
                        _ref_manhattan(params, grid), params
    # both the closed form and its sequential fallback were exercised
    assert walk_spy["closed counts"] > 100 and walk_spy["loop counts"] > 100
    assert walk_spy["closed axes"] > 100 and walk_spy["sequential axes"] > 100


def test_lane_edges_are_the_least_doubles_of_each_lane():
    # c * size misses the edge by an ulp either way for some sizes: 3 * 77.7
    # lies above 233.1, whose quotient already truncates to 3; 3 * 3.3 lies
    # below 9.9, and its own quotient truncates to 2
    for size in (100.0, 33.3, 77.7, 3.3, 0.1, 0.3, 100.0 / 3.0, 7.7):
        grid = LocationMap(150, 3, size)
        lanes = _lanes(grid)
        for edges, n in ((lanes.col_edges, 150), (lanes.row_edges, 3)):
            assert len(edges) == n - 1
            for c, v in enumerate(edges, start=1):
                assert int(v / size) >= c
                assert int(np.nextafter(v, -np.inf) / size) < c
        for v in (*lanes.col_edges, *np.nextafter(lanes.col_edges, 0.0),
                  -1.0, 0.0, 150 * size, 1e9):
            assert lanes.cell_at(float(v), 1.5 * size) == \
                grid.cell_at(float(v), 1.5 * size).id
    assert 3 * 77.7 > 233.1 and int(233.1 / 77.7) == 3
    assert _lanes(LocationMap(9, 9, 77.7)).cell_at(233.1, 0.0) == 3
    assert int(3 * 3.3 / 3.3) == 2
    assert _lanes(LocationMap(9, 9, 3.3)).cell_at(3 * 3.3, 0.0) == 2


def test_default_scale_walks_equal_the_reference_per_grid_geometry():
    grid = LocationMap(15, 15, 100.0)
    for model, ref in (("random_waypoint", _ref_random_waypoint),
                       ("manhattan", _ref_manhattan)):
        for seed in range(100):
            params = MobilityParams(model, duration_s=600.0, seed=seed)
            assert generate_trajectory(params, grid) == \
                ref(params, grid), params
    # grids that differ in one dimension or in cell size, walked in turn in
    # one process, each keep their own edges and turn tables
    grids = [grid, LocationMap(15, 15, 50.0), LocationMap(14, 15, 100.0),
             LocationMap(15, 14, 100.0), LocationMap(15, 15, 100.0 + 1e-9)]
    for seed in range(20):
        for g in grids:
            for model, ref in (("random_waypoint", _ref_random_waypoint),
                               ("manhattan", _ref_manhattan)):
                params = MobilityParams(model, duration_s=600.0, seed=seed)
                assert generate_trajectory(params, g) == \
                    ref(params, g), (g.width, g.height, params)
    tables = [_lanes(g) for g in grids]
    assert len({id(t) for t in tables}) == len(grids)
    for g, t in zip(grids, tables):
        assert (len(t.col_edges), len(t.row_edges)) == (g.width - 1,
                                                        g.height - 1)
        assert t.col_edges[0] == g.cell_size_m  # exact for these sizes
    # straight on from column 13 leaves a 14-wide grid, not a 15-wide one
    east = (1, 0)
    assert east in tables[0].turn_table(13, 7, east)[0]
    assert east not in tables[2].turn_table(13, 7, east)[0]
    # only the geometry keys the tables: a coverage map does not
    assert _lanes(LocationMap(grid.width, grid.height, grid.cell_size_m,
                              {0: 0})) is tables[0]


def _turn_weight_subsets():
    weights = (0.5, 0.25, 0.25)
    subsets = [tuple(w for w, keep in zip(weights, mask) if keep)
               for mask in np.ndindex(2, 2, 2) if any(mask)]
    return subsets + [(1.0,)]


def test_weighted_pick_draws_like_generator_choice():
    mixes = [np.array(w) / sum(w) for w in _turn_weight_subsets()]
    rng = np.random.default_rng(11)
    for _ in range(200):  # random template mixes, zero weights included
        w = rng.random(int(rng.integers(1, 6)))
        w[rng.random(len(w)) < 0.3] = 0.0
        if w.sum() > 0:
            mixes.append(w / w.sum())
    for i, p in enumerate(mixes):
        cdf = choice_cdf(p)
        ours, theirs = np.random.default_rng(i), np.random.default_rng(i)
        for _ in range(50):
            assert weighted_pick(cdf, ours) == theirs.choice(len(p), p=p)
        # both consumed the same stretch of the stream
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_block_draws_equal_scalar_draws_after_integer_draws():
    """generate_manhattan reads its doubles from rng.random(64) blocks
    after its integers draws. That equals successive rng.random() calls, in
    the values and in the generator state after them, and a heading and a
    speed read from the block equal weighted_pick's and uniform's."""
    cdfs = [choice_cdf(np.array(w) / sum(w)) for w in _turn_weight_subsets()]
    for seed in range(40):
        rngs = [np.random.default_rng(seed) for _ in range(3)]
        # one to five integers draws, some of them 64-bit
        bounds = [(7, 2**40, 3, 1, 12)[k] for k in range(seed % 5 + 1)]
        for rng in rngs:
            for bound in bounds:
                rng.integers(bound)
        block, scalar, picks = rngs
        draws = block.random(64).tolist() + block.random(64).tolist()
        assert draws == [scalar.random() for _ in range(128)]
        assert block.bit_generator.state == scalar.bit_generator.state
        lo, hi = (1.0, 10.0) if seed % 2 else (0.3, 0.3)
        for k in range(64):
            cdf = cdfs[k % len(cdfs)]
            assert bisect_right(cdf, draws[2 * k]) == weighted_pick(cdf, picks)
            assert lo + (hi - lo) * draws[2 * k + 1] == uniform(picks, lo, hi)
        assert picks.bit_generator.state == block.bit_generator.state


def test_manhattan_moves_along_lanes_between_adjacent_cells():
    traj = generate_manhattan(_params("manhattan", duration_s=2000.0), GRID)
    for prev, cur in zip(traj.cells, traj.cells[1:]):
        dc = abs(cur % GRID.width - prev % GRID.width)
        dr = abs(cur // GRID.width - prev // GRID.width)
        assert dc + dr == 1


def test_manhattan_interior_turn_frequencies():
    # fixed speed = cell size per second: one intersection decision per step
    grid = LocationMap(12, 12, 10.0)
    counts = {"straight": 0, "left": 0, "right": 0}
    for seed in range(4):
        traj = generate_manhattan(
            MobilityParams("manhattan", duration_s=12000.0, speed_min=10.0,
                           speed_max=10.0, seed=seed), grid)
        rc = [(c % grid.width, c // grid.width) for c in traj.cells]
        for i in range(1, len(rc) - 1):
            col, row = rc[i]
            if not (0 < col < grid.width - 1 and 0 < row < grid.height - 1):
                continue  # boundary decisions are renormalized, skip them
            d_in = (rc[i][0] - rc[i - 1][0], rc[i][1] - rc[i - 1][1])
            d_out = (rc[i + 1][0] - rc[i][0], rc[i + 1][1] - rc[i][1])
            if d_out == d_in:
                counts["straight"] += 1
            elif d_out == (-d_in[1], d_in[0]):
                counts["left"] += 1
            elif d_out == (d_in[1], -d_in[0]):
                counts["right"] += 1
            else:
                raise AssertionError(f"interior u-turn {d_in} -> {d_out}")
    total = sum(counts.values())
    assert total > 10_000
    assert counts["straight"] / total == pytest.approx(0.5, abs=0.05)
    assert counts["left"] / total == pytest.approx(0.25, abs=0.05)
    assert counts["right"] / total == pytest.approx(0.25, abs=0.05)


def test_mobility_params_validation():
    with pytest.raises(ValueError):
        MobilityParams("levy_flight", duration_s=10.0)
    with pytest.raises(ValueError):
        MobilityParams("manhattan", duration_s=0.0)
    with pytest.raises(ValueError):
        MobilityParams("manhattan", duration_s=10.0, speed_min=5.0, speed_max=1.0)
    with pytest.raises(ValueError):
        MobilityParams("manhattan", duration_s=10.0, pause_max_s=-1.0)


# --- prediction uncertainty ---------------------------------------------------------

class _Template:
    """Minimal template stub: a name and a fresh two-step workflow per draw."""

    def __init__(self, name):
        self.name = name

    def instantiate(self, rng):
        return seq(leaf(f"{self.name}_a", 1.0), leaf(f"{self.name}_b", 1.0))


TEMPLATES = [_Template("alpha"), _Template("beta")]


def _ltw(n, template="alpha", cell=0):
    entries = tuple(LTWEntry(cell, 60.0, TEMPLATES[0].instantiate(None),
                             template=template) for _ in range(n))
    return LTW(entries)


def test_zero_rate_returns_the_same_entry_objects():
    ltw = _ltw(8)
    rng = np.random.default_rng(0)
    out = inject_uncertainty(ltw, UncertaintySpec(rate=0.0), GRID, TEMPLATES, rng)
    assert all(a is b for a, b in zip(out.entries, ltw.entries))


def test_full_rate_location_mode_moves_every_entry():
    ltw = _ltw(50, cell=7)
    rng = np.random.default_rng(1)
    out = inject_uncertainty(ltw, UncertaintySpec(rate=1.0, mode="location"),
                             GRID, TEMPLATES, rng)
    for src, dst in zip(ltw.entries, out.entries):
        assert dst.cell_id != src.cell_id
        assert 0 <= dst.cell_id < len(GRID)
        assert dst.workflow is src.workflow  # the requested work is unchanged
        assert dst.template == src.template
        assert dst.window_s == src.window_s


def test_full_rate_service_mode_swaps_to_a_different_template():
    ltw = _ltw(50, template="alpha", cell=3)
    rng = np.random.default_rng(2)
    out = inject_uncertainty(ltw, UncertaintySpec(rate=1.0, mode="service"),
                             GRID, TEMPLATES, rng)
    for src, dst in zip(ltw.entries, out.entries):
        assert dst.cell_id == src.cell_id
        assert dst.template == "beta"
        assert dst.workflow is not src.workflow


def test_full_rate_both_mode_changes_location_or_service():
    ltw = _ltw(60, cell=5)
    rng = np.random.default_rng(3)
    out = inject_uncertainty(ltw, UncertaintySpec(rate=1.0, mode="both"),
                             GRID, TEMPLATES, rng)
    moved = swapped = 0
    for src, dst in zip(ltw.entries, out.entries):
        if dst.cell_id != src.cell_id:
            moved += 1
        elif dst.template != src.template:
            swapped += 1
        else:
            raise AssertionError("entry survived a rate-1.0 rewrite")
    assert moved > 0 and swapped > 0


def test_partial_rate_rewrites_a_binomial_fraction():
    ltw = _ltw(2000, cell=9)
    rng = np.random.default_rng(4)
    out = inject_uncertainty(ltw, UncertaintySpec(rate=0.3, mode="location"),
                             GRID, TEMPLATES, rng)
    changed = sum(1 for a, b in zip(ltw.entries, out.entries) if a is not b)
    assert changed / 2000 == pytest.approx(0.3, abs=0.05)


def test_input_ltw_is_never_modified():
    ltw = _ltw(30, cell=2)
    before = tuple(ltw.entries)
    fields = [(e.cell_id, e.window_s, e.workflow, e.template) for e in ltw.entries]
    rng = np.random.default_rng(5)
    inject_uncertainty(ltw, UncertaintySpec(rate=1.0, mode="both"),
                       GRID, TEMPLATES, rng)
    assert ltw.entries == before
    assert [(e.cell_id, e.window_s, e.workflow, e.template)
            for e in ltw.entries] == fields


def test_uncertainty_spec_validation_and_template_requirement():
    with pytest.raises(ValueError):
        UncertaintySpec(rate=1.5)
    with pytest.raises(ValueError):
        UncertaintySpec(rate=0.5, mode="weather")
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        inject_uncertainty(_ltw(3), UncertaintySpec(rate=0.5), GRID, [], rng)
