"""Grid geometry, trajectories, and mobility centers."""

import math

import numpy as np
import pytest

from tieralloc import (CloudNode, InvalidGroup, InvalidTrajectory,
                       LocationMap, MobileUser, Service, Trajectory,
                       UserGroup, center_of_group_mobility,
                       center_of_mobility)
from tieralloc.model import mean_position


def trajectory_from_pairs(pairs):
    """A trajectory of (cell id, dwell seconds) visits."""
    return Trajectory(tuple(c for c, _ in pairs), tuple(d for _, d in pairs))


def test_grid_is_row_major_with_half_cell_centers():
    grid = LocationMap(3, 2, 10.0)
    assert len(grid) == 6
    for row in range(2):
        for col in range(3):
            cell = grid.cell(row * 3 + col)
            assert cell.id == row * 3 + col
            assert cell.center == ((col + 0.5) * 10.0, (row + 0.5) * 10.0)


def test_cell_lookup_rejects_unknown_ids():
    grid = LocationMap(2, 2, 1.0)
    with pytest.raises(KeyError):
        grid.cell(4)
    with pytest.raises(KeyError):
        grid.cell(-1)


@pytest.mark.parametrize("cell_id", [1.0, 1.5, "3", True])
def test_cell_lookup_rejects_ids_that_are_no_integer(cell_id):
    grid = LocationMap(2, 2, 1.0)
    with pytest.raises(KeyError, match="no cell with id"):
        grid.cell(cell_id)


def test_cell_lookup_takes_a_numpy_integer_id():
    grid = LocationMap(2, 2, 1.0)
    assert grid.cell(np.int64(3)) is grid.cell(3)


def test_cell_at_matches_arithmetic_oracle_and_clamps():
    grid = LocationMap(4, 3, 7.5)
    rng = np.random.default_rng(0)
    for _ in range(500):
        x = rng.uniform(-5.0, 40.0)
        y = rng.uniform(-5.0, 30.0)
        col = min(max(int(math.floor(x / 7.5)), 0), 3)
        row = min(max(int(math.floor(y / 7.5)), 0), 2)
        assert grid.cell_at(x, y).id == row * 4 + col
    assert grid.cell_at(30.0, 22.5).id == 11  # far corner clamps in
    assert grid.cell_at(-3.0, -3.0).id == 0


def test_nearest_cell_matches_linear_scan_with_low_id_ties():
    grid = LocationMap(5, 4, 3.0)
    rng = np.random.default_rng(1)
    for _ in range(400):
        p = (rng.uniform(-2.0, 17.0), rng.uniform(-2.0, 14.0))
        best = min(grid.cells, key=lambda c: (math.dist(c.center, p), c.id))
        assert grid.nearest_cell(p).id == best.id
    midpoint = ((grid.cell(0).center[0] + grid.cell(1).center[0]) / 2.0,
                grid.cell(0).center[1])
    assert grid.nearest_cell(midpoint).id == 0


def _numpy_nearest(grid, point):
    """The nearest cell by numpy's formula: np.argmin over every cell."""
    d2 = np.sum((grid.centers() - np.asarray(point, dtype=float)) ** 2,
                axis=1)
    return int(np.argmin(d2))


def test_centers_equal_the_numpy_formulas():
    """The plain-float centers against the numpy formulas they stand for,
    bit for bit: mean_position against (w[:, None] * points).sum(axis=0)
    / w.sum() for trajectories of 1 to 300 visits, nearest_cell and
    center_of_mobility against np.argmin of the squared distances to every
    cell (random points, exact midpoints between cells, corners, points
    outside the grid), and center_of_group_mobility against the members'
    cell centers' pts.mean(axis=0), on random grids from 1 x 1 to 20 x 20
    at several cell sizes."""
    rng = np.random.default_rng(21)
    seen = {"tie": 0, "outside": 0, "group": 0}
    for case in range(300):
        w, h = (int(v) for v in rng.integers(1, 21, 2))
        size = float(rng.choice([0.1, 1.0, 3.0, 7.5, 100.0, 333.3]))
        grid = LocationMap(w, h, size)
        centers = grid.centers()
        n = (1, 7, 8, 9, 128, 129, 300)[case % 7]
        cells = rng.integers(len(grid), size=n)
        dwell = rng.uniform(0.1, 500.0, n)
        traj = Trajectory(tuple(map(int, cells)), tuple(map(float, dwell)))
        expect = (dwell[:, None] * centers[cells]).sum(axis=0) / dwell.sum()
        got = mean_position(traj, grid)
        assert isinstance(got, np.ndarray) and got.tolist() == expect.tolist()
        assert center_of_mobility(traj, grid) == _numpy_nearest(grid, expect)
        col, row = int(rng.integers(w)), int(rng.integers(h))
        points = [(rng.uniform(-2 * size, (w + 2) * size),
                   rng.uniform(-2 * size, (h + 2) * size)),
                  # between two columns, two rows, and four cells
                  ((col + 1.0) * size, (row + 0.5) * size),
                  ((col + 0.5) * size, (row + 1.0) * size),
                  ((col + 1.0) * size, (row + 1.0) * size),
                  (0.0, 0.0), (w * size, h * size), (w * size, 0.0),
                  (-size, (h + 3) * size)]
        for point in points:
            expect_id = _numpy_nearest(grid, point)
            assert grid.nearest_cell(point).id == expect_id
            assert grid.nearest_cell(np.array(point)).id == expect_id
            d2 = np.sum((centers - np.asarray(point)) ** 2, axis=1)
            seen["tie"] += int((d2 == d2.min()).sum() > 1)
            seen["outside"] += not (0 <= point[0] < w * size
                                    and 0 <= point[1] < h * size)
        members = int(rng.integers(1, 9))
        users = {u: MobileUser(u, trajectory_from_pairs(list(zip(
            map(int, rng.integers(len(grid), size=int(rng.integers(1, 10)))),
            map(float, rng.uniform(0.1, 500.0, 10))))))
            for u in range(members)}
        vec, cell = center_of_group_mobility(
            UserGroup(0, frozenset(users)), users, grid)
        pts = centers[[center_of_mobility(users[u].trajectory, grid)
                       for u in sorted(users)]]
        mean = pts.mean(axis=0)
        assert isinstance(vec, np.ndarray) and vec.tolist() == mean.tolist()
        assert cell == _numpy_nearest(grid, mean)
        seen["group"] += members > 1
    assert min(seen.values()) > 30, seen


def test_wifi_coverage_is_attached_to_cells():
    grid = LocationMap(2, 1, 1.0, wifi={0: 7})
    assert grid.cell(0).wifi_covered_by == 7
    assert grid.cell(1).wifi_covered_by is None
    recovered = LocationMap(2, 1, 1.0, wifi={1: 3})
    assert recovered.cell(0).wifi_covered_by is None
    assert recovered.cell(1).wifi_covered_by == 3


def test_mean_position_is_dwell_weighted():
    grid = LocationMap(2, 1, 80.0)  # centers (40, 40) and (120, 40)
    traj = trajectory_from_pairs([(0, 30.0), (1, 10.0)])
    # (30 * 40 + 10 * 120) / 40 = 60
    assert mean_position(traj, grid) == pytest.approx((60.0, 40.0))
    assert center_of_mobility(traj, grid) == 0


def test_center_of_mobility_breaks_exact_ties_low():
    grid = LocationMap(2, 1, 80.0)
    traj = trajectory_from_pairs([(0, 10.0), (1, 10.0)])
    assert center_of_mobility(traj, grid) == 0


def test_trajectory_duration_and_validation():
    traj = trajectory_from_pairs([(0, 2.0), (3, 5.5)])
    assert traj.duration() == pytest.approx(7.5)
    assert len(traj) == 2
    with pytest.raises(InvalidTrajectory):
        trajectory_from_pairs([])
    with pytest.raises(InvalidTrajectory):
        trajectory_from_pairs([(0, 0.0)])
    with pytest.raises(InvalidTrajectory):
        trajectory_from_pairs([(0, -1.0)])
    with pytest.raises(InvalidTrajectory, match="got 0.0"):
        trajectory_from_pairs([(0, 2.0), (3, 0.0)])
    with pytest.raises(InvalidTrajectory, match="2 cells but 1 dwells"):
        Trajectory((0, 3), (2.0,))


def test_group_center_averages_member_center_cells():
    grid = LocationMap(3, 1, 10.0)  # centers (5,5), (15,5), (25,5)
    users = {0: MobileUser(0, trajectory_from_pairs([(0, 5.0)])),
             1: MobileUser(1, trajectory_from_pairs([(2, 5.0)]))}
    vec, cell = center_of_group_mobility(UserGroup(0, frozenset({0, 1})),
                                         users, grid)
    assert np.allclose(vec, (15.0, 5.0))
    assert cell == 1


def test_group_center_rejects_unknown_members_and_empty_groups():
    grid = LocationMap(2, 1, 1.0)
    users = {0: MobileUser(0, trajectory_from_pairs([(0, 1.0)]))}
    with pytest.raises(InvalidGroup):
        center_of_group_mobility(UserGroup(0, frozenset({0, 9})), users, grid)
    with pytest.raises(InvalidGroup):
        UserGroup(1, frozenset())


def test_cloud_node_validation():
    local = CloudNode(0, "local", location=4, capacity=15,
                      coverage_radius_m=150.0)
    assert local.capacity == 15
    public = CloudNode(1, "public")
    assert public.location is None
    with pytest.raises(ValueError):
        CloudNode(2, "fog")
    with pytest.raises(ValueError):
        CloudNode(3, "local", location=None, capacity=5)
    with pytest.raises(ValueError):
        CloudNode(4, "local", location=1, capacity=None)
    with pytest.raises(ValueError):
        CloudNode(5, "public", location=3)


def test_service_is_hosted_on_exactly_one_side():
    on_cloud = Service(0, "ocr", host_cloud=2)
    assert not on_cloud.on_device
    on_device = Service(1, "ocr", host_user=5)
    assert on_device.on_device
    with pytest.raises(ValueError):
        Service(2, "ocr")
    with pytest.raises(ValueError):
        Service(3, "ocr", host_cloud=1, host_user=1)
