"""Core entities: grid map, cloud nodes, services, users, and mobility centers.

The service area is a rectangular grid of square cells. Local clouds sit in a
cell and cover a WiFi neighbourhood around it; the public cloud lives outside
the map. Users move over the grid and are summarized, for planning purposes,
by their center of mobility: the cell whose center is nearest to the
dwell-weighted mean of the positions they visit.

Centers are computed in plain floats, in the order of the numpy formulas
they stand for (see mean_position, LocationMap.nearest_cell and
center_of_group_mobility), so each value is the float numpy gives.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import InvalidGroup, InvalidTrajectory

LOCAL = "local"
PUBLIC = "public"

WIFI = "wifi"
THREEG = "3g"


@dataclass(frozen=True)
class Cell:
    """One grid cell, identified by id, with its center in meters.

    wifi_covered_by holds the id of the local cloud whose access point serves
    this cell, or None when the cell has no WiFi coverage.
    """

    id: int
    center: tuple[float, float]
    wifi_covered_by: Optional[int] = None


def grid_centers(width: int, height: int, cell_size_m: float) -> np.ndarray:
    """(width * height, 2) array of the cell centers of a grid, in meters and
    row-major by cell id: ((col + 0.5) * cell_size_m, (row + 0.5) *
    cell_size_m)."""
    xs = (np.arange(width) + 0.5) * float(cell_size_m)
    ys = (np.arange(height) + 0.5) * float(cell_size_m)
    return np.column_stack((np.tile(xs, height), np.repeat(ys, width)))


class LocationMap:
    """Rectangular grid of square cells, row-major ids starting at 0."""

    def __init__(self, width: int, height: int, cell_size_m: float,
                 wifi: Optional[Mapping[int, int]] = None):
        if width <= 0 or height <= 0:
            raise ValueError("grid dimensions must be positive")
        if cell_size_m <= 0:
            raise ValueError("cell size must be positive")
        self.width = int(width)
        self.height = int(height)
        self.cell_size_m = float(cell_size_m)
        wifi = dict(wifi) if wifi else {}
        centers = grid_centers(self.width, self.height, self.cell_size_m)
        self.cells: tuple[Cell, ...] = tuple(
            Cell(cid, (x, y), wifi.get(cid))
            for cid, (x, y) in enumerate(centers.tolist()))
        self._centers = centers

    def __len__(self) -> int:
        return len(self.cells)

    def cell(self, cell_id: int) -> Cell:
        """The cell with this id. Any other value raises KeyError: an id
        off the grid, and one that is no integer (a bool, a float or a
        str) alike."""
        if ((type(cell_id) is not int
             and not isinstance(cell_id, np.integer))
                or not 0 <= cell_id < len(self.cells)):
            raise KeyError(f"no cell with id {cell_id!r}")
        return self.cells[cell_id]

    def centers(self) -> np.ndarray:
        """(n, 2) array of cell centers in meters, indexed by cell id."""
        return self._centers

    def cell_at(self, x: float, y: float) -> Cell:
        """Cell containing the point (x, y); points on the far edge clamp in."""
        col = min(int(x / self.cell_size_m), self.width - 1)
        row = min(int(y / self.cell_size_m), self.height - 1)
        col = max(col, 0)
        row = max(row, 0)
        return self.cells[row * self.width + col]

    def nearest_cell(self, point: Sequence[float]) -> Cell:
        """Cell whose center is nearest to point; ties go to the lowest id."""
        return self.cells[self._nearest(float(point[0]), float(point[1]))]

    def _nearest(self, x: float, y: float) -> int:
        """Id of the cell nearest (x, y): np.argmin of np.sum((centers -
        point) ** 2, axis=1), whose distances are dx * dx + dy * dy.

        The nearest center lies within one cell of the cell that holds the
        point, clamped into the grid, so only those (at most 9) cells are
        compared, in id order, and the first minimum is kept. A point that
        is not finite is compared against every cell."""
        if not (math.isfinite(x) and math.isfinite(y)):
            d2 = np.sum((self._centers - np.array([x, y])) ** 2, axis=1)
            return int(np.argmin(d2))
        size, width, height = self.cell_size_m, self.width, self.height
        col = max(min(int(x / size), width - 1), 0)
        row = max(min(int(y / size), height - 1), 0)
        cells = self.cells
        best, best_d2 = -1, math.inf
        for r in range(max(row - 1, 0), min(row + 2, height)):
            for c in range(max(col - 1, 0), min(col + 2, width)):
                cid = r * width + c
                cx, cy = cells[cid].center
                dx, dy = cx - x, cy - y
                d2 = dx * dx + dy * dy
                if d2 < best_d2:
                    best, best_d2 = cid, d2
        return best


@dataclass(frozen=True)
class CloudNode:
    """A cloud datacenter: local (in-grid, capacity-bound) or public.

    capacity is the number of users a local cloud can serve concurrently;
    None means unbounded (public tier). coverage_radius_m is the WiFi reach
    of a local cloud's access point.
    """

    id: int
    tier: str
    location: Optional[int] = None
    capacity: Optional[int] = None
    coverage_radius_m: float = 0.0

    def __post_init__(self):
        if self.tier not in (LOCAL, PUBLIC):
            raise ValueError(f"unknown tier {self.tier!r}")
        if self.tier == LOCAL:
            if self.location is None:
                raise ValueError("local cloud needs a grid cell location")
            if self.capacity is None or self.capacity < 0:
                raise ValueError("local cloud needs a non-negative capacity")
        if self.tier == PUBLIC and self.location is not None:
            raise ValueError("public cloud lives outside the grid")


@dataclass(frozen=True)
class Service:
    """A deployed instance of a function, hosted on a cloud node or a device.

    Exactly one of host_cloud / host_user is set. compute_ref keys into the
    cost tables for the per-service compute profile.
    """

    id: int
    function_id: str
    host_cloud: Optional[int] = None
    host_user: Optional[int] = None
    compute_ref: str = "none"

    def __post_init__(self):
        if (self.host_cloud is None) == (self.host_user is None):
            raise ValueError("service must be hosted on exactly one of cloud or device")

    @property
    def on_device(self) -> bool:
        return self.host_user is not None


@dataclass(frozen=True)
class Trajectory:
    """Ordered visits of one user as two columns of runs: run k stays
    dwells[k] seconds in cell cells[k]."""

    cells: tuple[int, ...]
    dwells: tuple[float, ...]

    def __post_init__(self):
        if not self.cells:
            raise InvalidTrajectory("trajectory has no entries")
        if len(self.cells) != len(self.dwells):
            raise InvalidTrajectory(
                f"{len(self.cells)} cells but {len(self.dwells)} dwells")
        if any(map(operator.le, self.dwells, repeat(0))):
            bad = next(d for d in self.dwells if d <= 0)
            raise InvalidTrajectory(f"dwell must be positive, got {bad}")

    def __len__(self) -> int:
        return len(self.cells)

    def duration(self) -> float:
        return sum(self.dwells)


@dataclass(frozen=True)
class MobileUser:
    """A device owner and its trajectory; the directory knows which
    services the device hosts (ServiceDirectory.device_services_for)."""

    id: int
    trajectory: Trajectory


@dataclass(frozen=True)
class UserGroup:
    id: int
    members: frozenset[int]

    def __post_init__(self):
        if not self.members:
            raise InvalidGroup(f"group {self.id} has no members")


def _pairwise_sum(v: Sequence[float], lo: int, n: int) -> float:
    """numpy's float64 sum of v[lo:lo + n], in its order (pairwise_sum in
    numpy's loops_utils.h): under 8 values a sequential sum from -0.0; up
    to 128, eight strided sequential sums combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the remainder;
    above that, the sums of two halves split at a multiple of 8. The values
    may also be equal-length arrays, summed element by element in that
    order."""
    if n < 8:
        s = -0.0
        for i in range(lo, lo + n):
            s += v[i]
        return s
    if n <= 128:
        end = lo + n - n % 8
        r = v[lo:lo + 8]
        for i in range(lo + 8, end, 8):
            r = [a + b for a, b in zip(r, v[i:i + 8])]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            s += v[i]
        return s
    half = n // 2
    half -= half % 8
    return _pairwise_sum(v, lo, half) + _pairwise_sum(v, lo + half, n - half)


def _mean_point(trajectory: Trajectory, grid: LocationMap
                ) -> tuple[float, float]:
    """mean_position as two floats: (w[:, None] * points).sum(axis=0), a
    sequential sum from the first row, over w.sum(), numpy's pairwise
    sum."""
    if not isinstance(trajectory, Trajectory) or not trajectory.cells:
        raise InvalidTrajectory("trajectory has no entries")
    cells = grid.cells
    weights = list(map(float, trajectory.dwells))
    sx = sy = None
    for w, cell in zip(weights, trajectory.cells):
        cx, cy = cells[cell].center
        if sx is None:
            sx, sy = w * cx, w * cy
        else:
            sx += w * cx
            sy += w * cy
    total = _pairwise_sum(weights, 0, len(weights))
    return sx / total, sy / total


def mean_position(trajectory: Trajectory, grid: LocationMap) -> np.ndarray:
    """Dwell-weighted mean of the visited cell centers, in meters."""
    return np.array(_mean_point(trajectory, grid))


def center_of_mobility(trajectory: Trajectory, grid: LocationMap) -> int:
    """Cell id nearest the user's dwell-weighted mean position.

    Distance ties resolve to the lowest cell id, so the result is unique.
    """
    return grid._nearest(*_mean_point(trajectory, grid))


def center_of_group_mobility(group: UserGroup, users: Mapping[int, MobileUser],
                             grid: LocationMap) -> tuple[np.ndarray, int]:
    """Mean of the members' center-of-mobility cell centers, and its cell.

    Returns (mean position vector in meters, nearest cell id).
    """
    missing = [m for m in group.members if m not in users]
    if missing:
        raise InvalidGroup(f"group {group.id} references unknown users {sorted(missing)}")
    # pts.mean(axis=0) of the member cells' centers: a sequential sum from
    # the first row, over the member count
    points = [grid.cells[center_of_mobility(users[m].trajectory, grid)].center
              for m in sorted(group.members)]
    sx, sy = points[0]
    for x, y in points[1:]:
        sx += x
        sy += y
    mx, my = sx / len(points), sy / len(points)
    return np.array([mx, my]), grid._nearest(mx, my)
