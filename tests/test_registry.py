"""Spatial index correctness against linear scans, directory views, ledger."""

import math

import numpy as np
import pytest

from tieralloc import (LOCAL, PUBLIC, CapacityLedger, CloudNode, IdError,
                       LocationMap, RTree, Service, ServiceDirectory,
                       clouds_without_room)
from tieralloc.errors import LedgerUnderflow


def _scan(points, center, radius):
    return {i for i, p in points.items() if math.dist(p, center) <= radius}


def test_disc_search_matches_linear_scan_over_many_queries():
    rng = np.random.default_rng(7)
    tree = RTree()
    points = {}
    for i in range(300):
        p = (float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
        points[i] = p
        tree.insert(i, p)
    tree.check_invariants()
    for _ in range(1000):
        center = (float(rng.uniform(-50, 1050)), float(rng.uniform(-50, 1050)))
        radius = float(rng.uniform(0, 400))
        assert set(tree.search_disc(center, radius)) == _scan(points, center, radius)


def test_disc_boundary_is_inclusive_and_zero_radius_hits_exact_points():
    tree = RTree()
    tree.insert("a", (0.0, 0.0))
    tree.insert("b", (3.0, 4.0))
    assert set(tree.search_disc((0.0, 0.0), 5.0)) == {"a", "b"}
    assert set(tree.search_disc((0.0, 0.0), 4.999)) == {"a"}
    assert set(tree.search_disc((3.0, 4.0), 0.0)) == {"b"}


def test_tree_stays_sound_under_insert_remove_churn():
    rng = np.random.default_rng(11)
    tree = RTree()
    points = {}
    for i in range(400):
        p = (float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
        points[i] = p
        tree.insert(i, p)
    tree.check_invariants()
    for i in range(0, 400, 3):
        tree.remove(i)
        del points[i]
    tree.check_invariants()
    assert len(tree) == len(points)
    for i in range(400, 450):
        p = (float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
        points[i] = p
        tree.insert(i, p)
    tree.check_invariants()
    for _ in range(200):
        center = (float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
        radius = float(rng.uniform(0, 40))
        assert set(tree.search_disc(center, radius)) == _scan(points, center, radius)
    assert 5 in tree and 3 not in tree


def test_small_disc_touches_far_fewer_nodes_than_a_scan_would():
    tree = RTree()
    n = 0
    for gx in range(32):
        for gy in range(32):
            tree.insert(n, (gx * 10.0, gy * 10.0))
            n += 1
    tree.search_disc((155.0, 155.0), 15.0)
    # 1024 leaf entries need >= 128 leaf nodes; a tight disc must prune most
    assert tree.last_visited < len(tree) / 8


def test_duplicate_and_unknown_ids_are_rejected():
    tree = RTree()
    tree.insert(1, (0.0, 0.0))
    with pytest.raises(IdError):
        tree.insert(1, (5.0, 5.0))
    with pytest.raises(IdError):
        tree.remove(2)
    with pytest.raises(ValueError):
        RTree(max_entries=4, min_entries=3)


def _directory():
    grid = LocationMap(4, 4, 10.0)
    clouds = {1: CloudNode(1, LOCAL, location=0, capacity=2),
              2: CloudNode(2, LOCAL, location=5, capacity=2),
              3: CloudNode(3, LOCAL, location=15, capacity=2),
              9: CloudNode(9, PUBLIC)}
    d = ServiceDirectory(grid, clouds)
    d.insert(Service(10, "ocr", host_cloud=1))
    d.insert(Service(11, "ocr", host_cloud=2))
    d.insert(Service(12, "ocr", host_cloud=9))
    d.insert(Service(13, "sync", host_cloud=3))
    d.insert(Service(14, "ocr", host_user=4))
    return grid, d


def test_directory_views_split_by_tier_and_function():
    grid, d = _directory()
    assert len(d) == 5
    assert d.cloud_services_for("ocr") == [10, 11, 12]  # locals first, then public
    assert [s for s in d.cloud_services_for("ocr")
            if d.clouds[d.host_cloud(s)].tier == PUBLIC] == [12]
    assert d.cloud_services_for("sync") == [13]
    assert d.device_services_for(4, "ocr") == [14]
    assert d.device_services_for(4, "sync") == []
    assert d.host_cloud(12) == 9
    assert d.host_cloud(14) is None
    assert d.hosts == {10: 1, 11: 2, 12: 9, 13: 3, 14: None}
    assert d.service(13).function_id == "sync"


def test_directory_range_query_uses_cloud_cell_centers():
    grid, d = _directory()
    # cloud 1 sits at cell 0 center (5, 5); cloud 2 at cell 5 center (15, 15)
    assert d.range_query((5.0, 5.0), 1.0) == [10]
    assert d.range_query((5.0, 5.0), 15.0) == [10, 11]
    assert d.range_query((5.0, 5.0), 15.0, function_id="sync") == []
    assert d.range_query((35.0, 35.0), 1.0, function_id="sync") == [13]
    # public and device services never appear in spatial results
    assert 12 not in d.range_query((5.0, 5.0), 1e9)
    assert 14 not in d.range_query((5.0, 5.0), 1e9)


def test_directory_remove_updates_every_view():
    grid, d = _directory()
    d.remove(11)
    assert d.cloud_services_for("ocr") == [10, 12]
    assert d.range_query((15.0, 15.0), 1.0) == []
    d.remove(14)
    assert d.device_services_for(4, "ocr") == []
    assert d.hosts == {10: 1, 12: 9, 13: 3}
    with pytest.raises(IdError):
        d.remove(11)
    with pytest.raises(IdError):
        d.insert(Service(10, "ocr", host_cloud=1))


def test_ledger_admits_up_to_capacity_and_releases():
    ledger = CapacityLedger({1: 2, 2: 0})
    assert ledger.try_admit(1) is True
    assert ledger.try_admit(1) is True
    assert ledger.try_admit(1) is False
    assert ledger.count(1) == 2
    assert clouds_without_room(ledger) == {1, 2}
    ledger.release(1)
    assert clouds_without_room(ledger) == {2}
    assert ledger.try_admit(2) is False  # zero capacity admits nobody


def test_ledger_underflow_and_untracked_clouds():
    ledger = CapacityLedger({1: 1})
    with pytest.raises(LedgerUnderflow):
        ledger.release(1)
    # untracked clouds are unbounded: admit always, release is a no-op
    assert ledger.try_admit(99) is True
    ledger.release(99)
    assert ledger.count(99) == 0
    assert ledger.room(1) == 1 and ledger.room(99) == math.inf
    with pytest.raises(ValueError):
        CapacityLedger({1: -1})


def test_ledger_for_clouds_tracks_only_capacity_bound_locals():
    clouds = {1: CloudNode(1, LOCAL, location=0, capacity=3),
              9: CloudNode(9, PUBLIC)}
    ledger = CapacityLedger.for_clouds(clouds)
    assert ledger.capacities() == {1: 3}
    assert ledger.room(1) == 3
    assert ledger.try_admit(9) is True  # public tier is never counted


def test_insert_on_an_unknown_cloud_raises_and_leaves_the_directory_as_it_was():
    grid, d = _directory()
    before = (dict(d.services), dict(d.hosts), d.cloud_services_for("ocr"),
              d.range_query((5.0, 5.0), 1e9), len(d.tree))
    with pytest.raises(IdError, match=r"service 20 .*host cloud 7"):
        d.insert(Service(20, "ocr", host_cloud=7))
    assert (dict(d.services), dict(d.hosts), d.cloud_services_for("ocr"),
            d.range_query((5.0, 5.0), 1e9), len(d.tree)) == before
    d.insert(Service(20, "ocr", host_cloud=2))  # the id is still free
    assert d.range_query((15.0, 15.0), 1.0) == [11, 20]


@pytest.mark.parametrize("location", [16, -1, 99, 1.0, 1.5, "3", True])
def test_a_local_cloud_off_the_grid_is_refused_at_construction(location):
    grid = LocationMap(4, 4, 10.0)
    clouds = {1: CloudNode(1, LOCAL, location=0, capacity=2),
              3: CloudNode(3, LOCAL, location=location, capacity=2)}
    with pytest.raises(IdError, match=rf"local cloud 3 .*{location}"):
        ServiceDirectory(grid, clouds)


def test_the_index_holds_one_point_per_local_cloud():
    grid, d = _directory()
    assert len(d.tree) == 3
    assert sorted(d.tree.search_disc((0.0, 0.0), math.inf)) == [1, 2, 3]
    d.remove(10)
    d.remove(11)
    assert len(d.tree) == 3 and d.range_query((5.0, 5.0), 15.0) == []


def _scan_directory(d, centers, point, radius, function_id):
    return sorted(sid for sid, svc in d.services.items()
                  if sid in centers
                  and (function_id is None or svc.function_id == function_id)
                  and math.dist(centers[sid], point) <= radius)


def test_range_query_equals_a_scan_over_random_directories():
    """Random grids, clouds (two may share a cell), churned catalogs and
    radii at and just below a cloud's distance: range_query is the sorted
    local services of the function whose cloud center lies in the disc."""
    rng = np.random.default_rng(30)
    functions = ("ocr", "sync", "stream")
    exact = 0
    for case in range(150):
        width, height = int(rng.integers(1, 21)), int(rng.integers(1, 21))
        if case < 2:
            width, height = ((1, 1), (20, 20))[case]
        size = float(rng.choice([1.0, 33.3, 100.0]))
        grid = LocationMap(width, height, size)
        n_local = int(rng.integers(0, 13))
        cells = rng.integers(0, width * height, size=n_local).tolist()
        if n_local >= 2 and case % 3 == 0:
            cells[1] = cells[0]  # two clouds on one cell
        clouds = {cid: CloudNode(cid, LOCAL, location=cell, capacity=1)
                  for cid, cell in enumerate(cells)}
        clouds[n_local] = CloudNode(n_local, PUBLIC)
        d = ServiceDirectory(grid, clouds)
        d.tree.check_invariants()
        centers = {}  # local service id -> its cloud's cell center
        sid = 0

        def add(host_cloud=None, host_user=None):
            nonlocal sid
            fn = functions[int(rng.integers(len(functions)))]
            d.insert(Service(sid, fn, host_cloud=host_cloud,
                             host_user=host_user))
            if host_cloud is not None and host_cloud < n_local:
                centers[sid] = grid.cell(cells[host_cloud]).center
            sid += 1

        for _ in range(int(rng.integers(0, 40))):
            kind = int(rng.integers(0, 4))
            if kind == 0:
                add(host_user=int(rng.integers(0, 3)))
            elif kind == 1 or not n_local:
                add(host_cloud=n_local)
            else:
                add(host_cloud=int(rng.integers(0, n_local)))
        for step in range(6):
            if step == 2 and n_local:
                # empty one cloud, then put services back on it
                victim = int(rng.integers(0, n_local))
                for s in [s for s, h in d.hosts.items() if h == victim]:
                    d.remove(s)
                    centers.pop(s)
                assert all(h != victim for h in d.hosts.values())
                for _ in range(int(rng.integers(0, 3))):
                    add(host_cloud=victim)
            elif d.services and step % 2:
                s = int(rng.choice(sorted(d.services)))
                d.remove(s)
                centers.pop(s, None)
            d.tree.check_invariants()
            point = (float(rng.uniform(-size, (width + 1) * size)),
                     float(rng.uniform(-size, (height + 1) * size)))
            radii = [float(rng.uniform(0.0, 2.0 * size * max(width, height))),
                     0.0, math.inf]
            for cell in cells:
                at = math.dist(grid.cell(cell).center, point)
                radii += [at, math.nextafter(at, -math.inf)]
            for radius in radii:
                for fn in (None, *functions):
                    want = _scan_directory(d, centers, point, radius, fn)
                    got = (d.range_query(point, radius) if fn is None
                           else d.range_query(point, radius, function_id=fn))
                    assert got == want, (case, step, point, radius, fn)
                    exact += radius in (math.dist(c, point)
                                        for c in centers.values())
    assert exact > 0
