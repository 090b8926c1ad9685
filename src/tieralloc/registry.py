"""Spatial service registry: R-tree index, directory views, capacity ledger.

Reach is a per-cloud rule, so the R-tree (quadratic split) holds one point
per local cloud, its cell center, and each cloud keeps the list of services
it hosts: candidate discovery around a point is a range query over the
clouds instead of a scan over the services. Public-cloud services sit
outside the map and are kept in a side table, as are on-device services
per user. The capacity ledger counts admitted users per local cloud and
refuses admissions beyond the configured capacity.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional

from .errors import IdError, LedgerUnderflow
from .model import LOCAL, CloudNode, LocationMap, Service

Rect = tuple[float, float, float, float]


def _point_rect(p: tuple[float, float]) -> Rect:
    return (p[0], p[1], p[0], p[1])


def _union(a: Rect, b: Rect) -> Rect:
    return (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))


def _area(r: Rect) -> float:
    return (r[2] - r[0]) * (r[3] - r[1])


def _enlargement(r: Rect, add: Rect) -> float:
    return _area(_union(r, add)) - _area(r)


def _intersects(a: Rect, b: Rect) -> bool:
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


class _Node:
    __slots__ = ("leaf", "entries")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        # leaf: list of (rect, item_id); internal: list of (rect, _Node)
        self.entries: list[tuple[Rect, object]] = []

    def rect(self) -> Rect:
        r = self.entries[0][0]
        for e in self.entries[1:]:
            r = _union(r, e[0])
        return r


class RTree:
    """Point R-tree with quadratic node splits and condense-on-delete.

    max_entries / min_entries are the classic M and m fanout bounds. Queries
    report how many nodes they touched in last_visited so index efficiency
    can be measured against a linear scan.
    """

    def __init__(self, max_entries: int = 8, min_entries: int = 3):
        if not 2 <= min_entries <= max_entries // 2:
            raise ValueError("need 2 <= min_entries <= max_entries / 2")
        self.M = max_entries
        self.m = min_entries
        self.root = _Node(leaf=True)
        self._points: dict[object, tuple[float, float]] = {}
        self.last_visited = 0

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, item_id) -> bool:
        return item_id in self._points

    # -- insertion ------------------------------------------------------------

    def insert(self, item_id, point: Iterable[float]) -> None:
        if item_id in self._points:
            raise IdError(f"duplicate id {item_id!r}")
        p = (float(point[0]), float(point[1]))
        self._points[item_id] = p
        self._insert_entry(_point_rect(p), item_id)

    def _insert_entry(self, rect: Rect, item_id) -> None:
        path = self._choose_leaf(rect)
        leaf = path[-1]
        leaf.entries.append((rect, item_id))
        self._adjust(path)

    def _choose_leaf(self, rect: Rect) -> list[_Node]:
        node, path = self.root, [self.root]
        while not node.leaf:
            best, best_key = None, None
            for r, child in node.entries:
                key = (_enlargement(r, rect), _area(r))
                if best_key is None or key < best_key:
                    best, best_key = child, key
            node = best
            path.append(node)
        return path

    def _adjust(self, path: list[_Node]) -> None:
        # walk upward, refreshing parent rects and splitting overflowing nodes
        for depth in range(len(path) - 1, -1, -1):
            node = path[depth]
            split = self._split(node) if len(node.entries) > self.M else None
            if depth == 0:
                if split is not None:
                    new_root = _Node(leaf=False)
                    new_root.entries = [(node.rect(), node), (split.rect(), split)]
                    self.root = new_root
                return
            parent = path[depth - 1]
            for i, (r, child) in enumerate(parent.entries):
                if child is node:
                    parent.entries[i] = (node.rect(), node)
                    break
            if split is not None:
                parent.entries.append((split.rect(), split))

    def _split(self, node: _Node) -> _Node:
        """Quadratic split: node keeps group A, the returned sibling gets B."""
        entries = node.entries
        seed_a, seed_b, worst = 0, 1, -math.inf
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                dead = (_area(_union(entries[i][0], entries[j][0]))
                        - _area(entries[i][0]) - _area(entries[j][0]))
                if dead > worst:
                    seed_a, seed_b, worst = i, j, dead
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        rect_a, rect_b = entries[seed_a][0], entries[seed_b][0]
        rest = [e for k, e in enumerate(entries) if k not in (seed_a, seed_b)]
        while rest:
            # force-assign when one group needs every remaining entry for m
            if len(group_a) + len(rest) == self.m:
                group_a.extend(rest)
                break
            if len(group_b) + len(rest) == self.m:
                group_b.extend(rest)
                break
            pick, pick_pref = 0, -math.inf
            for k, (r, _) in enumerate(rest):
                pref = abs(_enlargement(rect_a, r) - _enlargement(rect_b, r))
                if pref > pick_pref:
                    pick, pick_pref = k, pref
            rect, child = rest.pop(pick)
            key_a = (_enlargement(rect_a, rect), _area(rect_a), len(group_a))
            key_b = (_enlargement(rect_b, rect), _area(rect_b), len(group_b))
            if key_a <= key_b:
                group_a.append((rect, child))
                rect_a = _union(rect_a, rect)
            else:
                group_b.append((rect, child))
                rect_b = _union(rect_b, rect)
        node.entries = group_a
        sibling = _Node(leaf=node.leaf)
        sibling.entries = group_b
        return sibling

    # -- removal ----------------------------------------------------------------

    def remove(self, item_id) -> None:
        if item_id not in self._points:
            raise IdError(f"unknown id {item_id!r}")
        point = self._points.pop(item_id)
        rect = _point_rect(point)
        path = self._find_leaf(self.root, rect, item_id, [self.root])
        leaf = path[-1]
        leaf.entries = [(r, i) for r, i in leaf.entries if i != item_id]
        orphans: list[tuple[Rect, object]] = []
        for depth in range(len(path) - 1, 0, -1):
            node, parent = path[depth], path[depth - 1]
            if len(node.entries) < self.m:
                parent.entries = [(r, c) for r, c in parent.entries if c is not node]
                self._collect_items(node, orphans)
            else:
                for i, (r, child) in enumerate(parent.entries):
                    if child is node:
                        parent.entries[i] = (node.rect(), node)
                        break
        if not self.root.leaf and len(self.root.entries) == 1:
            self.root = self.root.entries[0][1]
        if not self.root.entries and not self.root.leaf:
            self.root = _Node(leaf=True)
        for rect, orphan_id in orphans:
            self._insert_entry(rect, orphan_id)

    def _find_leaf(self, node: _Node, rect: Rect, item_id,
                   path: list[_Node]) -> list[_Node]:
        if node.leaf:
            if any(i == item_id for _, i in node.entries):
                return path
            return []
        for r, child in node.entries:
            if _intersects(r, rect):
                found = self._find_leaf(child, rect, item_id, path + [child])
                if found:
                    return found
        return []

    def _collect_items(self, node: _Node, out: list) -> None:
        if node.leaf:
            out.extend(node.entries)
            return
        for _, child in node.entries:
            self._collect_items(child, out)

    # -- queries ----------------------------------------------------------------

    def search_disc(self, center: Iterable[float], radius: float) -> list:
        """Ids of points within Euclidean distance radius of center
        (boundary inclusive). Descends only MBRs overlapping the disc's
        bounding box, then filters by exact distance."""
        cx, cy = float(center[0]), float(center[1])
        box = (cx - radius, cy - radius, cx + radius, cy + radius)
        out, visited = [], 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            visited += 1
            if node.leaf:
                for r, item_id in node.entries:
                    if _intersects(r, box) and math.dist((r[0], r[1]), (cx, cy)) <= radius:
                        out.append(item_id)
            else:
                for r, child in node.entries:
                    if _intersects(r, box):
                        stack.append(child)
        self.last_visited = visited
        return out

    def check_invariants(self) -> None:
        """Assert structural soundness: uniform leaf depth, fanout bounds,
        parent MBRs covering children. Raises AssertionError on violation."""
        depths = set()

        def rec(node: _Node, depth: int, is_root: bool):
            if node.leaf:
                depths.add(depth)
            if not is_root:
                assert len(node.entries) >= self.m, "underfull node"
            assert len(node.entries) <= self.M, "overfull node"
            if not node.leaf:
                for r, child in node.entries:
                    assert r == child.rect(), "stale parent MBR"
                    rec(child, depth + 1, False)

        rec(self.root, 0, True)
        assert len(depths) <= 1, "leaves at differing depths"
        got = sorted(self.search_disc((0.0, 0.0), math.inf), key=repr)
        assert got == sorted(self._points, key=repr), "tree lost items"


class ServiceDirectory:
    """Lookup views over the deployed services of one scenario.

    The R-tree holds one point per local cloud, its cell center, keyed by
    the cloud id, and each local cloud keeps the ids of the services it
    hosts; public services and per-user device services are side tables.
    hosts maps each service id to its host cloud, or None on a device.
    Raises IdError for a local cloud whose location is not a grid cell.
    """

    def __init__(self, grid: LocationMap, clouds: Mapping[int, CloudNode]):
        self.grid = grid
        self.clouds = dict(clouds)
        self.services: dict[int, Service] = {}
        self.hosts: dict[int, Optional[int]] = {}
        self.tree = RTree()
        self._on_cloud: dict[int, list[int]] = {}
        self._local: dict[str, list[int]] = {}
        self._public: dict[str, list[int]] = {}
        self._device: dict[tuple[int, str], list[int]] = {}
        for cid, cloud in self.clouds.items():
            if cloud.tier != LOCAL:
                continue
            try:
                center = grid.cell(cloud.location).center
            except KeyError:
                raise IdError(f"local cloud {cid} sits at {cloud.location!r}, "
                              f"which is not a cell of the grid") from None
            self.tree.insert(cid, center)
            self._on_cloud[cid] = []

    def __len__(self) -> int:
        return len(self.services)

    def insert(self, service: Service) -> None:
        if service.id in self.services:
            raise IdError(f"duplicate service id {service.id}")
        if service.on_device:
            self._device.setdefault((service.host_user, service.function_id),
                                    []).append(service.id)
        else:
            cloud = self.clouds.get(service.host_cloud)
            if cloud is None:
                raise IdError(f"service {service.id} names host cloud "
                              f"{service.host_cloud!r}, which the directory "
                              f"does not know")
            if cloud.tier == LOCAL:
                self._on_cloud[service.host_cloud].append(service.id)
                self._local.setdefault(service.function_id, []).append(service.id)
            else:
                self._public.setdefault(service.function_id, []).append(service.id)
        self.services[service.id] = service
        self.hosts[service.id] = service.host_cloud

    def remove(self, service_id: int) -> None:
        svc = self.services.pop(service_id, None)
        if svc is None:
            raise IdError(f"unknown service id {service_id}")
        del self.hosts[service_id]
        if svc.on_device:
            self._device[(svc.host_user, svc.function_id)].remove(service_id)
        elif self.clouds[svc.host_cloud].tier == LOCAL:
            self._on_cloud[svc.host_cloud].remove(service_id)
            self._local[svc.function_id].remove(service_id)
        else:
            self._public[svc.function_id].remove(service_id)

    def service(self, service_id: int) -> Service:
        return self.services[service_id]

    def host_cloud(self, service_id: int) -> Optional[int]:
        return self.hosts[service_id]

    def cloud_services_for(self, function_id: str) -> list[int]:
        """Every cloud-hosted instance of the function, local then public."""
        return sorted(self._local.get(function_id, ())) + \
            sorted(self._public.get(function_id, ()))

    def device_services_for(self, user_id: int, function_id: str) -> list[int]:
        return sorted(self._device.get((user_id, function_id), ()))

    def range_query(self, point: Iterable[float], radius: float,
                    function_id: Optional[str] = None) -> list[int]:
        """Ids of the services on the local clouds within radius of point
        (boundary inclusive), optionally restricted to one function, in
        ascending id order."""
        on_cloud = self._on_cloud
        hits = [sid for cid in self.tree.search_disc(point, radius)
                for sid in on_cloud[cid]]
        if function_id is not None:
            hits = [sid for sid in hits
                    if self.services[sid].function_id == function_id]
        return sorted(hits)


class CapacityLedger:
    """Admission counts per capacity-bound cloud.

    It holds no lock: the allocators use a ledger from one thread.
    """

    def __init__(self, capacities: Mapping[int, int]):
        for cid, cap in capacities.items():
            if cap < 0:
                raise ValueError(f"negative capacity for cloud {cid}")
        self._caps = dict(capacities)
        self._counts = {cid: 0 for cid in capacities}

    @classmethod
    def for_clouds(cls, clouds: Mapping[int, CloudNode]) -> "CapacityLedger":
        return cls({cid: c.capacity for cid, c in clouds.items()
                    if c.tier == LOCAL and c.capacity is not None})

    def capacities(self) -> dict[int, int]:
        return dict(self._caps)

    def count(self, cloud_id: int) -> int:
        return self._counts.get(cloud_id, 0)

    def room(self, cloud_id: int) -> float:
        """How many more users the cloud can take: capacity - count, and
        unbounded (inf) for an untracked cloud."""
        cap = self._caps.get(cloud_id)
        return math.inf if cap is None else cap - self._counts[cloud_id]

    def try_admit(self, cloud_id: int) -> bool:
        """Claim one slot; False when the cloud has no room."""
        if self.room(cloud_id) <= 0:
            return False
        if cloud_id in self._counts:
            self._counts[cloud_id] += 1
        return True

    def release(self, cloud_id: int) -> None:
        if cloud_id not in self._caps:
            return
        if self._counts[cloud_id] == 0:
            raise LedgerUnderflow(f"release on empty ledger for cloud {cloud_id}")
        self._counts[cloud_id] -= 1


# the ledger of a caller that passes none: it tracks no cloud, so every cloud
# has room, try_admit always admits and release does nothing, and no call
# can change it
NO_LEDGER = CapacityLedger({})
