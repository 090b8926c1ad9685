"""Allocation algorithms: MuSIC's best-of-N search, random and greedy
baselines, and the exhaustive optimum.

Planning happens per user (or per group) around the center of mobility. The
candidate search widens its radius in fixed steps; at each radius a plan is
assembled by roulette-wheel selection over the candidates' total normalized
QoS, then checked against the budget constraints and repaired per violated
dimension. MuSIC draws max_iter + 1 such proposals independently and keeps
the first one of highest utility.

Every planner filters candidates per cloud through _allowed_candidates: a
local cloud is closed when it has no room (clouds_without_room) and, in
MuSIC's search, when it lies outside the radius.

A budget bounds each placed user's raw QoS, boundary inclusive
(ConstraintVector.admits), in a group as alone. MuSIC and the exhaustive
optimum keep only plans it admits; a user left with none is unplaced and
scores 0. rsa resamples until a plan is admitted, at most max_tries times;
greedy ignores budgets.

Utilities follow the minimum rule: a user's satisfaction is the worst of its
normalized price / power / delay, the fleet objective is the mean over users
(over groups of member means in grouped mode). Local-cloud capacity is
enforced at admission time through the shared ledger, first come first
served in a seeded random order.

The exhaustive optimum takes one path: each user's best plan per set of
binding clouds, combined once (brute_force_optimal). Its cap bounds each
user's plan space and that option product, before any plan is evaluated.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import AbstractSet, Container, Mapping, Optional, Sequence

import numpy as np

from .errors import (AdmissionRefused, IncompletePlan, InvalidGroup,
                     NoFeasibleCandidates, NoRealizingService,
                     TooLargeForEnumeration)
from .model import (LOCAL, LocationMap, MobileUser, UserGroup,
                    center_of_group_mobility, center_of_mobility)
from .profiles import (ProfileSet, Rates, _costs, intercloud_ms,
                       service_rates)
from .registry import CapacityLedger, ServiceDirectory
from .workflow import (DIMS, LTW, FoldFn, LeafCost, Occurrence, QoSExtrema,
                       QoSTriple, WorkflowNode, compile_fold, dim_bounds,
                       normalize_within, occurrences, trusted_qos)


def constraints_for(constraints, uid: int) -> "ConstraintVector":
    """Resolve a shared or per-user budget specification for one user."""
    if isinstance(constraints, ConstraintVector):
        return constraints
    return constraints.get(uid, _NO_BUDGETS)


@dataclass(frozen=True)
class ConstraintVector:
    """Per-dimension budget bounds on raw QoS (inf = unconstrained)."""

    price: float = math.inf
    power: float = math.inf
    delay: float = math.inf

    def __post_init__(self):
        # the vector is frozen, so its finite budgets are fixed; a finite
        # raw value never exceeds an infinite one
        object.__setattr__(self, "_finite", tuple(
            (d, self.get(d)) for d in DIMS if math.isfinite(self.get(d))))

    def get(self, dim: str) -> float:
        return getattr(self, dim)

    def bounded(self) -> bool:
        return bool(self._finite)

    def violated(self, raw: QoSTriple) -> list[str]:
        """Dimensions, in DIMS order, on which raw QoS exceeds its budget."""
        return [d for d, budget in self._finite if getattr(raw, d) > budget]

    def admits(self, raw: QoSTriple) -> bool:
        """Whether raw QoS fits every budget, boundary inclusive."""
        return not self.violated(raw)

    @classmethod
    def unlimited(cls) -> "ConstraintVector":
        return cls()


_NO_BUDGETS = ConstraintVector.unlimited()


@dataclass(frozen=True)
class AnnealingParams:
    """Knobs of MuSIC's best-of-N search.

    radius_start_m and radius_step_m shape the widening candidate search
    (radius = start + i * step for i < max_expansions). Each target draws
    max_iter + 1 independent proposals.
    """

    max_iter: int = 20
    radius_start_m: float = 200.0
    radius_step_m: float = 100.0
    max_expansions: int = 15

    def __post_init__(self):
        if self.max_iter < 0 or self.max_expansions < 1:
            raise ValueError("need max_iter >= 0 and max_expansions >= 1")
        if self.radius_start_m < 0 or self.radius_step_m < 0:
            raise ValueError("radii must be >= 0")


@dataclass
class AllocationResult:
    """Outcome of one allocation: plans by user id plus the objective.

    A plan is a pick tuple: one service id per occurrence of the user's
    instance, in iter_occurrences order (see UserInstance.evaluate).
    utility is the objective that chose the plans (music, the exhaustive
    optimum). The fleet drivers leave it None: their plans are scored by the
    caller, on whatever instances the plans end up running against (see
    objective_from_plans).
    """

    plans: dict[int, tuple[int, ...]]
    utility: Optional[float]
    feasible: bool
    note: str = ""


# --- scalar utilities ---------------------------------------------------------

def fleet_utility(utils: Mapping[int, float], users: Sequence[int],
                  groups: Optional[Sequence[UserGroup]] = None) -> float:
    """Fleet objective from per-user utilities; a user without one scores 0.

    Ungrouped: the mean over users, in the given order. Grouped: the mean
    over groups, in the given order, of the mean over members by id.
    """
    if groups is None:
        if not users:
            raise ValueError("objective over no users")
        if len(users) == 1:  # the mean of one value is that value
            return float(utils.get(users[0], 0.0))
        return float(np.mean([utils.get(u, 0.0) for u in users]))
    if not groups:
        raise InvalidGroup("objective over no groups")
    return float(np.mean([
        float(np.mean([utils.get(u, 0.0) for u in sorted(g.members)]))
        for g in groups]))


def _pairwise_sum(v: Sequence[float], lo: int, n: int) -> float:
    """numpy's float64 sum of v[lo:lo + n], in its order (pairwise_sum in
    numpy's loops_utils.h): under 8 values a sequential sum from -0.0; up
    to 128, eight strided sequential sums combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the remainder;
    above that, the sums of two halves split at a multiple of 8."""
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


def _roulette_wheel(weights: Sequence[float]) -> Optional[list[float]]:
    """Inner slice ends of a roulette over weights: the cumulative sums of
    the normalized weights but the last. None when every weight is zero
    (the wheel then picks uniformly).

    The arithmetic is numpy's, np.cumsum(w / w.sum()), in plain Python:
    the total must add pairwise (a sequential sum differs in the last bit
    often enough to flip picks), and the cumulative sum is sequential.
    """
    s = _pairwise_sum(weights, 0, len(weights))
    if s == 0.0:
        return None
    return list(itertools.accumulate([w / s for w in weights]))[:-1]


def _roulette_spin(cum: Optional[list[float]], n: int, draw: float) -> int:
    """Index of n slices that a draw in [0, 1) lands on. Without the last
    slice end, a draw past the rounded end of the wheel lands in the last
    slice."""
    if cum is None:
        return min(int(draw * n), n - 1)
    return bisect_right(cum, draw)


def roulette_index(totals: Sequence[float], draw: float) -> int:
    """Index selected by a roulette draw in [0, 1) over the given weights.

    Weights are used in the order given (sort candidates beforehand); each
    index owns a slice proportional to its weight. All-zero weights degrade
    to a uniform pick.
    """
    if len(totals) == 0:
        raise ValueError("roulette over no candidates")
    if not 0.0 <= draw < 1.0:
        raise ValueError("draw must lie in [0, 1)")
    arr = np.asarray(totals, dtype=float)
    if np.any(arr < 0):
        raise ValueError("weights must be >= 0")
    return _roulette_spin(_roulette_wheel(arr.tolist()), len(arr), draw)


_NO_CLOUDS: frozenset[int] = frozenset()


def clouds_without_room(ledger: Optional[CapacityLedger],
                        usage: Optional[Mapping[int, int]] = None,
                        held: Container[int] = _NO_CLOUDS) -> frozenset[int]:
    """The room rule: the clouds a candidate cannot be placed on.

    A candidate's room depends only on its host cloud. A tracked cloud has
    none when the ledger's room minus tentative usage (cloud id -> users
    placed on it) is <= 0, unless the caller already holds it; untracked
    clouds, and every cloud without a ledger, always have room.
    """
    if ledger is None:
        return _NO_CLOUDS
    taken = usage or {}
    return frozenset([cid for cid in ledger.capacities()
                      if ledger.room(cid) - taken.get(cid, 0) <= 0
                      and cid not in held])


def with_room(ids: Sequence[int], hosts: Mapping[int, Optional[int]],
              blocked: Container[int]) -> list[int]:
    """The ids, in order, that may run: on the device (host None), or on a
    host cloud outside blocked (see clouds_without_room)."""
    return [sid for sid in ids
            if (node := hosts[sid]) is None or node not in blocked]


# --- cached per-user planning context ----------------------------------------

def _hop_extremes(hosts: AbstractSet[Optional[int]],
                  prev_hosts: AbstractSet[Optional[int]],
                  kb: float, profiles: ProfileSet) -> tuple[float, float]:
    """Least and greatest inter-cloud hop delay of kb over every pair of a
    candidate's host and a predecessor candidate's host (None: on the
    device), the greatest being at least 0.0.

    A pair pays nothing when either side is on the device or both share a
    cloud, and otherwise the one value intercloud_ms(kb).
    """
    clouds, prev_clouds = hosts - {None}, prev_hosts - {None}
    free = (None in hosts or None in prev_hosts
            or not clouds.isdisjoint(prev_clouds))
    paid = (bool(clouds) and bool(prev_clouds)
            and not (len(clouds) == 1 and clouds == prev_clouds))
    extras = []
    if free:
        extras.append(0.0)
    if paid:
        extras.append(intercloud_ms(kb, profiles))
    return min(extras), max(0.0, max(extras))


# rows costed per array pass: enough to spread numpy's per-call cost, few
# enough that the pass's own lists and arrays stay small next to the tables
_PASS_ROWS = 2048


class CostMemo:
    """What the planning tables of one population share, and the pass that
    costs them.

    - per (function id, user id, WiFi owner of the entry's cell), and per
      (function id, WiFi owner) for the cloud candidates alone: the
      candidate ids (candidate_services), the set of their host clouds
      (None: on the device) and the column of each one's resolved cost in
      rate_table;
    - per cloud service id and WiFi owner, and per device service id (a
      device run uses no link, so coverage plays no part): the column of
      the service's resolved cost (profiles.service_rates);
    - per (user id, workflow object, WiFi owner of the entry's cell): the
      entry's planning tables (see tables_of).

    expect queues an LTW's entries. The first tables_of that misses costs
    every queued entry, in queue order, in numpy passes over about
    _PASS_ROWS (entry, occurrence, candidate) rows each (see _cost_block),
    so a caller that queues a whole population first has it costed at
    once.

    Each entry is read from the directory and the profile set when it is
    first needed, and is right only while they do not change. So one memo
    serves one population, the true and the predicted instances of one
    repetition, and is dropped once they are built.
    """

    __slots__ = ("directory", "profiles", "candidates", "host_sets", "rates",
                 "new_rates", "rate_table", "tables", "queued")

    def __init__(self, directory: ServiceDirectory, profiles: ProfileSet):
        self.directory = directory
        self.profiles = profiles
        self.candidates: dict[tuple, tuple[list[int],
                                           frozenset[Optional[int]],
                                           list[int]]] = {}
        self.host_sets: dict[frozenset[Optional[int]],
                             frozenset[Optional[int]]] = {}
        # keyed by (service id, WiFi owner) for cloud services, by service
        # id for device services
        self.rates: dict[object, int] = {}
        # one column per resolved cost, one row per Rates field; and the
        # costs resolved since the last pass, which appends them
        self.rate_table: Optional[np.ndarray] = None
        self.new_rates: list[Rates] = []
        self.tables: dict[tuple[int, int, Optional[int]], _EntryTables] = {}
        self.queued: dict[tuple[int, int, Optional[int]],
                          tuple[MobileUser, WorkflowNode, Optional[int]]] = {}

    def expect(self, user: MobileUser, ltw: LTW, grid: LocationMap
               ) -> list[tuple[int, int, Optional[int]]]:
        """Queue the entries of the user's LTW that have no tables yet, and
        return every entry's key (user id, workflow object id, WiFi owner
        of its cell)."""
        keys = []
        for entry in ltw.entries:
            covered_by = grid.cell(entry.cell_id).wifi_covered_by
            key = (user.id, id(entry.workflow), covered_by)
            if key not in self.tables and key not in self.queued:
                self.queued[key] = (user, entry.workflow, covered_by)
            keys.append(key)
        return keys

    def tables_of(self, user: MobileUser, ltw: LTW, grid: LocationMap
                  ) -> list["_EntryTables"]:
        """The planning tables of each entry of the user's LTW, costing
        every queued entry first when one is missing. Entries of the same
        user, workflow object and WiFi owner at the cell share one object,
        in one instance or across the true and the predicted ones. The
        tables hold their workflow, so its id cannot name another object
        while the memo lives."""
        keys = self.expect(user, ltw, grid)
        if self.queued:
            self._cost_queued()
        return [self.tables[key] for key in keys]

    def candidates_of(self, function_id: str, user: MobileUser,
                      covered_by: Optional[int]
                      ) -> tuple[list[int], frozenset[Optional[int]],
                                 list[int]]:
        """The user's candidate ids for the function (candidate_services),
        their host set and the rate_table column of each one, run from a cell
        whose WiFi access point belongs to cloud covered_by (None: no
        coverage): the function's cloud candidates there, which every user
        shares, merged with the user's device services."""
        key = (function_id, user.id, covered_by)
        found = self.candidates.get(key)
        if found is None:
            cloud = self.candidates.get((function_id, covered_by))
            if cloud is None:
                ids = sorted(self.directory.cloud_services_for(function_id))
                cloud = self.candidates[(function_id, covered_by)] = (
                    ids, self._host_set(ids),
                    [self._rate_column(sid, covered_by) for sid in ids])
            found = cloud
            device = self.directory.device_services_for(user.id, function_id)
            if device:
                pairs = sorted([*zip(cloud[0], cloud[2]),
                                *((sid, self._rate_column(sid, None))
                                  for sid in device)])
                ids = [sid for sid, _ in pairs]
                found = (ids, self._host_set(ids),
                         [column for _, column in pairs])
            elif not cloud[0]:
                raise NoRealizingService(
                    f"no service realizes {function_id!r}")
            self.candidates[key] = found
        return found

    def _host_set(self, ids: list[int]) -> frozenset[Optional[int]]:
        """The host clouds of ids (None: on the device), one object per
        distinct set: few exist."""
        hosts = self.directory.hosts
        host_set = frozenset([hosts[sid] for sid in ids])
        return self.host_sets.setdefault(host_set, host_set)

    def _rate_column(self, sid: int, covered_by: Optional[int]) -> int:
        """The rate_table column of service sid's resolved cost from a cell
        whose WiFi access point belongs to cloud covered_by."""
        directory = self.directory
        key = sid if directory.hosts[sid] is None else (sid, covered_by)
        column = self.rates.get(key)
        if column is None:
            column = self.rates[key] = len(self.rates)
            self.new_rates.append(service_rates(
                directory.service(sid), covered_by, directory.clouds,
                self.profiles))
        return column

    def _cost_queued(self) -> None:
        """Build the tables of every queued entry, in queue order, one
        _cost_block per _PASS_ROWS rows or so (whole entries each)."""
        queued, self.queued = self.queued, {}
        block: list[tuple] = []
        kbs: list[float] = []
        starts: list[int] = []
        counts: list[int] = []
        columns: list[int] = []
        for key, (user, workflow, covered_by) in queued.items():
            occs = occurrences(workflow)
            sets = []
            for occ in occs:
                found = self.candidates_of(occ.fn.function_id, user,
                                           covered_by)
                sets.append(found)
                kbs.append(occ.fn.input_kb)
                starts.append(len(columns))
                counts.append(len(found[0]))
                columns += found[2]
            block.append((key, workflow, occs, sets))
            if len(columns) >= _PASS_ROWS:
                self._cost_block(block, kbs, starts, counts, columns)
                block, kbs, starts, counts, columns = [], [], [], [], []
        if block:
            self._cost_block(block, kbs, starts, counts, columns)

    def _cost_block(self, block: list[tuple], kbs: list[float],
                    starts: list[int], counts: list[int],
                    columns: list[int]) -> None:
        """One array pass: cost every (entry, occurrence, candidate) row of
        the block's entries (profiles._costs), check the rows, take each
        occurrence's envelope and total normalized QoS, and cut the columns
        back into per-entry tables.

        The rows enter checked: when every component is finite and none is
        negative they are used as they are; otherwise each row goes through
        the QoSTriple constructor, in build order, so the first bad row
        raises its ValueError. The total normalized QoS of a candidate is
        sqrt(n_p ** 2 + n_w ** 2 + n_d ** 2), n being (hi - value) / (hi -
        lo) within its occurrence's candidates, or 1.0 when hi == lo; the
        squares are libm's pow, as Python's ** takes them, through
        np.float_power.
        """
        if self.new_rates:
            new = np.array(self.new_rates, dtype=float).T
            self.rate_table = (new if self.rate_table is None else
                               np.concatenate((self.rate_table, new), axis=1))
            self.new_rates = []
        counts_a = np.array(counts)
        # row i runs under the resolved cost in rate_table column columns[i]
        cols = _costs([field.take(columns) for field in self.rate_table],
                      np.repeat(np.array(kbs, dtype=float), counts_a))
        lows = [np.minimum.reduceat(c, starts) for c in cols]
        highs = [np.maximum.reduceat(c, starts) for c in cols]
        # a NaN survives both reductions and fails both tests
        if not (all(lo.min() >= 0.0 for lo in lows)
                and all(hi.max() < math.inf for hi in highs)):
            for row in zip(*(c.tolist() for c in cols)):
                QoSTriple(*row)
        total = None
        for c, lo, hi in zip(cols, lows, highs):
            span = np.repeat(hi - lo, counts_a)
            flat = span == 0.0
            # each ratio lies in [0, 1], since lo <= value <= hi; a zero
            # span never reaches the division
            span[flat] = 1.0
            norm = np.repeat(hi, counts_a)
            norm -= c
            norm /= span
            norm[flat] = 1.0
            np.float_power(norm, 2.0, out=norm)
            if total is None:
                total = norm
            else:
                total += norm
        snorm = iter(np.sqrt(total, out=total).tolist())
        costed = zip(*(c.tolist() for c in cols))
        envelopes = zip(zip(*(a.tolist() for a in lows)),
                        zip(*(a.tolist() for a in highs)))
        profiles = self.profiles
        for key, workflow, occs, sets in block:
            tables = self.tables[key] = _EntryTables(workflow, occs)
            cands, base, snorms, steps = (tables.cands, tables.base,
                                          tables.snorm, tables.steps)
            env_lo: list[LeafCost] = []
            env_hi: list[LeafCost] = []
            for occ, (ids, hosts, _), (lo, hi) in zip(occs, sets, envelopes):
                lo_hop = hi_hop = hop = 0.0
                if occ.prev is not None:
                    kb = occ.fn.input_kb
                    lo_hop, hi_hop = _hop_extremes(hosts, sets[occ.prev][1],
                                                   kb, profiles)
                    hop = intercloud_ms(kb, profiles)
                env_lo.append((lo[0], lo[1], lo[2] + lo_hop))
                env_hi.append((hi[0], hi[1], hi[2] + hi_hop))
                # zip stops at the end of ids, taking len(ids) rows
                table = dict(zip(ids, costed))
                cands.append(ids)
                base.append(table)
                snorms.append(dict(zip(ids, snorm)))
                steps.append((occ.index, table, occ.prev if hop else None,
                              hop))
            # every fold rule is monotone per dimension, so folding the
            # envelopes bounds what any plan of the entry can reach
            tables.lo = tables.fold(env_lo)
            tables.hi = tables.fold(env_hi)


class _EntryTables:
    """One LTW entry's planning tables.

    They depend only on the user, the entry's workflow object and the WiFi
    owner of its cell, and the population's CostMemo keeps one object per
    such key, filled by its costing pass (see CostMemo._cost_block). Per
    occurrence, in preorder: the realizing candidate ids, their raw QoS
    rows as plain (price, power, delay) float tuples, their total
    normalized QoS within the set, and a step (occurrence index, rows,
    predecessor index, hop) for the plan evaluator. The predecessor index
    is None when the occurrence has no Seq predecessor or the hop costs
    nothing; hop is intercloud_ms(kb), paid only between two different
    clouds. lo and hi are the entry's folded envelopes.
    """

    __slots__ = ("workflow", "occs", "cands", "base", "snorm", "steps",
                 "fold", "lo", "hi")

    def __init__(self, workflow: WorkflowNode, occs: list[Occurrence]):
        self.workflow = workflow
        self.occs = occs
        self.cands: list[list[int]] = []
        self.base: list[dict[int, LeafCost]] = []
        self.snorm: list[dict[int, float]] = []
        self.steps: list[tuple[int, dict[int, LeafCost], Optional[int],
                               float]] = []
        self.fold: FoldFn = compile_fold(workflow)
        self.lo: LeafCost = (0.0, 0.0, 0.0)
        self.hi: LeafCost = (0.0, 0.0, 0.0)


class UserInstance:
    """One user's location-time workflow with cached candidate QoS.

    entries[e] holds entry e's planning tables (see _EntryTables): per
    function occurrence, in preorder (occurrence indices equal preorder
    positions), the realizing candidate ids, each candidate's raw QoS at
    the entry's cell as a plain (price, power, delay) float tuple and its
    total normalized QoS within that candidate set; and the entry's
    compiled fold, hop values and envelope. So a table is read as
    entries[e].<table>[j], and evaluate and utility_of work on plain
    floats. extrema sums the entry envelopes for whole-LTW normalization.

    A plan is a pick list: one service id per occurrence, in
    iter_occurrences order (entry by entry, preorder within an entry), so
    entry e's occurrence j sits at position base + j, base being the
    occurrence count of the entries before e. size is the list's length.
    Allocators return plans as pick tuples.

    memo is the CostMemo of the population being built, over the same
    directory and profiles; it lives for that one population and no
    instance keeps it. Instances built through one memo share the tables
    of entries with the same user, workflow object and WiFi owner at the
    cell. None builds a memo for this instance alone.
    """

    def __init__(self, user: MobileUser, ltw: LTW, directory: ServiceDirectory,
                 profiles: ProfileSet, grid: LocationMap,
                 memo: Optional[CostMemo] = None):
        if memo is None:
            memo = CostMemo(directory, profiles)
        elif memo.directory is not directory or memo.profiles is not profiles:
            raise ValueError("a cost memo serves one directory and one "
                             "profile set")
        self.user = user
        self.ltw = ltw
        self.directory = directory
        self.profiles = profiles
        self.grid = grid
        self.clouds = directory.clouds
        self.hosts = directory.hosts
        self.entries = memo.tables_of(user, ltw, grid)
        self.size = 0
        lo_p = lo_w = lo_d = hi_p = hi_w = hi_d = 0.0
        for tables in self.entries:
            self.size += len(tables.steps)
            lo_p += tables.lo[0]
            lo_w += tables.lo[1]
            lo_d += tables.lo[2]
            hi_p += tables.hi[0]
            hi_w += tables.hi[1]
            hi_d += tables.hi[2]
        self.extrema = QoSExtrema(lo=trusted_qos(lo_p, lo_w, lo_d),
                                  hi=trusted_qos(hi_p, hi_w, hi_d))
        self._bounds = (dim_bounds(lo_p, hi_p), dim_bounds(lo_w, hi_w),
                        dim_bounds(lo_d, hi_d))
        self._center: Optional[tuple[float, float]] = None

    def center_point(self) -> tuple[float, float]:
        """Center of mobility of this user's trajectory, in meters."""
        if self._center is None:
            cell = center_of_mobility(self.user.trajectory, self.grid)
            self._center = self.grid.cell(cell).center
        return self._center

    def evaluate(self, picks: Sequence[int]) -> QoSTriple:
        """Raw LTW QoS of a pick list (one service id per occurrence, in
        iter_occurrences order): entry totals folded from per-occurrence
        QoS, with the hop from each Seq predecessor on a different cloud,
        summed over entries. Raises IncompletePlan unless the list holds
        size picks."""
        if len(picks) != self.size:
            raise IncompletePlan(f"{len(picks)} picks for {self.size} "
                                 f"occurrences")
        hosts = self.hosts
        price = power = delay = 0.0
        base = 0
        for tables in self.entries:
            leaves = []
            for j, rows, prev, hop in tables.steps:
                sid = picks[base + j]
                q = rows[sid]
                if prev is not None:
                    node = hosts[sid]
                    prev_node = hosts[picks[base + prev]]
                    if (node is not None and prev_node is not None
                            and node != prev_node):
                        leaves.append((q[0], q[1], q[2] + hop))
                        continue
                leaves.append(q)
            p, w, d = tables.fold(leaves)
            price += p
            power += w
            delay += d
            base += len(leaves)
        return trusted_qos(price, power, delay)

    def utility_of(self, raw: QoSTriple) -> float:
        """Worst normalized dimension of a raw LTW QoS, in [0, 1]."""
        price, power, delay = self._bounds
        return min(normalize_within(raw.price, price, "price"),
                   normalize_within(raw.power, power, "power"),
                   normalize_within(raw.delay, delay, "delay"))

    def utility(self, picks: Sequence[int]) -> float:
        """Worst normalized dimension of a pick list's LTW QoS, in [0, 1]."""
        return self.utility_of(self.evaluate(picks))

    def local_clouds(self, picks: Sequence[int]) -> set[int]:
        """Capacity-relevant (local) cloud ids a pick list places work on."""
        out = set()
        for sid in picks:
            node = self.hosts[sid]
            if node is not None and self.clouds[node].tier == LOCAL:
                out.add(node)
        return out

    def iter_occurrences(self):
        """Yields (entry_idx, occurrence, candidate_ids) over the LTW."""
        for e, tables in enumerate(self.entries):
            for occ, cands in zip(tables.occs, tables.cands):
                yield e, occ, cands


class GroupInstance:
    """A user group planned jointly around its center of mobility."""

    def __init__(self, group: UserGroup, members: Sequence[UserInstance]):
        if not members:
            raise InvalidGroup(f"group {group.id} has no member instances")
        self.group = group
        self.members = list(members)
        users = {m.user.id: m.user for m in members}
        self._center_vec, _ = center_of_group_mobility(group, users,
                                                       members[0].grid)

    def center_point(self) -> tuple[float, float]:
        return (float(self._center_vec[0]), float(self._center_vec[1]))


# --- candidate search ---------------------------------------------------------

class SearchMemo:
    """Candidate-search state that the proposals of one target share.

    find_service fills it lazily; later proposals reuse what earlier ones
    built:
    - far: per radius index, the local clouds out of reach (see _radius);
    - radii: per (user id, radius index, blocked clouds), None when that
      radius is skipped, else its table (see _radius). The blocked clouds
      are the room rule's set for the call (see clouds_without_room), so
      proposals that see the same full clouds share one table.
    One memo serves one center, one AnnealingParams and one budget vector
    per user, which is what a music() call holds fixed.
    """

    def __init__(self):
        self.far: dict[int, frozenset[int]] = {}
        self.radii: dict[tuple[int, int, frozenset[int]],
                         Optional[list[tuple]]] = {}


def _radius(instance: UserInstance, center: tuple[float, float],
            params: AnnealingParams, i: int, blocked: frozenset[int],
            constraints: ConstraintVector,
            memo: SearchMemo) -> Optional[list[tuple]]:
    """The search table at radius index i for the clouds without room in
    blocked: per occurrence, in entry and preorder order, (entry,
    occurrence, allowed ids, the ids in roulette order -- ascending total
    normalized QoS, then id --, their cumulative weights).

    Reach is a per-cloud rule, like room: every local service is indexed
    at its cloud's cell center, so one range query per radius gives the
    local clouds out of reach. They join blocked, and the allowed ids are
    the baselines' filter over both (see _allowed_candidates), which
    on-device and public services pass at any radius. None when some
    occurrence has no id allowed, or when the optimistic minima over the
    allowed ids break a budget (see _optimistic_fit).
    """
    far = memo.far.get(i)
    if far is None:
        hits = instance.directory.range_query(
            center, params.radius_start_m + i * params.radius_step_m)
        near = {instance.hosts[sid] for sid in hits}
        far = memo.far[i] = frozenset([cid for cid, c in instance.clouds.items()
                                       if c.tier == LOCAL and cid not in near])
    try:
        table = _allowed_candidates(instance, blocked | far)
    except NoFeasibleCandidates:
        return None
    if constraints.bounded() and not _optimistic_fit(instance, table,
                                                     constraints):
        return None
    for k, (e, j, allowed) in enumerate(table):
        snorm = instance.entries[e].snorm[j]
        order = sorted(allowed, key=lambda s: (snorm[s], s))
        table[k] = (e, j, tuple(allowed), order,
                    _roulette_wheel([snorm[s] for s in order]))
    return table


def _optimistic_fit(instance: UserInstance, table: list[tuple],
                    constraints: ConstraintVector) -> bool:
    """Whether the per-occurrence minima over a search table's allowed ids,
    folded through each entry's workflow, fit every budget."""
    entries = instance.entries
    minima: list[list[LeafCost]] = [[] for _ in entries]
    for e, j, ids, *_ in table:
        base = entries[e].base[j]
        prices, powers, delays = zip(*[base[sid] for sid in ids])
        minima[e].append((min(prices), min(powers), min(delays)))
    price = power = delay = 0.0
    for tables, leaves in zip(entries, minima):
        p, w, d = tables.fold(leaves)
        price += p
        power += w
        delay += d
    return constraints.admits(trusted_qos(price, power, delay))


def _repair(instance: UserInstance, table: list[tuple],
            dim: str) -> list[int]:
    """The picks of per-occurrence minima of one dimension over a search
    table's allowed ids, ties to the lowest id."""
    k = DIMS.index(dim)
    picks = []
    for e, j, ids, *_ in table:
        base = instance.entries[e].base[j]
        picks.append(min(ids, key=lambda s: (base[s][k], s)))
    return picks


_UNSEEN = object()


def find_service(instance: UserInstance, center: tuple[float, float],
                 constraints: ConstraintVector, params: AnnealingParams,
                 rng: np.random.Generator,
                 memo: Optional[SearchMemo] = None,
                 blocked: frozenset[int] = _NO_CLOUDS
                 ) -> tuple[list[int], QoSTriple]:
    """Assemble one candidate plan around a center point; returns its pick
    list (see UserInstance.evaluate) and its raw LTW QoS.

    Widens the search radius in steps (radius_start_m + i * radius_step_m,
    i < max_expansions). Reach and room are decided per cloud: a
    cloud-hosted candidate must sit on a cloud outside blocked, the clouds
    without room for this call (see clouds_without_room), and, when the
    cloud is local, inside the radius (see _radius). On-device and public
    services are in reach at any radius. At the first radius where every
    occurrence has a candidate and the optimistic per-dimension minima fit
    the budgets, a plan is drawn by roulette over total normalized QoS,
    with one rng.random(n) call for the n occurrences (the same doubles as
    n scalar draws). If the drawn plan busts a budget, one deterministic
    repair per violated dimension (the per-occurrence minimum of that
    dimension) is tried, in DIMS order, before widening. Each plan drawn or
    repaired is evaluated once.

    memo carries the clouds out of reach and the search table of each
    radius across calls that share the center, params and budgets (see
    SearchMemo and _radius); a table is built only when no earlier call
    with the same blocked clouds built it. None means a fresh memo, so a
    single call builds everything it needs itself.

    Raises NoFeasibleCandidates when every radius fails.
    """
    if memo is None:
        memo = SearchMemo()
    uid = instance.user.id
    bounded = constraints.bounded()
    for i in range(params.max_expansions):
        key = (uid, i, blocked)
        table = memo.radii.get(key, _UNSEEN)
        if table is _UNSEEN:
            table = memo.radii[key] = _radius(instance, center, params, i,
                                              blocked, constraints, memo)
        if table is None:
            continue
        draws = rng.random(len(table)).tolist()
        # the weighted case of _roulette_spin, inlined: a call per
        # occurrence is a large share of a proposal's cost
        picks = [order[bisect_right(cum, draw) if cum is not None
                       else _roulette_spin(cum, len(order), draw)]
                 for (_, _, _, order, cum), draw in zip(table, draws)]
        raw = instance.evaluate(picks)
        # QoSTriple values are finite, so unbounded budgets always hold
        if not bounded or constraints.admits(raw):
            return picks, raw
        for dim in constraints.violated(raw):
            fixed = _repair(instance, table, dim)
            fixed_raw = instance.evaluate(fixed)
            if constraints.admits(fixed_raw):
                return fixed, fixed_raw
    raise NoFeasibleCandidates(
        f"user {instance.user.id}: no feasible plan within "
        f"{params.max_expansions} radius expansions")


# --- MuSIC allocation ---------------------------------------------------------

def music(target, constraints, params: AnnealingParams,
          rng: np.random.Generator,
          ledger: Optional[CapacityLedger] = None) -> AllocationResult:
    """Best-of-N plan search for one user or one group.

    Draws max_iter + 1 independent proposals via find_service (roulette
    selection with budget repair) around the target's center of mobility
    and returns the first one of highest utility; infeasible proposals are
    skipped. For a GroupInstance one proposal re-plans every member and the
    objective is the group mean utility; members of one proposal see each
    other's tentative capacity usage, read from their pick lists, on top of
    the shared ledger. find_service holds each member to its own budget,
    so a proposal keeps every budget member by member (see the module
    docstring). Proposals are scored from the raw QoS that find_service
    returns with each pick list; the winning proposal's lists become the
    members' pick tuples.

    One SearchMemo serves every proposal of the call, so the range query
    around the center per radius, and each member's search table per radius
    and set of clouds without room, are built once and only the draws
    repeat.
    Before each member's search the room rule gives the clouds without
    room. The ledger holds still during the call, so only the tentative
    usage of earlier members of the same proposal can change that set.
    """
    single = isinstance(target, UserInstance)
    members = [target] if single else target.members
    center = target.center_point()
    uids = [m.user.id for m in members]
    memo = SearchMemo()
    no_room = clouds_without_room(ledger)

    def propose() -> Optional[tuple[list[list[int]], list[QoSTriple]]]:
        usage: dict[int, int] = {}
        picks: list[list[int]] = []
        raws: list[QoSTriple] = []
        for k, m in enumerate(members, 1):
            try:
                mine, raw = find_service(
                    m, center, constraints_for(constraints, m.user.id),
                    params, rng, memo,
                    clouds_without_room(ledger, usage) if usage else no_room)
            except NoFeasibleCandidates:
                return None
            picks.append(mine)
            raws.append(raw)
            if k < len(members):  # only later members read the usage
                for cid in m.local_clouds(mine):
                    usage[cid] = usage.get(cid, 0) + 1
        return picks, raws

    best_picks = None
    best_val = -math.inf
    for _ in range(params.max_iter + 1):
        proposal = propose()
        if proposal is None:
            continue
        picks, raws = proposal
        val = fleet_utility({m.user.id: m.utility_of(raw)
                             for m, raw in zip(members, raws)}, uids)
        if val > best_val:
            best_picks, best_val = picks, val
    if best_picks is None:
        return AllocationResult({}, 0.0, False, note="no feasible proposal")
    return AllocationResult({m.user.id: tuple(mine)
                             for m, mine in zip(members, best_picks)},
                            best_val, True)


# --- baseline per-user selectors ----------------------------------------------

def _allowed_candidates(instance: UserInstance, blocked: frozenset[int]
                        ) -> list[tuple[int, int, list[int]]]:
    """(entry, occurrence, allowed ids) rows in iter_occurrences order, the
    ids that may run with the clouds in blocked closed (see with_room);
    raises when a set runs empty."""
    out = []
    for e, occ, cands in instance.iter_occurrences():
        ids = with_room(cands, instance.hosts, blocked)
        if not ids:
            raise NoFeasibleCandidates(
                f"user {instance.user.id}: no available candidate for "
                f"{occ.fn.function_id!r}")
        out.append((e, occ.index, ids))
    return out


def random_plan(instance: UserInstance, rng: np.random.Generator,
                blocked: frozenset[int] = _NO_CLOUDS) -> tuple[int, ...]:
    """Uniform random choice per occurrence among available candidates
    (blocked: clouds without room, see clouds_without_room)."""
    return tuple([ids[int(rng.integers(len(ids)))]
                  for _, _, ids in _allowed_candidates(instance, blocked)])


def rsa_plan(instance: UserInstance, constraints: ConstraintVector,
             rng: np.random.Generator, max_tries: int = 50,
             blocked: frozenset[int] = _NO_CLOUDS) -> tuple[int, ...]:
    """Random selection with admission: resample until budgets fit.

    After max_tries samples it returns the last one, which can break a
    budget; the caller sees the violation through its own constraint check.
    """
    plan = random_plan(instance, rng, blocked)
    for _ in range(max_tries - 1):
        if constraints.admits(instance.evaluate(plan)):
            break
        plan = random_plan(instance, rng, blocked)
    return plan


def greedy_plan(instance: UserInstance,
                blocked: frozenset[int] = _NO_CLOUDS) -> tuple[int, ...]:
    """Highest total normalized QoS per occurrence, ties to the lowest id,
    among available candidates (blocked: clouds without room).

    Budgets play no part: the plan can break any of them.
    """
    picks = []
    for e, occ_idx, ids in _allowed_candidates(instance, blocked):
        norms = instance.entries[e].snorm[occ_idx]
        picks.append(max(ids, key=lambda s: (norms[s], -s)))
    return tuple(picks)


# --- fleet drivers --------------------------------------------------------------

def objective_from_plans(instances: Mapping[int, UserInstance],
                         plans: Mapping[int, Sequence[int]],
                         groups: Optional[Sequence[UserGroup]] = None) -> float:
    """Fleet objective of concrete plans; users without a plan score 0.

    Ungrouped: mean over users of the worst normalized dimension. Grouped:
    mean over groups of the member mean (see fleet_utility).
    """
    utils = {uid: inst.utility(plans[uid])
             for uid, inst in instances.items() if uid in plans}
    return fleet_utility(utils, sorted(instances), groups)


def _admit_plan(instance: UserInstance, plan: Sequence[int],
                ledger: Optional[CapacityLedger]) -> None:
    if ledger is None:
        return
    for cid in sorted(instance.local_clouds(plan)):
        if not ledger.try_admit(cid):
            raise AdmissionRefused(f"cloud {cid} filled up mid-admission")


def _sequential(instances: Mapping[int, UserInstance], plan_fn,
                rng: np.random.Generator,
                ledger: Optional[CapacityLedger]) -> AllocationResult:
    """Allocate per user in seeded random order, admitting capacity as we go.

    plan_fn(instance, blocked) plans one user, blocked being the clouds
    without room at that user's turn."""
    uids = sorted(instances)
    order = [uids[i] for i in rng.permutation(len(uids))]
    plans: dict[int, tuple[int, ...]] = {}
    notes = []
    for uid in order:
        inst = instances[uid]
        try:
            plan = plan_fn(inst, clouds_without_room(ledger))
        except NoFeasibleCandidates as exc:
            notes.append(str(exc))
            continue
        plans[uid] = plan
        _admit_plan(inst, plan, ledger)
    return AllocationResult(plans, None, len(plans) == len(instances),
                            note="; ".join(notes))


def allocate_rsa(instances: Mapping[int, UserInstance],
                 constraints, rng: np.random.Generator,
                 ledger: Optional[CapacityLedger] = None) -> AllocationResult:
    """Random-selection baseline over the fleet, user by user; see rsa_plan
    for how a user's plan can still break its budget."""
    return _sequential(
        instances,
        lambda inst, blocked: rsa_plan(
            inst, constraints_for(constraints, inst.user.id), rng,
            blocked=blocked),
        rng, ledger)


def allocate_greedy(instances: Mapping[int, UserInstance],
                    rng: np.random.Generator,
                    ledger: Optional[CapacityLedger] = None) -> AllocationResult:
    """Greedy argmax baseline over the fleet, user by user (rng orders the
    users only). Greedy plans are budget-blind."""
    return _sequential(instances, greedy_plan, rng, ledger)


def allocate_music(instances: Mapping[int, UserInstance],
                   constraints, params: AnnealingParams,
                   rng: np.random.Generator,
                   ledger: Optional[CapacityLedger] = None,
                   groups: Optional[Sequence[UserGroup]] = None
                   ) -> AllocationResult:
    """MuSIC allocation over the fleet.

    Without groups each user runs its own best-of-N search (its own center);
    with groups each group searches jointly around the group center. Targets
    are processed in seeded random order and admit their capacity before the
    next target plans.
    """
    if groups is None:
        targets = [instances[uid] for uid in sorted(instances)]
    else:
        targets = [GroupInstance(grp, [instances[m] for m in sorted(grp.members)])
                   for grp in sorted(groups, key=lambda x: x.id)]
    order = rng.permutation(len(targets))
    plans: dict[int, tuple[int, ...]] = {}
    notes = []
    all_feasible = True
    for idx in order:
        target = targets[idx]
        res = music(target, constraints, params, rng, ledger=ledger)
        if not res.feasible:
            all_feasible = False
            notes.append(res.note)
            continue
        members = [target] if isinstance(target, UserInstance) else target.members
        for m in members:
            plan = res.plans[m.user.id]
            plans[m.user.id] = plan
            _admit_plan(m, plan, ledger)
    return AllocationResult(plans, None, all_feasible, note="; ".join(notes))


# --- exhaustive optimum ----------------------------------------------------------

_SCORE_CHUNK = 1 << 16


def _unravel(flat, sizes: Sequence[int]) -> list:
    """np.unravel_index(flat, sizes) for any number of axes (numpy's stops at
    64): the C-order index along each axis of flat, an int or an int array."""
    picks = []
    for size in reversed(sizes):
        picks.append(flat % size)
        flat = flat // size
    return picks[::-1]


def _joint_scores(utils: Sequence[Sequence[float]], users: Sequence[int],
                  groups: Optional[Sequence[UserGroup]] = None) -> np.ndarray:
    """fleet_utility of every combination of one utility per user (utils[i]
    lists users[i]'s), in itertools.product order.

    Combinations are scored in chunks of a C-contiguous (combinations x
    users) array. np.mean along axis 1 of such an array equals np.mean of
    each row, so every score is the float fleet_utility returns: the mean
    over users, or over groups (in the given order) of the mean over
    members by id.
    """
    if not users:
        return np.array([fleet_utility({}, users, groups)])
    if groups is not None and not groups:
        raise InvalidGroup("objective over no groups")
    sizes = [len(u) for u in utils]
    columns = [np.asarray(u, dtype=float) for u in utils]
    index = {uid: i for i, uid in enumerate(users)}
    total = math.prod(sizes)
    scores = np.empty(total)
    for start in range(0, total, _SCORE_CHUNK):
        picks = _unravel(np.arange(start, min(start + _SCORE_CHUNK, total)),
                         sizes)
        table = np.empty((len(picks[0]), len(users)))
        for i, (column, pick) in enumerate(zip(columns, picks)):
            table[:, i] = column[pick]
        if groups is None:
            chunk = table[:, 0] if len(users) == 1 else table.mean(axis=1)
        else:
            # a member without an instance scores 0, as in fleet_utility
            chunk = np.stack([
                np.stack([table[:, index[m]] if m in index
                          else np.zeros(len(table))
                          for m in sorted(g.members)], axis=1).mean(axis=1)
                for g in groups], axis=1).mean(axis=1)
        scores[start:start + len(chunk)] = chunk
    return scores


def brute_force_optimal(instances: Mapping[int, UserInstance],
                        constraints: ConstraintVector,
                        ledger: Optional[CapacityLedger] = None,
                        groups: Optional[Sequence[UserGroup]] = None,
                        cap: int = 1_000_000) -> AllocationResult:
    """Exact optimum by enumeration, for small instances.

    A user's plans are the pick tuples its candidates allow (see
    _allowed_candidates), kept when the budgets admit their raw QoS (see
    the module docstring). Leaving out a candidate on a cloud without room
    (see clouds_without_room) is exact: any combination using it breaks
    that cloud's capacity. A user with no admissible plan is unplaced and
    scores 0, as in music; feasible says whether every user got a plan.

    Only a binding cloud (room in (0, users)) can overfill, and room
    depends only on the clouds a plan uses. So each user's plans are walked
    once and reduced to options: per set of binding clouds used, the first
    best plan, ordered by its place in the product (an unplaced user has
    one option: utility 0, no clouds). Every combination of options is
    scored (see _joint_scores) and checked in descending score order, ties
    in product order, until one keeps every cloud's room
    (CapacityLedger.room). When nothing binds, one combination is scored.
    A placeable user is never left out to make room, so room and budgets
    together can leave no feasible combination.

    cap bounds each user's plan space and, before any plan is evaluated,
    the product over users of min(plan space, 2 ** binding clouds hosting
    one of its candidates); TooLargeForEnumeration when either exceeds it.
    NoFeasibleCandidates when an occurrence has no candidate with room.
    """
    if not isinstance(constraints, ConstraintVector):
        raise ValueError("exhaustive search takes one shared constraint vector")
    uids = sorted(instances)
    if ledger is None:
        ledger = CapacityLedger({})
    no_room = clouds_without_room(ledger)
    binding = frozenset(cid for cid in ledger.capacities()
                        if 0 < ledger.room(cid) < len(uids))
    pools_of: dict[int, list[list[int]]] = {}
    bound = 1
    for uid in uids:
        inst = instances[uid]
        # per occurrence, the ids that may run: the plan space is their product
        pools = pools_of[uid] = [ids for _, _, ids in
                                 _allowed_candidates(inst, no_room)]
        size = math.prod(map(len, pools))
        if size > cap:
            raise TooLargeForEnumeration(
                f"user {inst.user.id}: plan space exceeds {cap}")
        reach = binding.intersection(inst.hosts[sid] for ids in pools
                                     for sid in ids)
        bound *= min(size, 2 ** len(reach))
        if bound > cap:
            raise TooLargeForEnumeration(f"joint option space exceeds {cap}")
    # QoSTriple values are finite, so unbounded budgets always hold
    bounded = constraints.bounded()
    # per user, in uid order: (picks, utility, binding clouds used) of each
    # option, or the one unplaced row
    spaces: list[list[tuple]] = []
    for uid in uids:
        inst = instances[uid]
        evaluate, utility_of = inst.evaluate, inst.utility_of
        # binding clouds used -> (product index, picks, utility, clouds)
        best: dict[AbstractSet[int], tuple] = {}
        key = _NO_CLOUDS
        for i, picks in enumerate(itertools.product(*pools_of[uid])):
            raw = evaluate(picks)
            if bounded and not constraints.admits(raw):
                continue
            u = utility_of(raw)
            if binding:
                key = binding.intersection(inst.local_clouds(picks))
            if key not in best or u > best[key][2]:
                best[key] = (i, picks, u, key)
        spaces.append([row[1:] for row in sorted(best.values())]
                      or [(None, 0.0, _NO_CLOUDS)])

    def fits(chosen: Sequence[tuple]) -> bool:
        usage: dict[int, int] = {}
        for _, _, clouds in chosen:
            for cid in clouds:
                usage[cid] = usage.get(cid, 0) + 1
        return all(n <= ledger.room(cid) for cid, n in usage.items())

    by_id = None if groups is None else sorted(groups, key=lambda x: x.id)
    sizes = [len(rows) for rows in spaces]
    scores = _joint_scores([[row[1] for row in rows] for rows in spaces],
                           uids, by_id)
    # the first feasible combination in descending score order, ties in
    # product order: the first best feasible one
    for k in np.argsort(-scores, kind="stable"):
        chosen = [rows[i] for rows, i in zip(spaces, _unravel(k, sizes))]
        if fits(chosen):
            plans = {uid: row[0] for uid, row in zip(uids, chosen)
                     if row[0] is not None}
            return AllocationResult(plans, float(scores[k]),
                                    len(plans) == len(uids))
    return AllocationResult({}, 0.0, False, note="no feasible joint assignment")
