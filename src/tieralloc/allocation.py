"""Allocation algorithms: MuSIC's best-of-N search, random and greedy
baselines, and the exhaustive optimum.

Planning happens per user (or per group) around the center of mobility, in
one find_service call per target. The candidate search widens its radius in
fixed steps; at each radius a plan is assembled by roulette-wheel selection
over the candidates' total normalized QoS, then checked against the budget
constraints and repaired per violated dimension. find_service draws
max_iter + 1 such proposals independently, from one block of doubles in
which each member of each proposal has its own slot, read at every radius,
and returns the first one of highest utility, or raises
NoFeasibleCandidates when none plans every member.

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
served in a seeded random order: one driver (_sequential) places the targets
of every fleet allocator, users for greedy and rsa, users or groups for
music.

The exhaustive optimum takes one path: each user's best plan per set of
binding clouds, combined once (brute_force_optimal). Its cap bounds each
user's plan space and that option product, before any plan is evaluated.

Many plans are scored at once by PlanArrays, by the scalar evaluator's rules
run on columns of plans: every member of every MuSIC proposal of a target,
and the optimum's plan spaces, whose combinations fleet_utility scores over
columns. Each LTW entry folds into one row of an entry block, and a plan's
QoS is the sum of its entries' rows, from 0.0 in entry order. So each rule
is stated once.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import (AbstractSet, Callable, Container, Iterator, Mapping,
                    NamedTuple, Optional, Sequence)

import numpy as np

from .errors import (AdmissionRefused, IncompletePlan, InvalidGroup,
                     NoFeasibleCandidates, NoRealizingService,
                     TooLargeForEnumeration)
from .model import (LOCAL, LocationMap, MobileUser, UserGroup, _pairwise_sum,
                    center_of_group_mobility, center_of_mobility)
from .profiles import (ProfileSet, Rates, _costs, intercloud_ms,
                       service_rates)
from .registry import NO_LEDGER, CapacityLedger, ServiceDirectory
from .workflow import (DIMS, LTW, FoldFn, LeafCost, Occurrence, QoSExtrema,
                       QoSTriple, WorkflowNode, dim_bounds, fold_of,
                       normalize_within, outline, trusted_qos)


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
            (k, d, self.get(d)) for k, d in enumerate(DIMS)
            if math.isfinite(self.get(d))))

    def get(self, dim: str) -> float:
        return getattr(self, dim)

    def bounded(self) -> bool:
        return bool(self._finite)

    def breaches(self, raw: Sequence) -> list[tuple[str, object]]:
        """The budget test: (dimension, raw value > budget) per finite
        budget, in DIMS order. raw holds price, power and delay: the floats
        of one plan, giving bools, or equal-length arrays with one element
        per plan (PlanArrays.raw), giving masks."""
        return [(d, raw[k] > budget) for k, d, budget in self._finite]

    def violated(self, raw: QoSTriple) -> list[str]:
        """Dimensions, in DIMS order, on which raw QoS exceeds its budget."""
        return [d for d, over in self.breaches(raw.as_tuple()) if over]

    def admits(self, raw: QoSTriple) -> bool:
        """Whether raw QoS fits every budget, boundary inclusive. QoS is
        finite, so it fits when no budget is."""
        return not self._finite or not self.violated(raw)

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
    over groups, in the given order, of the mean over members by id. Each
    mean is np.mean's float in plain Python: numpy's pairwise summation
    order (see _pairwise_sum), then one division by the count. Utilities
    may be floats or equal-length arrays (see _joint_scores), whose
    elements are the floats that the same utilities as floats give.
    """
    if groups is None:
        if not users:
            raise ValueError("objective over no users")
        return _mean([utils.get(u, 0.0) for u in users])
    if not groups:
        raise InvalidGroup("objective over no groups")
    return _mean([_mean([utils.get(u, 0.0) for u in sorted(g.members)])
                  for g in groups])


def _mean(vals: list[float]) -> float:
    """float(np.mean(vals)) of a non-empty list of floats."""
    n = len(vals)
    return _pairwise_sum(vals, 0, n) / n


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


def clouds_without_room(ledger: CapacityLedger,
                        held: Container[int] = _NO_CLOUDS) -> frozenset[int]:
    """The clouds a candidate cannot be placed on: the room rule over a
    fresh reading of the ledger, with no tentative usage (see room_rule)."""
    return room_rule(ledger, held).full


def room_rule(ledger: CapacityLedger,
              held: Container[int] = _NO_CLOUDS) -> "RoomRule":
    """The room rule over one reading of the ledger: a RoomRule holding the
    room of each tracked cloud the caller does not hold.

    A candidate's room depends only on its host cloud. A tracked cloud has
    none when the ledger's room minus tentative usage (cloud id -> users
    placed on it) is <= 0, unless the caller already holds it; untracked
    clouds always have room, so under the empty ledger (NO_LEDGER) every
    cloud has.

    The room of each tracked cloud is read once, so the rule is right while
    the ledger holds still, as it does in a music call.
    """
    return RoomRule({cid: ledger.room(cid) for cid in ledger.capacities()
                     if cid not in held})


class RoomRule:
    """One reading of the ledger's room, and the room rule over it.

    rooms maps each cloud that tentative usage can fill to its room at the
    reading; full holds the clouds without room at the reading, those with
    room <= 0. Called with tentative usage, the rule gives the clouds
    without room under it: full, and each cloud of rooms that the usage
    leaves with room - usage <= 0. A call tests only the clouds in usage;
    with no usage, full itself is returned.
    """

    __slots__ = ("rooms", "full")

    def __init__(self, rooms: Mapping[int, float]):
        self.rooms = rooms
        self.full = frozenset([cid for cid, room in rooms.items()
                               if room <= 0])

    def __call__(self, usage: Mapping[int, int]) -> frozenset[int]:
        if not usage:
            return self.full
        rooms = self.rooms
        return self.full.union([cid for cid, n in usage.items()
                                if cid in rooms and rooms[cid] - n <= 0])


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
    device).

    A pair pays nothing when either side is on the device or both share a
    cloud (free), and otherwise intercloud_ms(kb) (paid). Two non-empty
    host sets have a free or a paid pair: with no device and no shared
    cloud, both hold clouds only, and any pair is two different clouds.
    """
    clouds, prev_clouds = hosts - {None}, prev_hosts - {None}
    free = (None in hosts or None in prev_hosts
            or not clouds.isdisjoint(prev_clouds))
    paid = (bool(clouds) and bool(prev_clouds)
            and not (len(clouds) == 1 and clouds == prev_clouds))
    hop = intercloud_ms(kb, profiles)
    return (0.0 if free else hop, hop if paid else 0.0)


# rows costed per array pass: enough to spread numpy's per-call cost over
# a fleet's rows, few enough that the pass's temporary arrays stay small
_PASS_ROWS = 4096

# the host code of a device service in CostStore.codes; a cloud's is its id
_ON_DEVICE = -(1 << 63)

# the host set of device services
_DEVICE_HOST: frozenset[Optional[int]] = frozenset([None])


class CostStore:
    """A population's costed candidate rows, in flat columns.

    Row i is one (entry, occurrence, candidate) of the costing passes, in
    build order: the candidate's raw price, power and delay at the entry's
    cell, its total normalized QoS within the occurrence's candidates
    (snorm) and its host code (the host cloud's id, or _ON_DEVICE). An
    occurrence's candidates take consecutive rows, in id order, from its
    start (see _EntryTables). The scalar readers index the float lists
    price, power, delay and snorm one row at a time; PlanArrays gathers
    from the arrays cols (price, power and delay by row) and codes in one
    fancy index. Both forms hold the same floats. A pass appends its rows,
    and rows never move.
    """

    __slots__ = ("price", "power", "delay", "snorm", "_cols", "_codes")

    def __init__(self):
        self.price: list[float] = []
        self.power: list[float] = []
        self.delay: list[float] = []
        self.snorm: list[float] = []
        # one (3 x rows) and one rows-long block per pass, joined on demand
        self._cols: list[np.ndarray] = []
        self._codes: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self.price)

    def append(self, cols: Sequence[np.ndarray], snorm: np.ndarray,
               codes: np.ndarray) -> None:
        """Add one pass's rows: its price, power and delay columns, their
        total normalized QoS and host codes."""
        for column, values in zip((self.price, self.power, self.delay,
                                   self.snorm), (*cols, snorm)):
            column += values.tolist()
        self._cols.append(np.array(cols))
        self._codes.append(codes)

    @property
    def cols(self) -> np.ndarray:
        """The (3 x rows) array of every row's price, power and delay."""
        if len(self._cols) > 1:
            self._cols = [np.concatenate(self._cols, axis=1)]
        return self._cols[0]

    @property
    def codes(self) -> np.ndarray:
        """Every row's host code (see CostStore)."""
        if len(self._codes) > 1:
            self._codes = [np.concatenate(self._codes)]
        return self._codes[0]


def _positions(ids: list[int]) -> dict[int, int]:
    """Each id's position in ids."""
    return {sid: k for k, sid in enumerate(ids)}


class CostMemo:
    """What the planning tables of one population share, the pass that
    costs them, and the store that holds their rows (see CostStore).

    - per function id: its cloud candidate ids, in id order, the set of
      their host clouds and each id's position among them; per (function
      id, WiFi owner of the entry's cell), those with the rate_table column
      of each one's resolved cost, which every user without a device
      service for the function takes (candidate_services);
    - per (function id, user id) (merged), for a user with device
      services for the function: those services merged with the cloud
      candidates, in id order, their host set (None: on the device), their
      positions, where each merged id sits among the cloud ids then the
      device ones, and the device services' rate_table columns; for a user
      with none, (), so the directory is asked once per pair;
    - per (function id, user id, WiFi owner), for such a user: the merged
      candidates with rate_table columns spliced from that owner's cloud
      columns and the user's device columns, the only part that depends on
      the owner;
    - per cloud service id and WiFi owner, and per device service id (a
      device run uses no link, so coverage plays no part): the rate_table
      column of the service's resolved cost (profiles.service_rates) and
      its host code;
    - per (user id, workflow object, WiFi owner of the entry's cell): the
      entry's planning tables (see tables_of), whose rows sit in store.

    So users with the same candidate set share one id list and one
    position map, and no candidate row is held outside the store.

    expect queues an LTW's entries. The first tables_of that misses costs
    every queued entry, in queue order, in numpy passes over about
    _PASS_ROWS (entry, occurrence, candidate) rows each (see _cost_block),
    so a caller that queues a whole population first has it costed at
    once.

    Each entry is read from the directory and the profile set when it is
    first needed, and is right only while they do not change. So one memo
    serves one population, the true and the predicted instances of one
    repetition, and is dropped once they are built; its store lives on in
    the instances.
    """

    __slots__ = ("directory", "profiles", "cloud_ids", "clouds", "merged",
                 "candidates", "host_sets", "rates", "new_rates",
                 "new_codes", "rate_table", "rate_codes", "tables", "queued",
                 "store")

    def __init__(self, directory: ServiceDirectory, profiles: ProfileSet):
        self.directory = directory
        self.profiles = profiles
        self.cloud_ids: dict[str, tuple[list[int], frozenset[Optional[int]],
                                        dict[int, int]]] = {}
        self.clouds: dict[tuple[str, Optional[int]], _Candidates] = {}
        self.merged: dict[tuple[str, int], tuple] = {}
        self.candidates: dict[tuple[str, int, Optional[int]],
                              _Candidates] = {}
        self.host_sets: dict[frozenset[Optional[int]],
                             frozenset[Optional[int]]] = {}
        # keyed by (service id, WiFi owner) for cloud services, by service
        # id for device services
        self.rates: dict[object, int] = {}
        # one column per resolved cost, one row per Rates field, and each
        # column's host code; and the costs resolved since the last pass,
        # which appends them
        self.rate_table: Optional[np.ndarray] = None
        self.rate_codes: Optional[np.ndarray] = None
        self.new_rates: list[Rates] = []
        self.new_codes: list[int] = []
        self.tables: dict[tuple[int, int, Optional[int]], _EntryTables] = {}
        self.queued: dict[tuple[int, int, Optional[int]],
                          tuple[MobileUser, WorkflowNode, Optional[int]]] = {}
        self.store = CostStore()

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
                      covered_by: Optional[int]) -> "_Candidates":
        """The user's candidates for the function (candidate_services) run
        from a cell whose WiFi access point belongs to cloud covered_by
        (None: no coverage): the function's cloud candidates there, which
        every user shares, merged with the user's device services, whose
        columns are spliced from the cloud columns and the device ones."""
        cloud = self.clouds.get((function_id, covered_by))
        if cloud is None:
            found = self.cloud_ids.get(function_id)
            if found is None:
                ids = sorted(self.directory.cloud_services_for(function_id))
                hosts = self.directory.hosts
                found = self.cloud_ids[function_id] = (
                    ids, self._host_set(frozenset([hosts[sid]
                                                   for sid in ids])),
                    _positions(ids))
            cloud = self.clouds[(function_id, covered_by)] = _Candidates(
                *found, [self._rate_column(sid, covered_by)
                         for sid in found[0]])
        merged = self.merged.get((function_id, user.id))
        if merged is None:
            device = self.directory.device_services_for(user.id, function_id)
            if device:
                both = [*cloud.ids, *device]
                take = sorted(range(len(both)), key=both.__getitem__)
                ids = [both[k] for k in take]
                merged = (ids, self._host_set(cloud.hosts | _DEVICE_HOST),
                          _positions(ids), take,
                          [self._rate_column(sid, covered_by)
                           for sid in device])
            else:
                merged = ()
            self.merged[(function_id, user.id)] = merged
        if not merged:
            if not cloud.ids:
                raise NoRealizingService(
                    f"no service realizes {function_id!r}")
            return cloud
        key = (function_id, user.id, covered_by)
        found = self.candidates.get(key)
        if found is None:
            ids, hosts, where, take, device_columns = merged
            columns = [*cloud.columns, *device_columns]
            found = self.candidates[key] = _Candidates(
                ids, hosts, where, [columns[k] for k in take])
        return found

    def _host_set(self, host_set: frozenset[Optional[int]]
                  ) -> frozenset[Optional[int]]:
        """One object per distinct set of host clouds (None: on the
        device): few exist."""
        return self.host_sets.setdefault(host_set, host_set)

    def _rate_column(self, sid: int, covered_by: Optional[int]) -> int:
        """The rate_table column of service sid's resolved cost from a cell
        whose WiFi access point belongs to cloud covered_by."""
        directory = self.directory
        host = directory.hosts[sid]
        key = sid if host is None else (sid, covered_by)
        column = self.rates.get(key)
        if column is None:
            column = self.rates[key] = len(self.rates)
            self.new_rates.append(service_rates(
                directory.service(sid), covered_by, directory.clouds,
                self.profiles))
            self.new_codes.append(_ON_DEVICE if host is None else host)
        return column

    def _cost_queued(self) -> None:
        """Build the tables of every queued entry, in queue order, one
        _cost_block per _PASS_ROWS rows or so (whole entries each)."""
        queued, self.queued = self.queued, {}
        block: list[tuple] = []
        kbs: list[float] = []
        counts: list[int] = []
        columns: list[int] = []
        for key, (user, workflow, covered_by) in queued.items():
            occs, shape = outline(workflow)
            sets = []
            for occ in occs:
                found = self.candidates_of(occ.fn.function_id, user,
                                           covered_by)
                sets.append(found)
                kbs.append(occ.fn.input_kb)
                counts.append(len(found.ids))
                columns += found.columns
            block.append((key, workflow, occs, shape, sets))
            if len(columns) >= _PASS_ROWS:
                self._cost_block(block, kbs, counts, columns)
                block, kbs, counts, columns = [], [], [], []
        if block:
            self._cost_block(block, kbs, counts, columns)

    def _cost_block(self, block: list[tuple], kbs: list[float],
                    counts: list[int], columns: list[int]) -> None:
        """One array pass: cost every (entry, occurrence, candidate) row of
        the block's entries (profiles._costs), check the rows, take each
        occurrence's envelope and total normalized QoS, append the rows to
        the store and give each entry its tables over them.

        The rows enter checked: when every component is finite and none is
        negative they are used as they are; otherwise each row goes through
        the QoSTriple constructor, in build order, so the first bad row
        raises its ValueError and the store takes none of the block. The
        total normalized QoS of a candidate is sqrt(n_p ** 2 + n_w ** 2 +
        n_d ** 2), n being (hi - value) / (hi - lo) within its occurrence's
        candidates, or 1.0 when hi == lo; the squares are libm's pow, as
        Python's ** takes them, through np.float_power.
        """
        if self.new_rates:
            new = np.array(self.new_rates, dtype=float).T
            codes = np.array(self.new_codes, dtype=np.int64)
            if self.rate_table is None:
                self.rate_table, self.rate_codes = new, codes
            else:
                self.rate_table = np.concatenate((self.rate_table, new),
                                                 axis=1)
                self.rate_codes = np.concatenate((self.rate_codes, codes))
            self.new_rates, self.new_codes = [], []
        counts_a = np.array(counts)
        starts = [0, *itertools.accumulate(counts)][:-1]
        # row i runs under the resolved cost in rate_table column columns[i];
        # one field at a time, so no (fields x rows) block is allocated
        index = np.array(columns)
        cols = _costs([field.take(index) for field in self.rate_table],
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
        store = self.store
        first = len(store)
        store.append(cols, np.sqrt(total, out=total),
                     self.rate_codes.take(index))
        envelopes = zip(zip(*(a.tolist() for a in lows)),
                        zip(*(a.tolist() for a in highs)),
                        starts)
        profiles = self.profiles
        for key, workflow, occs, shape, sets in block:
            tables = self.tables[key] = _EntryTables(workflow, occs, shape)
            cands, steps = tables.cands, tables.steps
            env_lo: list[LeafCost] = []
            env_hi: list[LeafCost] = []
            for occ, found, (lo, hi, start) in zip(occs, sets, envelopes):
                lo_hop = hi_hop = hop = 0.0
                if occ.prev is not None:
                    kb = occ.fn.input_kb
                    lo_hop, hi_hop = _hop_extremes(
                        found.hosts, sets[occ.prev].hosts, kb, profiles)
                    hop = intercloud_ms(kb, profiles)
                env_lo.append((lo[0], lo[1], lo[2] + lo_hop))
                env_hi.append((hi[0], hi[1], hi[2] + hi_hop))
                cands.append(found.ids)
                steps.append((first + start, found.where,
                              occ.prev if hop else None, hop))
            # every fold rule is monotone per dimension, so folding the
            # envelopes bounds what any plan of the entry can reach
            tables.lo = tables.fold(env_lo)
            tables.hi = tables.fold(env_hi)


class _Candidates(NamedTuple):
    """One candidate set of a CostMemo: the ids, in id order, their host
    set (None: on the device), each id's position among them, and the
    rate_table column of each one's resolved cost."""

    ids: list[int]
    hosts: frozenset[Optional[int]]
    where: dict[int, int]
    columns: list[int]


class _EntryTables:
    """One LTW entry's planning tables.

    They depend only on the user, the entry's workflow object and the WiFi
    owner of its cell, and the population's CostMemo keeps one object per
    such key, filled by its costing pass (see CostMemo._cost_block). Per
    occurrence, in preorder, cands holds the realizing candidate ids, in
    id order, and steps a step (start, where, predecessor index, hop):
    candidate sid's row in the memo's store (see CostStore) is start +
    where[sid], where being the position map that every user with the same
    candidate set shares. No candidate's costs are held here. The
    predecessor index is None when the occurrence has no Seq predecessor or
    the hop costs nothing; hop is intercloud_ms(kb), paid only between two
    different clouds. shape keys the entry's compiled folds (see outline);
    lo and hi are its folded envelopes.
    """

    __slots__ = ("workflow", "occs", "cands", "steps", "shape", "fold",
                 "lo", "hi")

    def __init__(self, workflow: WorkflowNode, occs: list[Occurrence],
                 shape: tuple):
        self.workflow = workflow
        self.occs = occs
        self.cands: list[list[int]] = []
        self.steps: list[tuple[int, dict[int, int], Optional[int],
                               float]] = []
        self.shape = shape
        self.fold = fold_of(shape)
        self.lo: LeafCost = (0.0, 0.0, 0.0)
        self.hi: LeafCost = (0.0, 0.0, 0.0)

    def values(self, j: int, ids: Sequence[int],
               column: list[float]) -> list[float]:
        """A store column's values (CostStore.price, ..., snorm) at
        occurrence j's candidates ids, in order."""
        start, where, _, _ = self.steps[j]
        return [column[start + where[sid]] for sid in ids]


class UserInstance:
    """One user's location-time workflow with cached candidate QoS.

    entries[e] holds entry e's planning tables (see _EntryTables): per
    function occurrence, in preorder (occurrence indices equal preorder
    positions), the realizing candidate ids and where their rows sit in
    store, the population's CostStore; and the entry's compiled fold, hop
    values and envelope. Candidate sid of entry e's occurrence j has its
    raw QoS at the entry's cell and its total normalized QoS within that
    candidate set in store row start + where[sid] of entries[e].steps[j],
    so evaluate and utility_of work on plain floats read from the store's
    lists.
    extrema sums the entry envelopes for whole-LTW normalization.

    A plan is a pick list: one service id per occurrence, in
    iter_occurrences order (entry by entry, preorder within an entry), so
    entry e's occurrence j sits at position base + j, base being the
    occurrence count of the entries before e. size is the list's length.
    Allocators return plans as pick tuples.

    memo is the CostMemo of the population being built, over the same
    directory and profiles; it lives for that one population and no
    instance keeps it, only its store. Instances built through one memo
    share the tables of entries with the same user, workflow object and
    WiFi owner at the cell, and one store. None builds a memo, and a
    store, for this instance alone.
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
        self.store = memo.store
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
        store = self.store
        prices, powers, delays = store.price, store.power, store.delay
        price = power = delay = 0.0
        base = 0
        for tables in self.entries:
            leaves = []
            for j, (start, where, prev, hop) in enumerate(tables.steps):
                sid = picks[base + j]
                i = start + where[sid]
                d = delays[i]
                if prev is not None:
                    node = hosts[sid]
                    prev_node = hosts[picks[base + prev]]
                    if (node is not None and prev_node is not None
                            and node != prev_node):
                        d += hop
                leaves.append((prices[i], powers[i], d))
            p, w, d = tables.fold(leaves)
            price += p
            power += w
            delay += d
            base += len(leaves)
        return trusted_qos(price, power, delay)

    def utility_of(self, raw: QoSTriple) -> float:
        """Worst normalized dimension of a raw LTW QoS, in [0, 1]: the min
        over DIMS of normalize_within, in one pass. A dimension's value is
        (hi - value) / span where that lies in (0, 1), else the bound it
        passes; out of range, normalize_within raises."""
        worst = 1.0
        for value, (lo, hi, span, low, high), what in zip(
                (raw.price, raw.power, raw.delay), self._bounds, DIMS):
            if span == 0:
                continue
            if value < low or value > high:
                normalize_within(value, (lo, hi, span, low, high), what)
            u = (hi - value) / span
            if u < worst:
                worst = u if u > 0.0 else 0.0
        return worst

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


class PlanArrays:
    """Plans of one or more users side by side, over fixed candidate lists,
    scored in array passes.

    members lists the users' UserInstances. lists[k] holds the ids that
    occurrence k picks from, in iter_occurrences order, member after
    member. A batch of plans is a (occurrences x plans) matrix
    of positions into those lists: column r is plan r of every member.

    Scores follow UserInstance.evaluate's rules on columns, in two stages.
    entry_raw gives the entry block: one row per LTW entry, member after
    member, holding that entry's workflow QoS. A hop is paid where both
    host codes (see CostStore) are clouds and differ, as np.where(paid,
    d + hop, d), and each entry folds through fold_of(shape, np.maximum),
    all the entries of one shape in one call. raw then sums each member's
    entries by one rule: member m's d-th entry is row first_m + d, and the
    totals start at 0.0 and add each depth's rows in entry order, so each
    is ((0.0 + e0) + e1) + ... like evaluate's. A member with fewer
    entries than another reads the block's last row, 0.0, which changes
    no sum. utility is utility_of's clamp-and-min on those columns. So
    every value is == the scalar one. A column holds one row per member.

    The candidates' costs and host codes are gathered from the members'
    stores in one fancy index per store: members built through one
    CostMemo share one, and others, such as instances built with memo=None,
    each gather from their own.
    """

    __slots__ = ("members", "starts", "cols", "codes", "hops", "folds",
                 "depths", "entries", "firsts")

    def __init__(self, members: Sequence[UserInstance],
                 lists: Sequence[Sequence[int]]):
        self.members = list(members)
        # per run of members with one store: the store and the rows to
        # gather; and each occurrence's list length
        segments: list[tuple[CostStore, list[int]]] = []
        sizes: list[int] = []
        hops: list[tuple[int, int, float]] = []
        # per fold: its leaf count, and the first occurrence and the block
        # row of each entry it folds
        shapes: dict[FoldFn, tuple[int, list[int], list[int]]] = {}
        self.firsts: list[int] = []
        k = e = 0
        for member in self.members:
            if not segments or segments[-1][0] is not member.store:
                segments.append((member.store, []))
            rows = segments[-1][1]
            self.firsts.append(k)
            for tables in member.entries:
                for j, (start, where, prev, hop) in enumerate(tables.steps):
                    ids = lists[k + j]
                    sizes.append(len(ids))
                    rows += [start + where[sid] for sid in ids]
                    if prev is not None:
                        hops.append((k + j, k + prev, hop))
                _, firsts, at = shapes.setdefault(
                    fold_of(tables.shape, np.maximum),
                    (len(tables.steps), [], []))
                firsts.append(k)
                at.append(e)
                k += len(tables.steps)
                e += 1
        # per fold, the index of its leaves' occurrence rows, (leaves x
        # entries) or a (leaves x 1) view for a fold of one entry, and its
        # entries' block rows, a slice where they are consecutive
        self.folds = [(fold, (slice(firsts[0], firsts[0] + n), None)
                       if len(firsts) == 1 else _leaf_rows(n, tuple(firsts)),
                       slice(at[0], at[-1] + 1)
                       if at[-1] - at[0] == len(at) - 1 else np.array(at))
                      for fold, (n, firsts, at) in shapes.items()]
        self.entries = e
        # per entry depth, each member's block row: a strided view when
        # every member has c entries, else an index whose row e (the
        # block's last, 0.0) stands for a member without an entry there
        counts = [len(m.entries) for m in self.members]
        c = counts[0]
        if counts.count(c) == len(counts):
            self.depths = [slice(d, e, c) for d in range(c)]
        else:
            first = list(itertools.accumulate(counts, initial=0))
            self.depths = [np.array([f + d if d < n else e
                                     for f, n in zip(first, counts)])
                           for d in range(max(counts))]
        self.starts = np.array([0, *itertools.accumulate(sizes)][:-1])[:, None]
        # (price, power, delay) of every candidate, by dimension, and its
        # host code
        if len(segments) == 1:
            store, rows = segments[0]
            self.cols = store.cols[:, rows]
            self.codes = store.codes[rows]
        else:
            self.cols = np.concatenate(
                [store.cols[:, rows] for store, rows in segments], axis=1)
            self.codes = np.concatenate(
                [store.codes[rows] for store, rows in segments])
        self.hops = None
        if hops:
            at, before, hop = zip(*hops)
            self.hops = (np.array(at), np.array(before),
                         np.array(hop)[:, None])

    def entry_raw(self, positions) -> np.ndarray:
        """The entry block of a batch: a (3 x (entries + 1) x plans) array
        whose row i holds the price, power and delay of LTW entry i
        (members' entries in order) under each plan; the last row is
        0.0."""
        flat = np.asarray(positions) + self.starts
        price, power, delay = self.cols[:, flat]
        if self.hops is not None:
            at, before, hop = self.hops
            node, prev = self.codes[flat[at]], self.codes[flat[before]]
            # evaluate's test: both on clouds, and on different ones
            paid = ((node != _ON_DEVICE) & (prev != _ON_DEVICE)
                    & (node != prev))
            d = delay[at]
            delay[at] = np.where(paid, d + hop, d)
        block = np.empty((3, self.entries + 1, flat.shape[1]))
        block[:, -1] = 0.0
        for fold, leaves, rows in self.folds:
            block[:, rows] = fold(zip(price[leaves], power[leaves],
                                      delay[leaves]))
        return block

    def raw(self, positions) -> list[np.ndarray]:
        """The price, power and delay column of each plan's LTW QoS: each
        member's entries of the entry block, summed from 0.0 in order."""
        block = self.entry_raw(positions)
        totals = 0.0
        for rows in self.depths:
            totals = totals + block[:, rows]
        return list(totals)

    def utility(self, raw: Sequence[np.ndarray],
                rows: Optional[np.ndarray] = None) -> np.ndarray:
        """utility_of of each plan's raw QoS, with each member's bounds.
        Among the plans in rows (a mask shaped like the values; None: every
        plan), the first with a value outside its dimension's bounds, plan
        by plan and member by member within a plan, raises utility_of's
        ExtremaMismatch."""
        worst = np.ones(raw[0].shape)
        stray = None
        for d, value in enumerate(raw):
            flat = None
            if len(self.members) == 1:
                _, hi, span, low, high = self.members[0]._bounds[d]
                if span == 0:
                    continue
            else:
                # a member whose span is 0 skips the dimension: its ratio
                # is 1.0 and no value of it strays
                _, hi, span, low, high = np.array(
                    [m._bounds[d] for m in self.members]).T[:, :, None]
                flat = span == 0
                if flat.all():
                    continue
                if flat.any():
                    span = np.where(flat, 1.0, span)
                    low = np.where(flat, -math.inf, low)
                    high = np.where(flat, math.inf, high)
                else:
                    flat = None
            out = (value < low) | (value > high)
            stray = out if stray is None else stray | out
            ratio = (hi - value) / span
            if flat is not None:
                ratio[np.broadcast_to(flat, ratio.shape)] = 1.0
            np.minimum(worst, ratio, out=worst)
        if stray is not None:
            if rows is not None:
                stray &= rows
            if stray.any():
                r, m = np.argwhere(stray.T)[0].tolist()
                self.members[m].utility_of(trusted_qos(*(float(v[m, r])
                                                         for v in raw)))
        return np.maximum(worst, 0.0, out=worst)

    def clouds_used(self, positions, clouds: Sequence[int]) -> np.ndarray:
        """A (clouds x members x plans) mask: whether each member's plan
        places work on each of the clouds that is local (see
        UserInstance.local_clouds)."""
        codes = self.codes[np.asarray(positions) + self.starts]
        known = self.members[0].clouds
        used = np.zeros((len(clouds), len(self.members), codes.shape[1]),
                        dtype=bool)
        for c, cid in enumerate(clouds):
            if cid in known and known[cid].tier == LOCAL:
                used[c] = np.logical_or.reduceat(codes == cid, self.firsts,
                                                 axis=0)
        return used


@functools.lru_cache(maxsize=4096)
def _leaf_rows(leaves: int, firsts: tuple[int, ...]) -> np.ndarray:
    """The (leaves x entries) occurrence rows of entries that start at
    firsts; few patterns recur, so each is built once (read-only)."""
    rows = np.arange(leaves)[:, None] + np.array(firsts)
    rows.flags.writeable = False
    return rows


class GroupInstance:
    """A user group planned jointly around its center of mobility."""

    def __init__(self, group: UserGroup, members: Sequence[UserInstance]):
        if not members:
            raise InvalidGroup(f"group {group.id} has no member instances")
        self.group = group
        self.members = list(members)
        users = {m.user.id: m.user for m in members}
        center, _ = center_of_group_mobility(group, users, members[0].grid)
        self._center = (float(center[0]), float(center[1]))

    def center_point(self) -> tuple[float, float]:
        return self._center


# --- candidate search ---------------------------------------------------------

class SearchMemo:
    """Candidate-search state that the proposals of one target share.

    find_service fills it lazily; later proposals reuse what earlier ones
    built:
    - far: per radius index, the local clouds out of reach (see _radius);
    - radii: per (user id, radius index, blocked clouds), None when that
      radius is skipped, else its table (see _radius). The blocked clouds
      are the room rule's set for the member's search (see room_rule), so
      proposals that see the same full clouds share one table.
    One memo serves one center, one AnnealingParams and one budget vector
    per user, which is what a find_service call holds fixed.
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

    Reach is a per-cloud rule, like room: the directory indexes each local
    cloud at its cell center, and one range query per radius gives the
    local clouds in reach; the others join blocked, and the allowed ids are
    the baselines' filter over both (see _allowed_candidates), which
    on-device and public services pass at any radius. None when some
    occurrence has no id allowed, or when the optimistic minima over the
    allowed ids break a budget (see _optimistic_fit).
    """
    far = memo.far.get(i)
    if far is None:
        near = instance.directory.range_query(
            center, params.radius_start_m + i * params.radius_step_m)
        far = memo.far[i] = frozenset([cid for cid, c in instance.clouds.items()
                                       if c.tier == LOCAL and cid not in near])
    try:
        table = _allowed_candidates(instance, blocked | far)
    except NoFeasibleCandidates:
        return None
    if constraints.bounded() and not _optimistic_fit(instance, table,
                                                     constraints):
        return None
    snorm = instance.store.snorm
    for k, (e, j, allowed) in enumerate(table):
        weights = instance.entries[e].values(j, allowed, snorm)
        # the allowed ids come in id order, so the stable sort breaks ties
        # to the lower id
        ranks = sorted(range(len(allowed)), key=weights.__getitem__)
        table[k] = (e, j, tuple(allowed), [allowed[r] for r in ranks],
                    _roulette_wheel([weights[r] for r in ranks]))
    return table


def _optimistic_fit(instance: UserInstance, table: list[tuple],
                    constraints: ConstraintVector) -> bool:
    """Whether the per-occurrence minima over a search table's allowed ids,
    folded through each entry's workflow, fit every budget."""
    entries = instance.entries
    store = instance.store
    minima: list[list[LeafCost]] = [[] for _ in entries]
    for e, j, ids, *_ in table:
        tables = entries[e]
        minima[e].append((min(tables.values(j, ids, store.price)),
                          min(tables.values(j, ids, store.power)),
                          min(tables.values(j, ids, store.delay))))
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
    table's allowed ids, ties to the lowest id (the ids come in id order,
    and index finds the first minimum)."""
    column = getattr(instance.store, dim)
    picks = []
    for e, j, ids, *_ in table:
        values = instance.entries[e].values(j, ids, column)
        picks.append(ids[values.index(min(values))])
    return picks


_UNSEEN = object()


def _tables(instance: UserInstance, center: tuple[float, float],
            constraints: ConstraintVector, params: AnnealingParams,
            memo: SearchMemo, blocked: frozenset[int], start: int = 0
            ) -> Iterator[tuple[int, list[tuple]]]:
    """The radius index and search table of each radius a search draws at,
    radius by radius from index start (radius_start_m + i * radius_step_m,
    start <= i < max_expansions), skipping the radii that have none; each
    (user, radius, blocked clouds) table is built once per memo (see
    _radius)."""
    uid = instance.user.id
    for i in range(start, params.max_expansions):
        key = (uid, i, blocked)
        table = memo.radii.get(key, _UNSEEN)
        if table is _UNSEEN:
            table = memo.radii[key] = _radius(instance, center, params, i,
                                              blocked, constraints, memo)
        if table is not None:
            yield i, table


def _settle(instance: UserInstance, table: list[tuple],
            constraints: ConstraintVector, draws: Sequence[float]
            ) -> Optional[tuple[list[int], QoSTriple]]:
    """The plan that draws, one double per occurrence, spin at a search
    table, when the budgets admit it; else its first repair they admit, one
    per violated dimension in DIMS order (the per-occurrence minimum of that
    dimension). None when the draw and every repair break a budget, so the
    search widens. Each plan drawn or repaired is evaluated once."""
    picks = [order[_roulette_spin(cum, len(order), draw)]
             for (*_, order, cum), draw in zip(table, draws)]
    raw = instance.evaluate(picks)
    if constraints.admits(raw):
        return picks, raw
    for dim in constraints.violated(raw):
        fixed = _repair(instance, table, dim)
        fixed_raw = instance.evaluate(fixed)
        if constraints.admits(fixed_raw):
            return fixed, fixed_raw
    return None


def _no_plan(instance: UserInstance,
             params: AnnealingParams) -> NoFeasibleCandidates:
    return NoFeasibleCandidates(
        f"user {instance.user.id}: no feasible plan within "
        f"{params.max_expansions} radius expansions")


def _search(instance: UserInstance, center: tuple[float, float],
            constraints: ConstraintVector, params: AnnealingParams,
            memo: SearchMemo, blocked: frozenset[int], draws: Sequence[float],
            start: int) -> Optional[tuple[list[int], QoSTriple]]:
    """One member's widening search on its own slot of doubles, one per
    occurrence, from radius index start: at each radius with a table for
    the clouds without room in blocked (see _tables), settle the plan the
    same draws spin (see _settle); the first plan settled, with its raw
    QoS. A table has one row per occurrence at every radius, so every
    radius reads the same doubles. None when every radius fails."""
    for _, table in _tables(instance, center, constraints, params, memo,
                            blocked, start):
        found = _settle(instance, table, constraints, draws)
        if found is not None:
            return found
    return None


def find_service(members: Sequence[UserInstance],
                 center: tuple[float, float], constraints,
                 params: AnnealingParams, rng: np.random.Generator,
                 ledger: CapacityLedger = NO_LEDGER
                 ) -> tuple[list[list[int]], list[QoSTriple]]:
    """MuSIC's FindService for one target: draw max_iter + 1 independent
    proposals around a center point and return each member's pick list
    (see UserInstance.evaluate) and raw LTW QoS in the first best one.
    members are the target's instances, one for a single user; constraints
    is a shared budget vector or one per user id (see constraints_for).

    A proposal plans every member, in order. A member's search widens its
    radius in steps (radius_start_m + i * radius_step_m, i <
    max_expansions). Reach and room are decided per cloud: a cloud-hosted
    candidate must sit on a cloud with room and, when the cloud is local,
    inside the radius (see _radius). On-device and public services are in
    reach at any radius. Room is the ledger's, read once when the call
    starts (see room_rule), less the tentative usage of the earlier members
    of the same proposal, read from their pick lists. At the first radius
    where every occurrence has a candidate and the optimistic
    per-dimension minima fit the member's budgets, a plan is drawn by
    roulette over total normalized QoS; if it busts a budget, one
    deterministic repair per violated dimension is tried, in DIMS order,
    before widening (see _settle). Each member is held to its own budget.
    A proposal is valued at the mean of its members' utilities, in member
    order: fleet_utility's float, summed in numpy's order (see
    _pairwise_sum) and divided by the member count.

    The draws: when a member has no search table under the clouds without
    room at the reading, the call raises the first such member's
    NoFeasibleCandidates and draws nothing (room only closes clouds, so no
    proposal could plan it). Otherwise it draws one block,
    rng.random((max_iter + 1) * S), S being the members' summed occurrence
    counts: proposal by proposal, member by member, one double per
    occurrence. Those doubles are the member's slot in that proposal, spun
    at every radius it tries.

    Every proposal is drawn and scored in one array pass over one plan
    table: positions into the members' first tables, their raw QoS from
    one PlanArrays and one utility pass; an admitted repair, evaluated
    once, is written over the plans it replaces. np.argmax keeps the first
    best. A draw lands on the count of the wheel's slice ends (padded with
    inf) at or below it, as bisect_right does; an all-zero wheel picks
    min(int(draw * len), len - 1). In proposal p, first[p] is the earliest
    member whose draw and every repair break its budget, or whose table
    the clouds earlier members use close (room - usage <= 0 on a cloud
    hosting one of its allowed ids). From first[p] on, members are settled
    one at a time by _search under the room the earlier members leave,
    from their pass radius (none has a table below it; the member at
    first[p] starts one later when only its budget broke, as its table
    fails again on the same doubles), and their raw QoS replaces the
    pass's; one failing at every radius scores its proposal -inf. One
    SearchMemo serves the call, so the range query per radius, and each
    member's table per radius and set of clouds without room, are built
    once.

    Raises InvalidGroup for no members, and NoFeasibleCandidates when no
    proposal plans every member: the failure of the last proposal.
    """
    members = list(members)
    if not members:
        raise InvalidGroup("a search needs at least one member")
    memo = SearchMemo()
    room = room_rule(ledger)
    budgets = [constraints_for(constraints, m.user.id) for m in members]
    # each member's pass radius and table: the first radius with a table
    firsts = []
    for m, budget in zip(members, budgets):
        firsts.append(next(_tables(m, center, budget, params, memo,
                                   room.full), None))
        if firsts[-1] is None:
            raise _no_plan(m, params)
    radii, tables = zip(*firsts)
    rows = [row for table in tables for row in table]
    orders = [row[3] for row in rows]
    spans = [slice(a, b) for a, b in itertools.pairwise(
        [0, *itertools.accumulate(map(len, tables))])]
    n = len(members)
    proposals = params.max_iter + 1
    draws = rng.random(proposals * len(rows)).reshape(proposals, -1).T
    width = max(map(len, orders)) - 1
    wheels = np.array([(cum or []) + [math.inf] * (width - len(cum or []))
                       for *_, cum in rows])
    pos = (wheels[:, None, :] <= draws[:, :, None]).sum(axis=2)
    for k, (_, _, _, order, cum) in enumerate(rows):
        if cum is None:
            pos[k] = np.minimum((draws[k] * len(order)).astype(np.intp),
                                len(order) - 1)
    arrays = PlanArrays(members, orders)
    raw = arrays.raw(pos)
    # per proposal, the first member whose draw and every repair break its
    # budget (n: none); an admitted repair is written into pos and raw
    first = np.full(proposals, n)
    for j, budget in enumerate(budgets):
        if not budget.bounded():
            continue
        mine = [column[j] for column in raw]
        over = budget.breaches(mine)
        pending = np.logical_or.reduce([o for _, o in over])
        for dim, broke in over:
            broke &= pending
            if not broke.any():
                continue
            fixed = _repair(members[j], tables[j], dim)
            fixed_raw = members[j].evaluate(fixed)
            if budget.admits(fixed_raw):
                for column, v in zip(mine, fixed_raw.as_tuple()):
                    column[broke] = v
                pos[spans[j], broke] = [[order.index(sid)] for order, sid
                                        in zip(orders[spans[j]], fixed)]
                pending &= ~broke
        first[pending & (first > j)] = j

    def plan(j: int, p: int) -> list[int]:
        """Member j's plan in proposal p, as drawn or repaired."""
        return [order[i] for order, i in zip(orders[spans[j]],
                                             pos[spans[j], p].tolist())]

    # per proposal, the first member whose table earlier members close
    clashed = n
    closing = [cid for cid, r in room.rooms.items() if 0 < r < n]
    if closing:
        used = arrays.clouds_used(pos, closing)
        before = np.cumsum(used, axis=1) - used
        rooms = np.array([room.rooms[cid] for cid in closing])
        hosts = [{m.hosts[sid] for row in table for sid in row[2]}
                 for m, table in zip(members, tables)]
        hosted = np.array([[cid in mine for mine in hosts]
                           for cid in closing])
        clash = ((rooms[:, None, None] - before <= 0)
                 & hosted[:, :, None]).any(axis=0)
        clashed = np.where(clash.any(axis=0), clash.argmax(axis=0), n)
    # a first member whose budget broke before any clash would settle its
    # pass table again, on the same doubles, and fail
    again = first < clashed
    np.minimum(first, clashed, out=first)
    # the plans of each proposal settled one at a time; failed: proposal ->
    # the member that failed at every radius
    settled: dict[int, list[list[int]]] = {}
    failed: dict[int, int] = {}
    for p in np.flatnonzero(first < n).tolist():
        usage: dict[int, int] = {}
        settled[p] = picks = []
        for j in range(n):
            if j < first[p]:
                mine = plan(j, p)
            else:
                found = _search(members[j], center, budgets[j], params, memo,
                                room(usage), draws[spans[j], p].tolist(),
                                radii[j] + int(j == first[p] and again[p]))
                if found is None:
                    failed[p] = j
                    break
                mine = found[0]
                for column, v in zip(raw, found[1].as_tuple()):
                    column[j, p] = v
            picks.append(mine)
            for cid in members[j].local_clouds(mine):
                usage[cid] = usage.get(cid, 0) + 1
    if len(failed) == proposals:
        raise _no_plan(members[failed[proposals - 1]], params)
    utils = arrays.utility(raw)
    # the mean of one member's utility is that utility
    vals = utils[0] if n == 1 else _pairwise_sum(utils, 0, n) / n
    if failed:
        vals[list(failed)] = -math.inf
    best = int(vals.argmax())
    return (settled.get(best) or [plan(j, best) for j in range(n)],
            [trusted_qos(*(float(column[j, best]) for column in raw))
             for j in range(n)])


# --- MuSIC allocation ---------------------------------------------------------

def music(target, constraints, params: AnnealingParams,
          rng: np.random.Generator,
          ledger: CapacityLedger = NO_LEDGER) -> AllocationResult:
    """Best-of-N plan search for one user or one group: one find_service
    call around the target's center of mobility, whose members are the user
    itself or the group's member instances. The winning proposal's lists
    become the members' pick tuples, and its value (the mean of the
    members' utilities, see find_service) the utility.

    When no proposal plans every member, the note is find_service's
    NoFeasibleCandidates, which names the user, after "group <id>: " for a
    group.
    """
    members = [target] if isinstance(target, UserInstance) else target.members
    try:
        picks, raws = find_service(members, target.center_point(),
                                   constraints, params, rng, ledger)
    except NoFeasibleCandidates as exc:
        note = str(exc)
        if isinstance(target, GroupInstance):
            note = f"group {target.group.id}: {note}"
        return AllocationResult({}, 0.0, False, note=note)
    return AllocationResult({m.user.id: tuple(mine)
                             for m, mine in zip(members, picks)},
                            _mean([m.utility_of(raw)
                                   for m, raw in zip(members, raws)]),
                            True)


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
    snorm = instance.store.snorm
    picks = []
    for e, j, ids in _allowed_candidates(instance, blocked):
        # the ids come in id order, and index finds the first maximum
        values = instance.entries[e].values(j, ids, snorm)
        picks.append(ids[values.index(max(values))])
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


def _sequential(instances: Mapping[int, UserInstance], targets: Sequence,
                plan: Callable[..., Mapping[int, tuple[int, ...]]],
                rng: np.random.Generator,
                ledger: CapacityLedger) -> AllocationResult:
    """The one fleet driver: places targets (users or groups) in seeded
    random order, admitting capacity as it goes.

    One rng.permutation(len(targets)) orders the targets, and plan(target)
    is called in that order. It returns the target's pick tuples by user
    id; when it raises NoFeasibleCandidates, the target stays unplaced and
    the message becomes a note. After each placed target, each placed
    user's local clouds (instances[uid].local_clouds) are admitted to the
    ledger in sorted order, so the next target plans against them; a
    refused admission raises AdmissionRefused. feasible says whether every
    target was placed.
    """
    plans: dict[int, tuple[int, ...]] = {}
    notes = []
    for i in rng.permutation(len(targets)):
        try:
            placed = plan(targets[i])
        except NoFeasibleCandidates as exc:
            notes.append(str(exc))
            continue
        plans.update(placed)
        for uid, picks in placed.items():
            for cid in sorted(instances[uid].local_clouds(picks)):
                if not ledger.try_admit(cid):
                    raise AdmissionRefused(
                        f"cloud {cid} filled up mid-admission")
    return AllocationResult(plans, None, not notes, note="; ".join(notes))


def allocate_rsa(instances: Mapping[int, UserInstance],
                 constraints, rng: np.random.Generator,
                 ledger: CapacityLedger = NO_LEDGER) -> AllocationResult:
    """Random-selection baseline over the fleet, user by user (see
    _sequential); see rsa_plan for how a user's plan can still break its
    budget."""
    return _sequential(
        instances, sorted(instances),
        lambda uid: {uid: rsa_plan(
            instances[uid], constraints_for(constraints, uid), rng,
            blocked=clouds_without_room(ledger))},
        rng, ledger)


def allocate_greedy(instances: Mapping[int, UserInstance],
                    rng: np.random.Generator,
                    ledger: CapacityLedger = NO_LEDGER) -> AllocationResult:
    """Greedy argmax baseline over the fleet, user by user (see
    _sequential; rng orders the users only). Greedy plans are
    budget-blind."""
    return _sequential(
        instances, sorted(instances),
        lambda uid: {uid: greedy_plan(instances[uid],
                                      clouds_without_room(ledger))},
        rng, ledger)


def allocate_music(instances: Mapping[int, UserInstance],
                   constraints, params: AnnealingParams,
                   rng: np.random.Generator,
                   ledger: CapacityLedger = NO_LEDGER,
                   groups: Optional[Sequence[UserGroup]] = None
                   ) -> AllocationResult:
    """MuSIC allocation over the fleet, one music call per target.

    Without groups each user, in id order, runs its own best-of-N search
    (its own center); with groups each group, in id order, searches jointly
    around the group center. _sequential places the targets in seeded
    random order, and each target admits its capacity before the next one
    plans; an infeasible target's note is music's.
    """
    if groups is None:
        targets = [instances[uid] for uid in sorted(instances)]
    else:
        targets = [GroupInstance(grp, [instances[m] for m in sorted(grp.members)])
                   for grp in sorted(groups, key=lambda x: x.id)]

    def plan(target) -> dict[int, tuple[int, ...]]:
        res = music(target, constraints, params, rng, ledger=ledger)
        if not res.feasible:
            raise NoFeasibleCandidates(res.note)
        return res.plans

    return _sequential(instances, targets, plan, rng, ledger)


# --- exhaustive optimum ----------------------------------------------------------

# positions (plans times occurrences), or combinations of options, scored
# per array pass
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

    Combinations are scored in chunks of at most _SCORE_CHUNK, each by one
    fleet_utility call over columns: users[i]'s utility in every
    combination of the chunk. fleet_utility's means apply +, += and / n
    to the columns element-wise, in the order they apply them to floats,
    and a member without a utility adds the scalar 0.0 to every element.
    So every score is the float fleet_utility returns for its combination.
    """
    sizes = [len(u) for u in utils]
    columns = [np.asarray(u, dtype=float) for u in utils]
    total = math.prod(sizes)
    scores = np.empty(total)
    for start in range(0, total, _SCORE_CHUNK):
        stop = min(start + _SCORE_CHUNK, total)
        picks = _unravel(np.arange(start, stop), sizes)
        scores[start:stop] = fleet_utility(
            {uid: column[pick]
             for uid, column, pick in zip(users, columns, picks)},
            users, groups)
    return scores


def _options(instance: UserInstance, pools: list[list[int]],
             constraints: ConstraintVector, reach: Sequence[int]
             ) -> list[tuple]:
    """One user's options for brute_force_optimal: per set of the binding
    clouds in reach that a plan admitted by the budgets uses, (picks,
    utility, that set) of the first best such plan, ordered by that plan's
    place in the product of pools; [] when no plan is admitted.

    The plans are walked in itertools.product order, in chunks of at most
    _SCORE_CHUNK positions (plans times occurrences) scored by PlanArrays;
    a chunk's first best plan per set replaces an earlier one only when it
    scores higher.
    """
    sizes = [len(ids) for ids in pools]
    total = math.prod(sizes)
    # at most _SCORE_CHUNK positions, so a chunk's arrays stay small
    step = max(1, _SCORE_CHUNK // len(pools))
    # one member: row 0 of each array
    arrays = PlanArrays([instance], pools)
    # binding clouds used -> (product index, utility) of the best plan
    best: dict[frozenset[int], tuple[int, float]] = {}
    for start in range(0, total, step):
        positions = _unravel(np.arange(start, min(start + step, total)), sizes)
        raw = arrays.raw(positions)
        admitted = None
        if constraints.bounded():
            admitted = ~np.logical_or.reduce(
                [o for _, o in constraints.breaches(raw)])
        utils = arrays.utility(raw, admitted)[0]
        if admitted is not None:
            utils[~admitted[0]] = -math.inf
        sets: list[tuple[frozenset[int], Optional[np.ndarray]]] = [
            (_NO_CLOUDS, None)]
        if reach:
            used, which = np.unique(arrays.clouds_used(positions, reach)[:, 0],
                                    axis=1, return_inverse=True)
            sets = [(frozenset(c for c, on in zip(reach, col) if on),
                     which.ravel() == g)
                    for g, col in enumerate(used.T.tolist())]
        for key, rows in sets:
            scores = utils if rows is None else np.where(rows, utils,
                                                         -math.inf)
            r = int(scores.argmax())
            u = float(scores[r])
            if u > best.get(key, (0, -math.inf))[1]:
                best[key] = (start + r, u)
    return [(tuple(ids[i] for ids, i in zip(pools, _unravel(index, sizes))),
             u, key)
            for key, (index, u) in sorted(best.items(),
                                          key=lambda item: item[1][0])]


def brute_force_optimal(instances: Mapping[int, UserInstance],
                        constraints: ConstraintVector,
                        ledger: CapacityLedger = NO_LEDGER,
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
    one option: utility 0, no clouds). The walk scores the plan space in
    itertools.product order, in chunks, by PlanArrays, whose values equal
    evaluate's and utility_of's (see _options). Every combination of options is
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
    no_room = clouds_without_room(ledger)
    binding = frozenset(cid for cid in ledger.capacities()
                        if 0 < ledger.room(cid) < len(uids))
    # per user, in uid order: its pools (per occurrence, the ids that may
    # run: the plan space is their product) and the binding clouds they reach
    walks: list[tuple[UserInstance, list[list[int]], list[int]]] = []
    bound = 1
    for uid in uids:
        inst = instances[uid]
        pools = [ids for _, _, ids in _allowed_candidates(inst, no_room)]
        size = math.prod(map(len, pools))
        if size > cap:
            raise TooLargeForEnumeration(
                f"user {inst.user.id}: plan space exceeds {cap}")
        reach = binding.intersection(inst.hosts[sid] for ids in pools
                                     for sid in ids)
        bound *= min(size, 2 ** len(reach))
        if bound > cap:
            raise TooLargeForEnumeration(f"joint option space exceeds {cap}")
        walks.append((inst, pools, sorted(reach)))
    # per user, in uid order: (picks, utility, binding clouds used) of each
    # option, or the one unplaced row
    spaces = [_options(inst, pools, constraints, reach)
              or [(None, 0.0, _NO_CLOUDS)] for inst, pools, reach in walks]

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
