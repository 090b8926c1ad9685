"""Allocators: selection mechanics, constraint handling, optimum dominance."""

import hashlib
import itertools
import math
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tieralloc import (LOCAL, PUBLIC, And, AnnealingParams, CapacityLedger,
                       CloudNode, ComputeProfile, ConstraintVector,
                       QoSExtrema, QoSTriple, IncompletePlan, LTW,
                       LinkProfile, Loop,
                       LTWEntry, LocationMap, MobileUser, NoFeasibleCandidates,
                       PriceBook, ProfileSet, Scenario, Seq, Service,
                       ServiceDirectory, Trajectory, Xor,
                       TooLargeForEnumeration, UserGroup, UserInstance,
                       allocate_greedy, allocate_music, allocate_rsa,
                       brute_force_optimal, build_deployment,
                       build_population, constraints_for,
                       candidate_services, find_service, fleet_utility,
                       fold_qos, greedy_plan, intercloud_hop_ms,
                       invocation_context, leaf,
                       load_scenario, music, normalize_service,
                       objective_from_plans, occurrences, par,
                       roulette_index, rows_to_csv, rsa_plan,
                       run_experiment, seq, service_qos, xor)
from tieralloc import allocation
from tieralloc.allocation import (AllocationResult, GroupInstance,
                                  PlanArrays, SearchMemo, _pairwise_sum,
                                  _search, _sequential,
                                  _roulette_spin,
                                  _roulette_wheel,
                                  clouds_without_room, room_rule, with_room)
from tieralloc.errors import (AdmissionRefused, ExtremaMismatch, InvalidGroup,
                              TierAllocError)
from tieralloc.registry import NO_LEDGER
from tieralloc.workflow import DIMS, dim_bounds, outline

UNLIMITED = ConstraintVector.unlimited()
DEMO_SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


def _rows(tables, j, ids):
    """The store rows of occurrence j's candidates ids (see _EntryTables)."""
    start, where, _, _ = tables.steps[j]
    return [start + where[sid] for sid in ids]


def _base(inst, e, j):
    """{sid: (price, power, delay)} of entry e's occurrence j, read through
    the instance's store."""
    tables, store = inst.entries[e], inst.store
    ids = tables.cands[j]
    return {sid: (store.price[i], store.power[i], store.delay[i])
            for sid, i in zip(ids, _rows(tables, j, ids))}


def _snorm(inst, e, j):
    """{sid: total normalized QoS} of entry e's occurrence j, read through
    the instance's store."""
    tables = inst.entries[e]
    ids = tables.cands[j]
    return {sid: inst.store.snorm[i]
            for sid, i in zip(ids, _rows(tables, j, ids))}


def _entry(inst, e, of=_base):
    """_base (or _snorm) of every occurrence of entry e."""
    return [of(inst, e, j) for j in range(len(inst.entries[e].cands))]


def _hops(tables):
    """(predecessor index, hop) of each step: the part of a step that does
    not depend on where its rows sit in a store."""
    return [(prev, hop) for _, _, prev, hop in tables.steps]


def trajectory_from_pairs(pairs):
    """A trajectory of (cell id, dwell seconds) visits."""
    return Trajectory(tuple(c for c, _ in pairs), tuple(d for _, d in pairs))


# --- roulette selection --------------------------------------------------------------

def test_roulette_slices_are_proportional_to_weights():
    weights = [0.2, 0.3, 0.5]
    assert roulette_index(weights, 0.35) == 1  # lands in the 0.2..0.5 slice
    assert roulette_index(weights, 0.0) == 0
    assert roulette_index(weights, 0.19) == 0
    assert roulette_index(weights, 0.20) == 1  # boundary opens the next slice
    assert roulette_index(weights, 0.50) == 2
    assert roulette_index(weights, 0.999) == 2


def test_roulette_frequencies_converge_to_weights():
    weights = [0.2, 0.3, 0.5]
    rng = np.random.default_rng(42)
    counts = np.zeros(3)
    n = 20_000
    for _ in range(n):
        counts[roulette_index(weights, rng.random())] += 1
    for k in range(3):
        assert counts[k] / n == pytest.approx(weights[k], abs=0.02)


def test_roulette_zero_weights_fall_back_to_uniform():
    assert roulette_index([0.0, 0.0, 0.0], 0.1) == 0
    assert roulette_index([0.0, 0.0, 0.0], 0.5) == 1
    assert roulette_index([0.0, 0.0, 0.0], 0.9) == 2


def test_roulette_input_validation():
    with pytest.raises(ValueError):
        roulette_index([], 0.5)
    with pytest.raises(ValueError):
        roulette_index([1.0], 1.0)
    with pytest.raises(ValueError):
        roulette_index([1.0, -0.5], 0.5)


def roulette_pick(weighted_ids, rng):
    """Roulette-wheel pick over (id, total) pairs, sorted by ascending total
    so better candidates own proportionally larger slices."""
    ordered = sorted(weighted_ids, key=lambda p: (p[1], p[0]))
    idx = roulette_index([w for _, w in ordered], rng.random())
    return ordered[idx][0]


def test_roulette_pick_orders_candidates_before_drawing():
    pairs = [(7, 0.5), (3, 0.3), (5, 0.2)]  # sorted: (5,.2) (3,.3) (7,.5)
    rng = SimpleNamespace(random=lambda: 0.35)
    assert roulette_pick(pairs, rng) == 3
    rng = SimpleNamespace(random=lambda: 0.05)
    assert roulette_pick(pairs, rng) == 5
    rng = SimpleNamespace(random=lambda: 0.95)
    assert roulette_pick(pairs, rng) == 7


def _searchsorted_index(weights, draw):
    """roulette_index's arithmetic before the wheel was memoized."""
    arr = np.asarray(weights, dtype=float)
    s = arr.sum()
    if s == 0.0:
        return min(int(draw * len(arr)), len(arr) - 1)
    cum = np.cumsum(arr / s)
    return min(int(np.searchsorted(cum, draw, side="right")), len(arr) - 1)


def test_memoized_wheel_matches_roulette_index_bit_for_bit():
    rng = np.random.default_rng(11)
    vectors = [rng.random(n) * rng.choice([1e-3, 1.0, 3.0])
               for n in range(1, 13) for _ in range(60)]
    vectors += [np.zeros(n) for n in (1, 2, 5, 8, 12)]
    # from 8 weights numpy's pairwise sum differs from a sequential one in
    # the last bit for some vectors; they must be among those checked
    assert any(sum(v.tolist()) != v.sum() for v in vectors if len(v) >= 8)
    for v in vectors:
        cum = _roulette_wheel(v.tolist())
        ref = np.cumsum(v / v.sum()) if v.sum() else []
        # slice boundaries are where a last-bit difference flips the pick
        draws = [d for d in (*ref, *np.nextafter(ref, 0.0), *rng.random(20))
                 if 0.0 <= d < 1.0]
        for d in draws:
            expect = _searchsorted_index(v, float(d))
            assert roulette_index(v.tolist(), float(d)) == expect
            assert _roulette_spin(cum, len(v), float(d)) == expect


def test_plain_python_wheel_adds_in_numpys_order():
    # lengths 1-299 cross each branch of numpy's pairwise sum: sequential
    # under 8, eight accumulators up to 128, halves above
    rng = np.random.default_rng(16)
    for _ in range(30_000):
        n = int(rng.integers(1, 300))
        w = rng.random(n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        w[rng.random(n) < 0.1] = 0.0
        v = w.tolist()
        assert _pairwise_sum(v, 0, n) == w.sum()
        s = w.sum()
        assert _roulette_wheel(v) == (np.cumsum(w / s).tolist()[:-1]
                                      if s else None)
    assert _roulette_wheel([0.0, 0.0]) is None


def test_find_service_wheels_pick_as_roulette_pick_does(monkeypatch):
    dep, pop, instances = _fleet(users=3, seed=7)
    tables = []
    radius = allocation._radius

    def kept(instance, *args):
        table = radius(instance, *args)
        tables.extend((instance.user.id, row) for row in table or ())
        return table

    monkeypatch.setattr(allocation, "_radius", kept)
    rng = np.random.default_rng(0)
    for inst in instances.values():
        find_service([inst], inst.center_point(), UNLIMITED,
                     AnnealingParams(max_iter=0), rng)
    assert tables
    for uid, (e, j, ids, order, cum) in tables:
        pairs = [(sid, _snorm(instances[uid], e, j)[sid]) for sid in ids]
        for d in rng.random(50):
            draw = SimpleNamespace(random=lambda: float(d))
            assert order[_roulette_spin(cum, len(order), float(d))] == \
                roulette_pick(pairs, draw)


# --- scalar utilities and constraints -------------------------------------------------

def test_fleet_utility_is_mean_of_worst_dimensions():
    from tieralloc import QoSTriple as Q
    worst = {uid: min(t.as_tuple())
             for uid, t in enumerate([Q(0.2, 0.9, 0.5), Q(0.8, 0.4, 0.6)])}
    assert fleet_utility(worst, [0, 1]) == pytest.approx(0.3)
    assert fleet_utility(worst, [0, 1, 2]) == pytest.approx(0.2)  # 2 scores 0
    groups = [UserGroup(0, frozenset({0, 1})), UserGroup(1, frozenset({2}))]
    assert fleet_utility(worst, [0, 1, 2], groups) == pytest.approx(0.15)
    with pytest.raises(ValueError):
        fleet_utility({}, [])
    with pytest.raises(InvalidGroup):
        fleet_utility(worst, [0, 1], [])


def test_fleet_utility_equals_np_mean_in_every_pairwise_branch():
    """Each mean is np.mean's float: ungrouped lengths 1-300 cross numpy's
    sequential sum (under 8), its eight accumulators (8-128) and its split
    halves (above 128); groups hold 1-30 members."""
    rng = np.random.default_rng(31)
    pool = [0.0, 1.0, 1 / 3, 0.1, 0.7]

    def draw(n):
        vals = rng.random(n) * 10.0 ** rng.uniform(-3.0, 0.0, n)
        return [pool[int(rng.integers(len(pool)))] if rng.random() < 0.2
                else v for v in vals.tolist()]

    for n in range(1, 301):
        users = rng.permutation(n + 3).tolist()
        # the last three users have no utility and score 0
        utils = dict(zip(users[:n], draw(n)))
        assert fleet_utility(utils, users[:n]) == \
            float(np.mean([utils[u] for u in users[:n]]))
        assert fleet_utility(utils, users) == \
            float(np.mean([utils.get(u, 0.0) for u in users]))
    for _ in range(300):
        sizes = rng.integers(1, 31, int(rng.integers(1, 12))).tolist()
        uids = rng.permutation(sum(sizes) + 2).tolist()
        utils = dict(zip(uids[:-2], draw(len(uids) - 2)))
        cuts = np.cumsum([0, *sizes]).tolist()
        groups = [UserGroup(int(gid), frozenset(uids[a:b]))
                  for gid, a, b in zip(rng.permutation(50), cuts, cuts[1:])]
        expect = float(np.mean([
            float(np.mean([utils.get(u, 0.0) for u in sorted(g.members)]))
            for g in groups]))
        assert fleet_utility(utils, uids, groups) == expect


def _scan_without_room(ledger, usage, held=frozenset()):
    """The room rule as one scan of every tracked cloud's room."""
    return frozenset(c for c in ledger.capacities()
                     if ledger.room(c) - usage.get(c, 0) <= 0
                     and c not in held)


def test_one_room_reading_gives_the_room_rule_for_any_usage():
    """room_rule reads each tracked cloud's room once; for any later usage
    its set equals a fresh reading's and a full scan of the ledger, over
    random and partly filled ledgers, the empty ledger, held clouds, and
    usage that names untracked clouds. With no usage it is
    clouds_without_room."""
    rng = np.random.default_rng(12)
    clouds = list(range(1, 9))
    seen = {"none": 0, "grew": 0, "untracked": 0, "held": 0}
    for _ in range(400):
        ledger, _, held = _random_room_case(rng, clouds)
        reads = []
        room = ledger.room
        ledger.room = lambda cid: reads.append(cid) or room(cid)
        rule, rule_held = room_rule(ledger), room_rule(ledger, held)
        tracked = list(ledger.capacities())
        assert sorted(reads) == sorted(tracked + [c for c in tracked
                                                  if c not in held])
        reads.clear()
        seen["none"] += not tracked
        for _ in range(6):
            # clouds 20 and 21 are never tracked
            usage = {c: int(rng.integers(0, 4)) for c in [*clouds, 20, 21]
                     if rng.random() < 0.4}
            got, got_held = rule(usage), rule_held(usage)
            assert not reads
            assert got == room_rule(ledger)(usage) == \
                _scan_without_room(ledger, usage)
            assert got_held == room_rule(ledger, held)(usage) == \
                _scan_without_room(ledger, usage, held)
            reads.clear()
            seen["grew"] += got != rule({})
            seen["untracked"] += bool({20, 21} & usage.keys())
            seen["held"] += got_held != got
        assert rule({}) == clouds_without_room(ledger)
        assert rule_held({}) == clouds_without_room(ledger, held)
    assert min(seen.values()) > 30, seen


def test_music_reads_the_ledger_once_per_call():
    dep, pop, instances = _fleet(users=8, groups=2, seed=8)
    locals_ = [cid for cid, c in dep.clouds.items() if c.tier == LOCAL]
    for grp in pop.groups:
        target = GroupInstance(grp, [instances[u] for u in sorted(grp.members)])
        ledger = CapacityLedger({c: 1 for c in locals_})
        reads = []
        room = ledger.room
        ledger.room = lambda cid: reads.append(cid) or room(cid)
        res = music(target, UNLIMITED, AnnealingParams(max_iter=15),
                    np.random.default_rng(3), ledger=ledger)
        assert res.feasible
        assert sorted(reads) == sorted(locals_)


def test_capacity_check_reads_the_ledger():
    ledger = CapacityLedger({1: 2, 2: 0})
    assert ledger.room(1) == 2 and ledger.room(2) == 0
    assert ledger.try_admit(1)
    assert ledger.room(1) == 1
    assert ledger.try_admit(1) and not ledger.try_admit(1)
    assert ledger.room(1) == 0
    ledger.release(1)
    assert ledger.room(1) == 1
    # untracked clouds are unbounded
    assert ledger.room(9) == math.inf
    assert ledger.try_admit(9) and ledger.room(9) == math.inf


def test_constraints_resolution_shared_or_per_user():
    shared = ConstraintVector(price=5.0)
    assert constraints_for(shared, 3) is shared
    per_user = {1: ConstraintVector(delay=100.0)}
    assert constraints_for(per_user, 1).delay == 100.0
    assert constraints_for(per_user, 2) == UNLIMITED
    assert ConstraintVector(price=1.0).bounded()
    assert not UNLIMITED.bounded()


# --- hand-built world -----------------------------------------------------------------

def _world(device_g=False):
    """4-cell strip: cloud 1 at cell 0 (covers it), cloud 2 at cell 3
    (covers it), one public cloud. f runs anywhere, g only on locals."""
    grid = LocationMap(4, 1, 100.0, wifi={0: 1, 3: 2})
    clouds = {1: CloudNode(1, LOCAL, location=0, capacity=1),
              2: CloudNode(2, LOCAL, location=3, capacity=1),
              9: CloudNode(9, PUBLIC)}
    directory = ServiceDirectory(grid, clouds)
    directory.insert(Service(100, "f", host_cloud=1, compute_ref="local"))
    directory.insert(Service(101, "f", host_cloud=2, compute_ref="local"))
    directory.insert(Service(102, "f", host_cloud=9, compute_ref="public"))
    directory.insert(Service(200, "g", host_cloud=1, compute_ref="local"))
    directory.insert(Service(201, "g", host_cloud=2, compute_ref="local"))
    if device_g:
        directory.insert(Service(300, "g", host_user=0, compute_ref="device"))
    user = MobileUser(0, trajectory_from_pairs([(0, 60.0)]))
    return grid, directory, user


def _instance(function_id="f", device_g=False):
    grid, directory, user = _world(device_g=device_g)
    ltw = LTW((LTWEntry(0, 60.0, leaf(function_id, 2048.0)),))
    return UserInstance(user, ltw, directory, ProfileSet.defaults(), grid)


def _params(**kw):
    defaults = dict(radius_start_m=10.0, radius_step_m=100.0, max_expansions=4)
    defaults.update(kw)
    return AnnealingParams(**defaults)


def test_greedy_picks_the_dominating_service():
    inst = _instance("f")
    # service 100: wifi + own local cloud beats the others on all dimensions
    assert greedy_plan(inst) == (100,)


def test_find_service_widens_radius_until_a_local_is_reachable():
    inst = _instance("g")
    rng = np.random.default_rng(0)
    # cloud 1 sits on the center; close it so only cloud 2 at 300 m remains
    closed = CapacityLedger({1: 0})
    (picks,), (raw,) = find_service([inst], inst.center_point(), UNLIMITED,
                                    _params(max_expansions=4), rng, closed)
    assert picks == [201]
    assert raw == inst.evaluate(picks)
    # radii 10, 110, 210 never reach 300 m
    with pytest.raises(NoFeasibleCandidates):
        find_service([inst], inst.center_point(), UNLIMITED,
                     _params(max_expansions=3), rng, closed)


def test_public_and_device_services_ignore_the_radius():
    inst = _instance("f")
    rng = np.random.default_rng(1)
    # both local clouds closed: the public service is in reach at radius 10
    (picks,), _ = find_service([inst], inst.center_point(), UNLIMITED,
                               _params(max_expansions=1), rng,
                               CapacityLedger({1: 0, 2: 0}))
    assert picks == [102]

    dev = _instance("g", device_g=True)
    # the room rule never filters on-device runs, even with every cloud closed
    (picks,), _ = find_service([dev], dev.center_point(), UNLIMITED,
                               _params(max_expansions=1), rng,
                               CapacityLedger({1: 0, 2: 0, 9: 0}))
    assert picks == [300]


def test_budget_repair_falls_back_to_the_cheapest_candidate():
    inst = _instance("f")
    rng = np.random.default_rng(2)
    # only service 100 is free; any roulette draw must be repaired to it
    for max_iter in range(10):
        (picks,), (raw,) = find_service([inst], inst.center_point(),
                                        ConstraintVector(price=0.0),
                                        _params(max_iter=max_iter), rng)
        assert picks == [100]
        assert raw == inst.evaluate(picks)
    with pytest.raises(NoFeasibleCandidates):
        find_service([inst], inst.center_point(), ConstraintVector(delay=1.0),
                     _params(), rng)


def test_evaluate_charges_the_hop_only_between_two_clouds():
    grid, directory, user = _world(device_g=True)
    directory.insert(Service(301, "f", host_user=0, compute_ref="device"))
    ltw = LTW((LTWEntry(0, 60.0, seq(leaf("f", 2048.0), leaf("g", 2048.0))),))
    inst = UserInstance(user, ltw, directory, ProfileSet.defaults(), grid)

    def extra_delay(f_sid, g_sid):
        raw = inst.evaluate([f_sid, g_sid])
        bare = (QoSTriple(*_base(inst, 0, 0)[f_sid])
                + QoSTriple(*_base(inst, 0, 1)[g_sid]))
        assert (raw.price, raw.power) == (bare.price, bare.power)
        return raw.delay - bare.delay

    assert extra_delay(100, 201) == 20.0  # cloud 1 -> cloud 2, 2048 KB
    assert extra_delay(102, 200) == 20.0  # public -> local
    assert extra_delay(100, 200) == 0.0  # both on cloud 1
    assert extra_delay(301, 201) == 0.0  # first step on the device
    assert extra_delay(100, 300) == 0.0  # second step on the device


def test_evaluate_sums_entries_and_charges_hops_within_an_entry():
    from tieralloc import QoSTriple as Q
    grid, directory, user = _world()
    wf = seq(leaf("f", 2048.0), leaf("g", 2048.0))
    ltw = LTW((LTWEntry(0, 60.0, wf), LTWEntry(3, 30.0, wf)))
    inst = UserInstance(user, ltw, directory, ProfileSet.defaults(), grid)
    # entry 0 crosses from cloud 1 to cloud 2; entry 1 stays on cloud 1,
    # so only a hop across the entry boundary (cloud 2 -> cloud 1) could
    # charge it anything
    plan = (100, 201, 100, 200)
    b = _triples(inst)
    hopped = Q(b[0][1][201].price, b[0][1][201].power,
               b[0][1][201].delay + 20.0)
    assert b[0][0][100] != b[1][0][100]  # entries are costed at their cells
    assert inst.evaluate(plan) == (b[0][0][100] + hopped) + \
        (b[1][0][100] + b[1][1][200])
    assert inst.local_clouds(plan) == {1, 2}
    with pytest.raises(IncompletePlan, match="3 picks for 4 occurrences"):
        inst.evaluate(plan[:3])
    with pytest.raises(IncompletePlan, match="5 picks for 4 occurrences"):
        inst.evaluate(plan + (100,))
    with pytest.raises(IncompletePlan):
        inst.utility(plan[:3])


def test_user_extrema_sum_entry_envelopes():
    grid, directory, user = _world()
    wf = seq(leaf("f", 2048.0), leaf("g", 2048.0))
    e0, e1 = LTWEntry(0, 60.0, wf), LTWEntry(1, 30.0, wf)  # cell 1: no WiFi

    def instance(*entries):
        return UserInstance(user, LTW(entries), directory,
                            ProfileSet.defaults(), grid)

    one, other, both = (instance(e0).extrema, instance(e1).extrema,
                        instance(e0, e1).extrema)
    assert one != other
    assert both.lo == one.lo + other.lo
    assert both.hi == one.hi + other.hi
    # the envelope holds every plan, inter-cloud hops included
    inst = instance(e0)
    for f in inst.entries[0].cands[0]:
        for g in inst.entries[0].cands[1]:
            raw = inst.evaluate([f, g])
            assert one.lo.emin(raw) == one.lo and one.hi.emax(raw) == one.hi


def test_predicted_instances_share_the_true_entry_tables():
    grid, directory, user = _world(device_g=True)
    profiles = ProfileSet.defaults()
    wf, other = seq(leaf("f", 2048.0), leaf("g", 1024.0)), leaf("f", 512.0)
    # cells 0 and 3 sit under the WiFi of clouds 1 and 2; 1 and 2 have none
    true_ltw = LTW((LTWEntry(0, 60.0, wf), LTWEntry(1, 30.0, wf),
                    LTWEntry(3, 30.0, other), LTWEntry(0, 20.0, wf)))
    pred_ltw = LTW((LTWEntry(0, 60.0, wf),      # as predicted: shared
                    LTWEntry(2, 30.0, wf),      # moved, still no WiFi: shared
                    LTWEntry(0, 30.0, other),   # moved under cloud 1: rebuilt
                    # an equal tree, but another workflow object: rebuilt
                    LTWEntry(0, 20.0,
                             seq(leaf("f", 2048.0), leaf("g", 1024.0)))))
    memo = allocation.CostMemo(directory, profiles)
    true = UserInstance(user, true_ltw, directory, profiles, grid, memo=memo)
    pred = UserInstance(user, pred_ltw, directory, profiles, grid, memo=memo)
    fresh = UserInstance(user, pred_ltw, directory, profiles, grid)
    for e in (0, 1):
        assert pred.entries[e] is true.entries[e]
    for e in (2, 3):
        assert all(pred.entries[e] is not t for t in true.entries)
    # entries of one instance share too: same workflow object, same cell
    assert true.entries[3] is true.entries[0]
    for e, (got, built) in enumerate(zip(pred.entries, fresh.entries)):
        assert (got.occs, got.cands) == (built.occs, built.cands)
        for of in (_base, _snorm):
            assert _entry(pred, e, of) == _entry(fresh, e, of)
        assert _hops(got) == _hops(built) and got.fold is built.fold
        assert (got.lo, got.hi) == (built.lo, built.hi)
    assert pred.extrema == fresh.extrema
    _assert_tables_equal_the_old_costing(pred)
    picks = greedy_plan(pred)
    assert pred.evaluate(picks) == fresh.evaluate(picks)
    # another user given the same workflow object at the same cell builds
    # its own tables: its device services make them differ
    stranger = MobileUser(1, user.trajectory)
    theirs = UserInstance(stranger, pred_ltw, directory, profiles, grid,
                          memo=memo)
    alone = UserInstance(stranger, pred_ltw, directory, profiles, grid)
    for e, mine in enumerate(theirs.entries):
        assert all(mine is not t for t in (*true.entries, *pred.entries))
        assert _entry(theirs, e) == _entry(alone, e)
    assert _entry(theirs, 0) != _entry(pred, 0)


def test_greedy_choice_is_invariant_to_rescaling_a_dimension():
    grid, directory, user = _world()
    ltw = LTW((LTWEntry(0, 60.0, seq(leaf("f", 2048.0), leaf("g", 1024.0))),))
    base = UserInstance(user, ltw, directory, ProfileSet.defaults(), grid)
    scaled_tables = ProfileSet.defaults()
    for key, link in list(scaled_tables.links.items()):
        scaled_tables.links[key] = type(link)(
            link.delay_ms_per_100kb * 3.0, link.energy_mj_per_100kb)
    for ref, comp in list(scaled_tables.compute.items()):
        scaled_tables.compute[ref] = type(comp)(
            comp.delay_ms_per_100kb * 3.0, comp.energy_mj_per_100kb, comp.billing)
    scaled = UserInstance(user, ltw, directory, scaled_tables, grid)
    assert greedy_plan(base) == greedy_plan(scaled)


# --- MuSIC best-of-N search -----------------------------------------------------------

def _counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that logs its first argument."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(first, *args, **kwargs):
        calls.append(first)
        return fn(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_music_zero_iterations_takes_the_first_proposal(monkeypatch):
    """max_iter 0 is one find_service call for one proposal: the plan that
    a call with the same generator draws."""
    inst = _instance("f")
    proposals = _counted(monkeypatch, allocation, "find_service")
    res = music(inst, UNLIMITED, _params(max_iter=0), np.random.default_rng(3))
    assert res.feasible
    assert len(proposals) == 1
    (picks,), (raw,) = find_service([inst], inst.center_point(), UNLIMITED,
                                    _params(max_iter=0),
                                    np.random.default_rng(3))
    assert res.plans == {0: tuple(picks)}
    assert res.utility == inst.utility_of(raw)


def test_music_best_seen_never_degrades_with_more_iterations(monkeypatch):
    """A single target is one find_service call at any max_iter, and more
    proposals from the same generator never score lower."""
    inst = _instance("f")
    proposals = _counted(monkeypatch, allocation, "find_service")
    short = music(inst, UNLIMITED, _params(max_iter=0), np.random.default_rng(7))
    assert len(proposals) == 1
    long = music(inst, UNLIMITED, _params(max_iter=40), np.random.default_rng(7))
    assert len(proposals) == 2
    assert long.utility >= short.utility


def test_music_returns_the_first_best_of_independent_proposals(monkeypatch):
    """One find_service call per single target returns the first best of
    k + 1 proposals that one-proposal (max_iter 0) calls draw in a row."""
    dep, pop, instances = _fleet(users=2)
    inst = instances[0]
    # music's own searches go through the module; the reference draws below
    # call the function imported before the patch
    proposals = _counted(monkeypatch, allocation, "find_service")
    for seed in range(10):
        for k in (0, 3, 25):
            params = AnnealingParams(max_iter=k)
            before = len(proposals)
            res = music(inst, UNLIMITED, params, np.random.default_rng(seed))
            assert len(proposals) - before == 1
            rng = np.random.default_rng(seed)
            draws = [find_service([inst], inst.center_point(), UNLIMITED,
                                  replace(params, max_iter=0), rng)[0][0]
                     for _ in range(k + 1)]
            assert len(proposals) - before == 1
            utils = [inst.utility_of(inst.evaluate(p)) for p in draws]
            first_best = draws[utils.index(max(utils))]
            assert res.plans[0] == tuple(first_best)
            assert res.utility == max(utils)


def test_budgeted_music_evaluates_each_draw_and_repair_once(monkeypatch):
    """The draws are scored once, in one array pass, and a repair once per
    search table and dimension, however many draws it serves."""
    inst = _instance("f")
    delays = {sid: QoSTriple(*q).delay
              for sid, q in _base(inst, 0, 0).items()}
    assert min(delays, key=delays.get) == 100
    # the fastest service meets the delay budget exactly, so every draw
    # either fits or is repaired to it; a proposal is one draw
    budget = ConstraintVector(delay=delays[100])
    draws = _counted(monkeypatch, allocation, "find_service")
    repairs = _counted(monkeypatch, allocation, "_repair")
    scored = _counted(monkeypatch, allocation.PlanArrays, "raw")
    evaluated = _counted(monkeypatch, UserInstance, "evaluate")
    res = music(inst, budget, _params(max_iter=30), np.random.default_rng(9))
    assert res.feasible and res.plans[0] == (100,)
    assert len(draws) == 1 and len(scored) == 1
    assert len(repairs) == 1
    assert len(evaluated) == len(repairs)


def test_grouped_music_scores_and_budgets_from_one_evaluation(monkeypatch):
    """A shared budget that no member's draw breaks repairs nothing, and
    every proposal is still checked: plans, utility and the generator state
    after the call equal the one-proposal-at-a-time reference's, whose
    proposals are valued at the group mean of the members' evaluated
    utilities."""
    dep, pop, instances = _fleet(users=6, groups=2, seed=6)
    grp = pop.groups[0]
    target = GroupInstance(grp, [instances[u] for u in sorted(grp.members)])
    budget = ConstraintVector(delay=1e12)
    params = AnnealingParams(max_iter=9)
    repairs = _counted(monkeypatch, allocation, "_repair")
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    res = music(target, budget, params, rng)
    assert res.feasible and not repairs
    plans, val, _ = _reference_group_music(target, budget, params, ref_rng,
                                           NO_LEDGER)
    # nor does the loop repair: no draw breaks the budget
    assert not repairs
    assert (res.plans, res.utility) == (plans, val)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert res.utility == fleet_utility(
        {uid: instances[uid].utility_of(instances[uid].evaluate(p))
         for uid, p in res.plans.items()}, sorted(grp.members))


def test_grouped_music_builds_each_search_table_once(monkeypatch):
    """One search table per (member, radius, clouds without room): the
    joint pass builds each member's table under the call's full clouds,
    and a proposal whose earlier members' tentative usage closes a cloud
    re-scores the later members under the larger set, reusing any table
    an earlier proposal built for it. The outcome is the
    one-proposal-at-a-time reference's."""
    dep, pop, instances = _fleet(users=6, groups=2, seed=6)
    grp = pop.groups[0]
    target = GroupInstance(grp, [instances[u] for u in sorted(grp.members)])
    # one slot per local cloud, so a member's tentative usage fills clouds
    # for the members after it and the blocked sets vary across proposals
    locals_ = [cid for cid, node in dep.clouds.items() if node.tier == LOCAL]
    built = []
    radius = allocation._radius

    def counted(instance, center, params, i, blocked, *rest):
        built.append((instance.user.id, i, blocked))
        return radius(instance, center, params, i, blocked, *rest)

    monkeypatch.setattr(allocation, "_radius", counted)
    params = AnnealingParams(max_iter=19)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    res = music(target, UNLIMITED, params, rng,
                ledger=CapacityLedger(dict.fromkeys(locals_, 1)))
    assert res.feasible
    assert len(built) == len(set(built))
    assert len({blocked for _, _, blocked in built}) > 1
    assert {uid for uid, _, blocked in built if not blocked} == grp.members
    monkeypatch.setattr(allocation, "_radius", radius)
    plans, val, _ = _reference_group_music(
        target, UNLIMITED, params, ref_rng,
        CapacityLedger(dict.fromkeys(locals_, 1)))
    assert (res.plans, res.utility) == (plans, val)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_music_queries_each_radius_once():
    inst = _instance("g")
    calls = []
    query = inst.directory.range_query

    def counted(point, radius):
        calls.append(radius)
        return query(point, radius)

    inst.directory.range_query = counted
    # cloud 1 has no room, which forces the search out to 310 m
    res = music(inst, UNLIMITED, _params(max_iter=20), np.random.default_rng(4),
                ledger=CapacityLedger({1: 0}))
    assert res.plans[0] == (201,)
    assert sorted(calls) == [10.0, 110.0, 210.0, 310.0]


def _scalar_find_service(members, center, constraints, params, rng, ledger):
    """find_service one proposal at a time: the first member without a
    memo-less search table under the ledger's full clouds raises with
    nothing drawn; else one rng.random((max_iter + 1) * S) block for S
    occurrences, and max_iter + 1 proposals, each a memo-less search
    (_search) per member, in order, on its slot of the block, blocking the
    clouds the ledger and earlier members leave without room. Returns each
    member's picks and raw QoS in the first best proposal, or raises the
    last proposal's NoFeasibleCandidates when no proposal plans every
    member."""
    budgets = [constraints_for(constraints, m.user.id) for m in members]

    def full(usage):
        return frozenset(c for c, cap in ledger.capacities().items()
                         if cap - ledger.count(c) - usage.get(c, 0) <= 0)

    for m, budget in zip(members, budgets):
        if next(allocation._tables(m, center, budget, params, SearchMemo(),
                                   full({})), None) is None:
            raise allocation._no_plan(m, params)
    sizes = [sum(1 for _ in m.iter_occurrences()) for m in members]
    slots = iter(rng.random((params.max_iter + 1) * sum(sizes)).tolist())
    best, best_val, failure = None, -math.inf, None
    for _ in range(params.max_iter + 1):
        usage, picks, raws = {}, [], []
        draws = [[next(slots) for _ in range(n)] for n in sizes]
        for m, budget, mine in zip(members, budgets, draws):
            found = _search(m, center, budget, params, SearchMemo(),
                            full(usage), mine, 0)
            if found is None:
                failure = allocation._no_plan(m, params)
                break
            picks.append(found[0])
            raws.append(found[1])
            for cid in m.local_clouds(found[0]):
                usage[cid] = usage.get(cid, 0) + 1
        else:
            val = fleet_utility({m.user.id: m.utility(mine)
                                 for m, mine in zip(members, picks)},
                                [m.user.id for m in members])
            if val > best_val:
                best, best_val = (picks, raws), val
    if best is None:
        raise failure
    return best


def _reference_group_music(target, constraints, params, rng, ledger):
    """music() on a group over the one-proposal-at-a-time reference
    (_scalar_find_service): (plans, utility, None) of the first best
    proposal, or (None, -inf, note) with the note music gives when no
    proposal plans every member."""
    try:
        picks, _ = _scalar_find_service(target.members, target.center_point(),
                                        constraints, params, rng, ledger)
    except NoFeasibleCandidates as exc:
        return None, -math.inf, f"group {target.group.id}: {exc}"
    plans = {m.user.id: tuple(mine) for m, mine in zip(target.members, picks)}
    return plans, fleet_utility({m.user.id: m.utility(plans[m.user.id])
                                 for m in target.members},
                                [m.user.id for m in target.members]), None


def test_grouped_music_matches_memo_less_proposals_under_tight_capacity():
    dep, pop, instances = _fleet(users=8, groups=2, seed=8)
    locals_ = [cid for cid, c in dep.clouds.items() if c.tier == LOCAL]
    params = AnnealingParams(max_iter=15)
    checked = 0
    for grp in pop.groups:
        target = GroupInstance(grp, [instances[u] for u in sorted(grp.members)])
        for budget in (UNLIMITED, ConstraintVector(delay=15000.0),
                       ConstraintVector(power=60000.0)):
            for seed in range(4):
                rng, ref_rng = (np.random.default_rng(seed),
                                np.random.default_rng(seed))
                res = music(target, budget, params, rng,
                            ledger=CapacityLedger({c: 1 for c in locals_}))
                plans, val, _ = _reference_group_music(
                    target, budget, params, ref_rng,
                    CapacityLedger({c: 1 for c in locals_}))
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                assert res.feasible == (plans is not None)
                if plans is None:
                    continue
                checked += 1
                assert res.utility == val
                assert res.plans == plans
    assert checked


def _joint_fleets():
    """Grouped fleets for the joint-pass test: per member count, two fleets
    of two groups, with one to three workflows of mixed templates per
    user; with an odd member count, one of them has no public instance.
    One of them has a costly inter-cloud hop, so a repair to the least
    delays can still break a delay budget that the optimistic minima fit,
    and the search widens."""
    fleets = []
    for members in (1, 2, 5, 8, 25):
        for k in range(2):
            sc = Scenario(scenario_id="unit", grid_width=6, grid_height=6,
                          local_clouds=3,
                          public_instances=int(k or members % 2 == 0),
                          users=2 * members, groups=2,
                          workflows_per_user=1 + (members + k) % 3,
                          duration_s=120.0, seed=members * 10 + k,
                          profiles={"intercloud": {
                              "delay_ms_per_100kb": 100.0 + 300.0 * k}})
            dep = build_deployment(sc)
            pop = build_population(sc, dep, 0)
            instances = {uid: UserInstance(pop.users[uid], pop.true_ltws[uid],
                                           dep.directory, dep.profiles,
                                           dep.grid)
                         for uid in pop.users}
            locals_ = [c for c, node in dep.clouds.items()
                       if node.tier == LOCAL]
            fleets.append([GroupInstance(g, [instances[u]
                                             for u in sorted(g.members)])
                           for g in pop.groups] + [locals_])
    return fleets


def test_joint_music_pass_equals_the_member_loop(monkeypatch):
    """music's one joint pass over a target's members against the member
    loop of memo-less one-member searches, over random cases: 1, 2, 5, 8
    and 25 members, each local cloud with room 0 to 3 (or the empty
    ledger), no budget or a delay or power budget at a random level, and
    max_iter 0 to 7. Plans, utility, note and the generator state after
    the call are equal, on targets scored by the joint pass alone, on
    targets with members settled one at a time, on targets whose searches
    widen, on budgeted targets and on infeasible ones."""
    fleets = _joint_fleets()
    # any search means a member was settled one at a time, and a table
    # settled at a radius above the member's pass radius widened
    searches = _counted(monkeypatch, allocation, "_search")
    radii = _spied_radii(monkeypatch)
    rng = np.random.default_rng(26)
    seen = {"joint": 0, "settled": 0, "widened": 0, "budgeted": 0,
            "infeasible": 0}
    sizes = Counter()
    for case in range(200):
        *targets, locals_ = fleets[case % len(fleets)]
        target = targets[int(rng.integers(len(targets)))]
        sizes[len(target.members)] += 1
        ledger = (lambda: NO_LEDGER) if case % 6 == 0 else (
            lambda rooms=rng.integers(0, 4, len(locals_)).tolist():
            CapacityLedger(dict(zip(locals_, rooms))))
        budget = UNLIMITED
        if case % 3:
            dim = ("delay", "power")[case % 2]
            f = float(rng.uniform(-0.1, 0.5))
            budget = ConstraintVector(**{dim: max(
                m.extrema.lo.get(dim) + f * (m.extrema.hi.get(dim)
                                             - m.extrema.lo.get(dim))
                for m in target.members)})
        params = AnnealingParams(max_iter=int(rng.integers(0, 8)),
                                 radius_start_m=float(rng.choice([0.0,
                                                                  300.0])),
                                 radius_step_m=float(rng.choice([100.0,
                                                                 250.0])),
                                 max_expansions=int(rng.integers(1, 5)))
        seed = int(rng.integers(2**32))
        got_rng, ref_rng = (np.random.default_rng(seed),
                            np.random.default_rng(seed))
        before = len(searches), len(radii)
        res = music(target, budget, params, got_rng, ledger=ledger())
        calls = len(searches) - before[0]
        widened = _widened(radii[before[1]:])
        plans, val, note = _reference_group_music(target, budget, params,
                                                  ref_rng, ledger())
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert res.feasible == (plans is not None)
        seen["settled" if calls else "joint"] += 1
        seen["widened"] += widened
        seen["budgeted"] += budget.bounded()
        if plans is None:
            assert (res.plans, res.utility, res.note) == ({}, 0.0, note)
            seen["infeasible"] += 1
            continue
        assert (res.plans, res.utility) == (plans, val)
    assert min(seen.values()) > 2, seen
    assert set(sizes) == {1, 2, 5, 8, 25}, sizes


def _find_service_cases(seed, count):
    """count random find_service calls over _joint_fleets, as (members,
    center, budget, params, ledger factory, generator seed): single users
    and groups of 2 to 25 members, no budget or a per-user budget at a
    random level, each local cloud with room 0 to 2 (or the empty ledger),
    and radii that can miss every local cloud."""
    fleets = _joint_fleets()
    rng = np.random.default_rng(seed)
    for case in range(count):
        *targets, locals_ = fleets[case % len(fleets)]
        target = targets[int(rng.integers(len(targets)))]
        members = target.members
        if case % 2:
            members = [members[int(rng.integers(len(members)))]]
        center = (members[0].center_point() if case % 2
                  else target.center_point())
        rooms = rng.integers(0, 3, len(locals_)).tolist()
        ledger = (lambda: NO_LEDGER) if case % 5 == 0 else (
            lambda rooms=rooms, locals_=locals_:
            CapacityLedger(dict(zip(locals_, rooms))))
        budget = UNLIMITED
        if case % 3:
            dim = DIMS[case % 3]
            budget = {m.user.id: ConstraintVector(**{dim: m.extrema.lo.get(dim)
                      + float(rng.uniform(-0.05, 0.5))
                      * (m.extrema.hi.get(dim) - m.extrema.lo.get(dim))})
                      for m in members}
        params = AnnealingParams(max_iter=int(rng.integers(0, 6)),
                                 radius_start_m=float(rng.choice([0.0,
                                                                  300.0])),
                                 radius_step_m=float(rng.choice([100.0,
                                                                 250.0])),
                                 max_expansions=int(rng.integers(1, 5)))
        yield (members, center, budget, params, ledger,
               int(rng.integers(2**32)))


def _spied_radii(monkeypatch):
    """Replace allocation._tables by a wrapper that logs (member, radius
    index) of each table it yields. A find_service call first takes each
    member's pass table, so a member's first entry in a call is its pass
    radius."""
    calls = []
    tables = allocation._tables

    def spy(instance, *args):
        for i, table in tables(instance, *args):
            calls.append((instance, i))
            yield i, table

    monkeypatch.setattr(allocation, "_tables", spy)
    return calls


def _widened(radii):
    """Whether a find_service call's log of _spied_radii settled a table at
    a radius above that member's pass radius: every table a search yields
    is settled, and the pass tables are yielded first."""
    first = {}
    return any(i > first.setdefault(inst, i) for inst, i in radii)


def _spied_searches(monkeypatch):
    """Replace allocation._search by a wrapper that logs (member, blocked
    clouds, result) of each search."""
    calls = []
    search = allocation._search

    def spy(instance, center, constraints, params, memo, blocked, draws,
            start):
        found = search(instance, center, constraints, params, memo, blocked,
                       draws, start)
        calls.append((instance, blocked, found))
        return found

    monkeypatch.setattr(allocation, "_search", spy)
    return calls


def test_find_service_returns_the_scalar_loops_outcome_or_raises(
        monkeypatch):
    """find_service against its one-proposal-at-a-time reference over
    random cases (see _find_service_cases). It never returns None: it
    returns each member's picks and raw QoS in the reference's first best
    proposal, or raises its last NoFeasibleCandidates. The generator state
    after each call is the reference's, on joint calls and on calls that
    settle members one at a time."""
    # the searches of members settled one at a time, and the radius index
    # of each search table built: tables are built radius by radius as a
    # search widens
    searches = _counted(monkeypatch, allocation, "_search")
    widened = []
    radius = allocation._radius

    def counted(instance, center, params, i, *rest):
        table = radius(instance, center, params, i, *rest)
        widened.append(i > 0 and table is not None)
        return table

    monkeypatch.setattr(allocation, "_radius", counted)
    seen = {"planned": 0, "infeasible": 0, "budgeted": 0, "room-bound": 0,
            "widened": 0, "settled": 0}
    for members, center, budget, params, ledger, seed in \
            _find_service_cases(29, 160):
        got_rng, ref_rng = (np.random.default_rng(seed),
                            np.random.default_rng(seed))
        before = len(searches)
        widened.clear()
        try:
            got = find_service(members, center, budget, params, got_rng,
                               ledger())
        except NoFeasibleCandidates as exc:
            got = exc
        seen["settled"] += len(searches) > before
        seen["widened"] += any(widened)
        try:
            ref = _scalar_find_service(members, center, budget, params,
                                       ref_rng, ledger())
        except NoFeasibleCandidates as exc:
            ref = exc
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert got is not None
        if isinstance(ref, NoFeasibleCandidates):
            assert isinstance(got, NoFeasibleCandidates)
            assert str(got) == str(ref)
            seen["infeasible"] += 1
        else:
            picks, raws = got
            assert (picks, raws) == ref
            assert raws == [m.evaluate(mine)
                            for m, mine in zip(members, picks)]
            seen["planned"] += 1
        seen["budgeted"] += budget is not UNLIMITED
        seen["room-bound"] += any(ledger().room(c) < len(members)
                                  for c in ledger().capacities())
    assert min(seen.values()) > 2, seen


def test_find_service_draws_one_block_or_nothing(monkeypatch):
    """Every find_service call draws rng.random((max_iter + 1) * S), S
    being the members' summed occurrence counts, or nothing when some
    member has no search table under the clouds the ledger leaves without
    room: on joint calls, on calls that settle a member under earlier
    members' tentative usage, that widen, that have infeasible proposals,
    and that raise before or after drawing."""
    searches = _spied_searches(monkeypatch)
    settles = _counted(monkeypatch, allocation, "_settle")
    seen = dict.fromkeys(("joint", "under usage", "widened",
                          "infeasible proposal", "raised before drawing",
                          "raised after drawing"), 0)
    for members, center, budget, params, ledger, seed in \
            _find_service_cases(32, 240):
        full = room_rule(ledger()).full
        tableless = any(next(allocation._tables(
            m, center, constraints_for(budget, m.user.id), params,
            SearchMemo(), full), None) is None for m in members)
        drawn = np.random.default_rng(seed)
        if not tableless:
            drawn.random((params.max_iter + 1)
                         * sum(1 for m in members
                               for _ in m.iter_occurrences()))
        rng = np.random.default_rng(seed)
        searches.clear()
        before = len(settles)
        try:
            find_service(members, center, budget, params, rng, ledger())
            raised = False
        except NoFeasibleCandidates:
            raised = True
        assert rng.bit_generator.state == drawn.bit_generator.state
        if tableless:
            assert raised
            seen["raised before drawing"] += 1
            continue
        seen["raised after drawing"] += raised
        seen["joint"] += not searches
        seen["under usage"] += any(blocked != full
                                   for _, blocked, _ in searches)
        seen["widened"] += len(settles) - before > len(searches)
        seen["infeasible proposal"] += any(found is None
                                           for *_, found in searches)
    assert min(seen.values()) > 2, seen


def test_find_service_raises_the_last_proposals_failure(monkeypatch):
    """When every proposal fails, the call raises the failure of the last
    one: the NoFeasibleCandidates of its first member that fails at every
    radius. Each proposal fails once, so the failed searches number
    max_iter + 1."""
    searches = _spied_searches(monkeypatch)
    seen = {"raised": 0, "failures name several members": 0}
    for members, center, budget, params, ledger, seed in \
            _find_service_cases(33, 240):
        searches.clear()
        try:
            find_service(members, center, budget, params,
                         np.random.default_rng(seed), ledger())
        except NoFeasibleCandidates as exc:
            failed = [m for m, _, found in searches if found is None]
            if not failed:
                continue  # raised before drawing
            assert len(failed) == params.max_iter + 1
            assert str(exc) == str(allocation._no_plan(failed[-1], params))
            seen["raised"] += 1
            seen["failures name several members"] += \
                len({m.user.id for m in failed}) > 1
    assert min(seen.values()) > 0, seen


def test_no_search_table_is_settled_twice(monkeypatch):
    """Within a find_service call, no member settles one search table on
    one slot of doubles twice, counting the joint pass, which settles each
    member's pass table (its first) on every proposal's slot. So a member
    settled one at a time because its draw and every repair broke its
    budget, with no clash at or before it, starts one radius beyond its
    pass table, where that table would fail again. On three pinned
    scenarios whose budgets send members one at a time, the CSV bytes are
    the golden ones, and gain-seed-3 settles 96 tables: 128 less the 32
    re-settles of a pass table its one-at-a-time searches would make."""
    from test_golden import GOLDEN
    tables, settle, find = (allocation._tables, allocation._settle,
                            allocation.find_service)
    passes, settled = {}, set()

    def spied_tables(instance, *args):
        for i, table in tables(instance, *args):
            passes.setdefault(instance, table)
            yield i, table

    def spied_settle(instance, table, constraints, draws):
        key = (instance, id(table), tuple(draws))
        assert table is not passes[instance] and key not in settled
        settled.add(key)
        settles.append(key)
        return settle(instance, table, constraints, draws)

    def spied_find(*args, **kwargs):
        passes.clear()
        settled.clear()
        return find(*args, **kwargs)

    monkeypatch.setattr(allocation, "_tables", spied_tables)
    monkeypatch.setattr(allocation, "_settle", spied_settle)
    monkeypatch.setattr(allocation, "find_service", spied_find)
    for name in ("gain-seed-3", "desk-grouped-budget",
                 "default-gmusic-repair-clash"):
        cfg, digest = GOLDEN[name]
        settles = []
        csv = rows_to_csv(run_experiment(Scenario(**cfg)))
        assert hashlib.sha256(csv.encode()).hexdigest() == digest, name
        assert settles, name
        if name == "gain-seed-3":
            assert len(settles) == 96


def test_a_later_member_without_a_table_raises_before_drawing():
    """A member after the first with no search table at any radius (here,
    a delay budget below its least delay) raises NoFeasibleCandidates
    naming that member, the first such, and nothing is drawn: tentative
    usage only closes clouds, so no proposal could plan it."""
    dep, pop, instances = _fleet(users=3, seed=6)
    members = [instances[u] for u in sorted(instances)]
    tight = {m.user.id: ConstraintVector(
        delay=0.5 * m.extrema.lo.get("delay")) for m in members}
    for budget, named in (({**tight, members[0].user.id: UNLIMITED},
                           members[1]),
                          ({**tight, members[0].user.id: UNLIMITED,
                            members[1].user.id: UNLIMITED}, members[2])):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(NoFeasibleCandidates,
                           match=rf"^user {named.user.id}: "):
            find_service(members, members[0].center_point(), budget,
                         AnnealingParams(max_iter=5), rng)
        assert rng.bit_generator.state == state


def test_no_table_under_the_full_clouds_means_none_under_any_usage():
    """Room only closes clouds: on random ledgers and tentative usage, a
    radius with no search table under the clouds the ledger leaves
    without room (room.full) has none under room(usage), so a member with
    no table under room.full has none in any proposal."""
    rng = np.random.default_rng(31)
    params = AnnealingParams(radius_start_m=0.0, radius_step_m=150.0,
                             max_expansions=5)
    seen = {"usage closes": 0, "no radius table": 0, "no member table": 0}
    for fleet, budget in (
            (_fleet(users=4, seed=9), UNLIMITED),
            (_fleet(users=4, seed=2, public_instances=0, local_capacity=2),
             ConstraintVector(delay=10000.0))):
        dep, pop, instances = fleet
        clouds = sorted(dep.clouds)
        for _ in range(40):
            ledger, usage, _ = _random_room_case(rng, clouds)
            room = room_rule(ledger)
            seen["usage closes"] += room(usage) != room.full
            for inst in instances.values():
                center, memo = inst.center_point(), SearchMemo()
                for i in range(params.max_expansions):
                    if allocation._radius(inst, center, params, i, room.full,
                                          budget, memo) is None:
                        seen["no radius table"] += 1
                        assert allocation._radius(
                            inst, center, params, i, room(usage), budget,
                            memo) is None
                if next(allocation._tables(inst, center, budget, params,
                                           memo, room.full), None) is None:
                    seen["no member table"] += 1
                    assert next(allocation._tables(
                        inst, center, budget, params, memo, room(usage)),
                        None) is None
    assert min(seen.values()) > 5, seen


def test_find_service_over_no_members_raises_invalid_group():
    """A search needs a member: none raises InvalidGroup, the error
    GroupInstance gives for a group without members, and draws nothing."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(InvalidGroup):
        find_service([], (0.0, 0.0), UNLIMITED, AnnealingParams(), rng)
    assert rng.bit_generator.state == state


def test_music_respects_ledger_room():
    inst = _instance("g")
    ledger = CapacityLedger({1: 0, 2: 1})
    res = music(inst, UNLIMITED, _params(), np.random.default_rng(5),
                ledger=ledger)
    assert res.plans[0] == (201,)


def test_music_reports_infeasible_when_nothing_fits():
    inst = _instance("g")
    res = music(inst, ConstraintVector(delay=1.0), _params(),
                np.random.default_rng(6))
    assert not res.feasible
    assert res.plans == {}
    assert res.utility == 0.0
    assert res.note == "user 0: no feasible plan within 4 radius expansions"


def test_an_unplaced_music_target_is_named_once_in_the_fleet_note():
    """At a delay budget that no plan keeps, every MuSIC target is left
    unplaced, and the fleet note names each user, or each group and the
    member whose search failed, exactly once, with the search's reason."""
    dep, pop, instances = _fleet(users=6, groups=2, seed=6)
    reason = "no feasible plan within 15 radius expansions"
    for groups in (None, pop.groups):
        res = allocate_music(instances, ConstraintVector(delay=1.0),
                             AnnealingParams(max_iter=4),
                             np.random.default_rng(3), groups=groups)
        assert not res.feasible and res.plans == {}
        named = []
        for note in res.note.split("; "):
            if groups is None:
                uid, = re.fullmatch(rf"user (\d+): {reason}", note).groups()
                named.append(int(uid))
            else:
                gid, uid = re.fullmatch(rf"group (\d+): user (\d+): {reason}",
                                        note).groups()
                assert int(uid) in {g.id: g.members for g in groups}[int(gid)]
                named.append(int(gid))
        expect = instances if groups is None else [g.id for g in groups]
        assert sorted(named) == sorted(expect)


def test_annealing_params_validation():
    with pytest.raises(ValueError):
        AnnealingParams(max_iter=-1)
    with pytest.raises(ValueError):
        AnnealingParams(max_expansions=0)
    with pytest.raises(ValueError):
        AnnealingParams(radius_start_m=-1.0)
    with pytest.raises(ValueError):
        AnnealingParams(radius_step_m=-1.0)


# --- fleet comparisons against the exact optimum ----------------------------------------

def _fleet(users=4, groups=0, seed=0, public_instances=1, **overrides):
    sc = Scenario(scenario_id="unit", grid_width=6, grid_height=6,
                  local_clouds=3, public_instances=public_instances,
                  users=users, groups=groups, workflows_per_user=1,
                  duration_s=120.0, template_mix={"file_sync": 1.0},
                  seed=seed, **overrides)
    dep = build_deployment(sc)
    pop = build_population(sc, dep, 0)
    instances = {uid: UserInstance(pop.users[uid], pop.true_ltws[uid],
                                   dep.directory, dep.profiles, dep.grid)
                 for uid in pop.users}
    return dep, pop, instances


def test_no_heuristic_beats_the_enumerated_optimum():
    dep, pop, instances = _fleet()
    best = brute_force_optimal(instances, UNLIMITED)
    params = AnnealingParams()
    for runner in (
            lambda: allocate_rsa(instances, UNLIMITED, np.random.default_rng(1)),
            lambda: allocate_greedy(instances, np.random.default_rng(2)),
            lambda: allocate_music(instances, UNLIMITED, params,
                                   np.random.default_rng(3))):
        res = runner()
        assert res.feasible
        assert res.utility is None
        assert objective_from_plans(instances, res.plans) <= best.utility + 1e-9


def test_decomposed_and_joint_enumeration_agree(monkeypatch):
    """A ledger that binds no user's own optimum leaves the optimum as it is
    with no ledger, where nothing binds and each user has one option."""
    dep, pop, instances = _fleet(users=3, seed=1)
    locals_ = [cid for cid, c in dep.clouds.items() if c.tier == LOCAL]
    joint = _counted(monkeypatch, allocation, "_joint_scores")
    # the users' least delays are distinct, so a budget at their median
    # leaves the slowest user unplaced and admits another's least-delay
    # plan on its boundary
    least = [min(r[1].delay for r in _plan_rows(instances[u]))
             for u in sorted(instances)]
    for budget in (UNLIMITED, ConstraintVector(delay=float(np.median(least)))):
        free = brute_force_optimal(instances, budget)
        # one option per user: one combination is scored
        assert [list(map(len, utils)) for utils in joint] == [[1, 1, 1]]
        # room for two of the three users on each local cloud makes every
        # local cloud bind; it binds no user's own optimum
        used = [c for u, p in free.plans.items()
                for c in instances[u].local_clouds(p)]
        assert all(used.count(c) <= 2 for c in locals_)
        bound = brute_force_optimal(
            instances, budget, CapacityLedger(dict.fromkeys(locals_, 2)))
        assert len(joint) == 2 and max(map(len, joint[1])) > 1
        joint.clear()
        assert bound == free
    assert len(free.plans) == 2 and not free.feasible


def _overfills(ledger, usage):
    """Whether usage (cloud id -> users placed on it) exceeds some tracked
    cloud's capacity - count; untracked clouds, and every cloud without a
    ledger, are unbounded."""
    caps = {} if ledger is None else ledger.capacities()
    return any(n > caps[cid] - ledger.count(cid)
               for cid, n in usage.items() if cid in caps)


def _plan_rows(inst):
    """(plan, raw QoS, utility, local clouds) of every plan of the user's
    space, in itertools.product order over the occurrences' candidates."""
    pools = [cands for _, _, cands in inst.iter_occurrences()]
    return [(p, inst.evaluate(p), inst.utility(p), inst.local_clouds(p))
            for p in itertools.product(*pools)]


_UNPLACED = (None, None, 0.0, frozenset())


def _admitted(rows, constraints, ledger=None):
    """The rows, in order, whose raw QoS every budget admits and whose
    local clouds all have room; or, when none is, the one row of an
    unplaced user: no plan, utility 0, no clouds."""
    return [r for r in rows if constraints.admits(r[1])
            and not _overfills(ledger, dict.fromkeys(r[3], 1))] \
        or [_UNPLACED]


def test_joint_enumeration_returns_the_first_best_feasible_combination():
    # both users' unconstrained optima use local cloud 1
    dep, pop, instances = _fleet(users=2, seed=0)
    uids = sorted(instances)
    locals_ = [cid for cid, c in dep.clouds.items() if c.tier == LOCAL]
    free = brute_force_optimal(instances, UNLIMITED)
    rows = [_plan_rows(instances[u]) for u in uids]
    # one slot per local cloud, and a delay budget at the larger delay of
    # the users' own optima: it admits both (boundary inclusive), so they
    # still crowd cloud 1, and cuts plans a user would move to
    budget = ConstraintVector(delay=max(
        instances[u].evaluate(free.plans[u]).delay for u in uids))
    ledger = CapacityLedger({cid: 1 for cid in locals_})
    spaces = [_admitted(space, budget) for space in rows]
    assert sum(map(len, spaces)) < sum(map(len, rows))
    best, best_val, crowded = None, -math.inf, []
    for combo in itertools.product(*spaces):
        val = float(np.mean([r[2] for r in combo]))
        usage = {}
        for r in combo:
            for cid in r[3]:
                usage[cid] = usage.get(cid, 0) + 1
        if _overfills(ledger, usage):
            crowded.append(val)
            continue
        if val > best_val:
            best, best_val = combo, val
    assert best is not None and max(crowded) > best_val  # the ledger binds
    res = brute_force_optimal(instances, budget, ledger)
    # the budget binds on top of the ledger
    assert res.utility == best_val < brute_force_optimal(
        instances, UNLIMITED, ledger).utility
    assert res.plans == {u: r[0] for u, r in zip(uids, best)
                         if r[0] is not None}
    assert res.feasible == (len(res.plans) == len(uids))


def _option_bound(instances, ledger):
    """The bound on the optimum's option product: over users, the least of
    the plan space with clouds without room closed and 2 ** the number of
    binding clouds (room in (0, users)) hosting one of its candidates."""
    blocked = clouds_without_room(ledger)
    binding = {cid for cid in ledger.capacities()
               if 0 < ledger.room(cid) < len(instances)}
    bound = 1
    for inst in instances.values():
        pools = [with_room(c, inst.hosts, blocked)
                 for _, _, c in inst.iter_occurrences()]
        hosts = {inst.hosts[sid] for ids in pools for sid in ids}
        bound *= min(math.prod(map(len, pools)), 2 ** len(binding & hosts))
    return bound


def test_joint_space_over_the_cap_is_refused_before_any_evaluation(
        monkeypatch):
    """cap bounds the option product as _option_bound measures it: one
    below it is refused before any plan is evaluated, and at it the optimum
    is solved. Three users with room for two on each local cloud, whose
    plan spaces lie below the bound and whose product lies far above it;
    and two users of g, whose two plans each lie below 2 ** 2 binding
    clouds."""
    dep, pop, instances = _fleet(users=3, seed=1)
    locals_ = [cid for cid, c in dep.clouds.items() if c.tier == LOCAL]
    sizes = [math.prod(len(c) for _, _, c in instances[u].iter_occurrences())
             for u in sorted(instances)]
    grid, directory, user = _world()
    other = MobileUser(1, trajectory_from_pairs([(0, 60.0)]))
    ltw = LTW((LTWEntry(0, 60.0, leaf("g", 2048.0)),))
    pair = {u.id: UserInstance(u, ltw, directory, ProfileSet.defaults(), grid)
            for u in (user, other)}
    cases = [(instances, lambda: CapacityLedger(dict.fromkeys(locals_, 2))),
             (pair, lambda: CapacityLedger({1: 1, 2: 1}))]
    bound = _option_bound(instances, cases[0][1]())
    assert 1 < max(sizes) < bound < math.prod(sizes)
    assert _option_bound(pair, cases[1][1]()) == 4
    calls = _counted(monkeypatch, UserInstance, "evaluate")
    for fleet, ledger in cases:
        bound = _option_bound(fleet, ledger())
        with pytest.raises(TooLargeForEnumeration, match="joint"):
            brute_force_optimal(fleet, UNLIMITED, ledger(), cap=bound - 1)
        assert calls == []
        res = brute_force_optimal(fleet, UNLIMITED, ledger(), cap=bound)
        assert res.feasible
        assert res == brute_force_optimal(fleet, UNLIMITED, ledger())
        calls.clear()


def test_enumeration_cap_is_enforced():
    dep, pop, instances = _fleet(users=4, seed=2)
    with pytest.raises(TooLargeForEnumeration):
        brute_force_optimal(instances, UNLIMITED, cap=3)
    with pytest.raises(TooLargeForEnumeration):
        brute_force_optimal(instances, ConstraintVector(price=1e9), cap=3)


def _joint_reference(instances, constraints, ledger, groups=None):
    """The first best feasible combination of the users' admitted plans
    (see _admitted) in itertools.product order, scored by fleet_utility:
    (plans of the placed users, value), or (None, -inf) when no
    combination keeps every capacity."""
    uids = sorted(instances)
    spaces = [_admitted(_plan_rows(instances[u]), constraints, ledger)
              for u in uids]
    best, best_val = None, -math.inf
    for combo in itertools.product(*spaces):
        usage = {}
        for r in combo:
            for cid in r[3]:
                usage[cid] = usage.get(cid, 0) + 1
        if _overfills(ledger, usage):
            continue
        row = dict(zip(uids, combo))
        val = fleet_utility({u: r[2] for u, r in row.items()}, uids, groups)
        if val > best_val:
            best = {u: r[0] for u, r in row.items() if r[0] is not None}
            best_val = val
    return best, best_val


def _ledger(capacities, admitted=()):
    ledger = CapacityLedger(capacities)
    for cid in admitted:
        assert ledger.try_admit(cid)
    return ledger


def test_enumeration_under_clouds_without_room_equals_the_joint_reference():
    """Candidates on clouds without room leave the pools; the optimum is the
    full joint space's first best feasible combination all the same, and
    the filtered pools are what the cap measures."""
    ledgers = (({0: 0, 1: 2, 2: 2}, ()),   # no cloud left binds
               ({0: 0, 1: 1, 2: 2}, ()),   # cloud 1 binds
               ({0: 1, 1: 2, 2: 0}, (0,)),  # cloud 0 full by its count
               ({0: 0, 1: 0, 2: 0}, ()),   # public only
               ({0: 2, 1: 2, 2: 2}, (0, 1, 2)))  # one slot left on each
    moved = unplaced = 0
    for seed, groups in ((0, 0), (1, 2), (3, 1)):
        dep, pop, instances = _fleet(users=2, groups=groups, seed=seed)
        free, _ = _joint_reference(instances, UNLIMITED, None)
        least = np.mean([min(r[1].delay for r in _plan_rows(instances[u]))
                         for u in instances])
        reached = np.mean([instances[u].evaluate(free[u]).delay
                           for u in instances])
        budget = ConstraintVector(delay=0.5 * (least + reached))
        for (caps, admitted), constraints in itertools.product(
                ledgers, (UNLIMITED, budget)):
            expect, value = _joint_reference(
                instances, constraints, _ledger(caps, admitted), pop.groups)
            res = brute_force_optimal(instances, constraints,
                                      _ledger(caps, admitted), pop.groups)
            if expect is None:
                assert not res.feasible and res.plans == {}
                continue
            moved += expect != free
            unplaced += len(expect) < len(instances)
            assert res.feasible == (len(expect) == len(instances))
            assert res.utility == value
            assert res.plans == expect
    # ledgers and budgets bind; a budget leaves a user unplaced (see
    # test_room_and_budgets_can_leave_no_joint_assignment for a ledger
    # that, with budgets, leaves no combination)
    assert moved and unplaced

    # closing local clouds shrinks what the cap measures below a cap that
    # the open ledger exceeds: the plan spaces, when nothing binds (all
    # closed against no ledger), and the option bound (see _option_bound),
    # when closing cloud 0 leaves two of three binding clouds for three
    # users whose plan spaces lie within the cap either way
    dep, pop, instances = _fleet(users=2, seed=1)
    ledger = _ledger({0: 0, 1: 0, 2: 0})
    blocked = clouds_without_room(ledger)
    cap = max(math.prod(len(with_room(c, instances[u].hosts, blocked))
                        for _, _, c in instances[u].iter_occurrences())
              for u in sorted(instances))
    with pytest.raises(TooLargeForEnumeration, match="plan space"):
        brute_force_optimal(instances, UNLIMITED, _ledger({}), cap=cap)
    expect, value = _joint_reference(instances, UNLIMITED, ledger)
    res = brute_force_optimal(instances, UNLIMITED, ledger, cap=cap)
    assert res.utility == value and res.plans == expect

    dep, pop, instances = _fleet(users=3, seed=1)
    cap = max(math.prod(len(c) for _, _, c in instances[u].iter_occurrences())
              for u in sorted(instances))
    closed, open_ = {0: 0, 1: 2, 2: 2}, {0: 2, 1: 2, 2: 2}
    assert _option_bound(instances, _ledger(closed)) <= cap \
        < _option_bound(instances, _ledger(open_))
    with pytest.raises(TooLargeForEnumeration, match="joint"):
        brute_force_optimal(instances, UNLIMITED, _ledger(open_), cap=cap)
    rows = {uid: _plan_rows(inst) for uid, inst in instances.items()}
    res = brute_force_optimal(instances, UNLIMITED, _ledger(closed), cap=cap)
    assert res == _check_per_user_optimum(instances, rows, UNLIMITED,
                                          _ledger(closed), None)


def test_room_and_budgets_can_leave_no_joint_assignment():
    """Only a user with no plan within its budgets is unplaced: two users
    whose one plan within budget needs the one slot of cloud 1 get no
    joint assignment, though either alone is placed."""
    grid, directory, user = _world()
    other = MobileUser(1, trajectory_from_pairs([(0, 60.0)]))
    ltw = LTW((LTWEntry(0, 60.0, leaf("f", 2048.0)),))
    instances = {u.id: UserInstance(u, ltw, directory, ProfileSet.defaults(),
                                    grid)
                 for u in (user, other)}
    budget = ConstraintVector(delay=instances[0].evaluate((100,)).delay)
    for inst in instances.values():
        assert [r[0] for r in _admitted(_plan_rows(inst), budget)] == [(100,)]
    res = brute_force_optimal(instances, budget, CapacityLedger({1: 1}))
    assert (res.plans, res.utility, res.feasible, res.note) == (
        {}, 0.0, False, "no feasible joint assignment")
    assert _joint_reference(instances, budget, CapacityLedger({1: 1})) == \
        (None, -math.inf)
    assert brute_force_optimal(instances, UNLIMITED,
                               CapacityLedger({1: 1})).feasible
    alone = brute_force_optimal({0: instances[0]}, budget,
                                CapacityLedger({1: 1}))
    assert alone.feasible and alone.plans == {0: (100,)}


def _per_user_optimum(rows, constraints, ledger, groups=None):
    """The optimum under the per-user budget rule, rows[uid] being
    _plan_rows of the user: the best fleet_utility over one option per
    user that keeps every cloud's room, and whether every user has an
    option. A user's options are, per set of local clouds, the best
    utility of its admitted plans (see _admitted); a set's best dominates
    the rest, since room depends only on the set and the fleet score never
    falls as one utility rises. A user with none is unplaced and scores 0.
    None when no combination keeps the room."""
    uids = sorted(rows)
    options, placeable = [], True
    for u in uids:
        best = {}
        for _, raw, util, clouds in _admitted(rows[u], constraints, ledger):
            if raw is not None:
                key = frozenset(clouds)
                best[key] = max(best.get(key, -math.inf), util)
        placeable = placeable and bool(best)
        options.append(list(best.items()) or [(frozenset(), 0.0)])
    top = None
    for combo in itertools.product(*options):
        usage = {}
        for clouds, _ in combo:
            for cid in clouds:
                usage[cid] = usage.get(cid, 0) + 1
        if not _overfills(ledger, usage):
            val = fleet_utility({u: util for u, (_, util) in zip(uids, combo)},
                                uids, groups)
            top = val if top is None else max(top, val)
    return top, placeable


def _check_per_user_optimum(instances, rows, constraints, ledger, groups):
    """brute_force_optimal against _per_user_optimum; its plans must keep
    the budgets and the room and score its utility. Returns its result."""
    expect, placeable = _per_user_optimum(rows, constraints, ledger, groups)
    res = brute_force_optimal(instances, constraints, ledger, groups)
    if expect is None:
        assert not res.feasible and res.plans == {}
        return res
    assert res.utility == expect
    assert res.feasible == placeable == (len(res.plans) == len(instances))
    usage = {}
    for uid, plan in res.plans.items():
        assert constraints.admits(instances[uid].evaluate(plan))
        for cid in instances[uid].local_clouds(plan):
            usage[cid] = usage.get(cid, 0) + 1
    assert not _overfills(ledger, usage)
    assert objective_from_plans(instances, res.plans, groups) == expect
    return res


def _desk_fleet(sc, rep):
    """The deployment, population, true instances and _plan_rows by user
    of one desk repetition."""
    dep = build_deployment(sc)
    pop = build_population(sc, dep, rep)
    instances = {uid: UserInstance(pop.users[uid], pop.true_ltws[uid],
                                   dep.directory, dep.profiles, dep.grid)
                 for uid in pop.users}
    rows = {uid: _plan_rows(inst) for uid, inst in instances.items()}
    return dep, pop, instances, rows


def test_the_optimum_equals_a_per_user_enumeration_on_desk_fleets():
    """Desk fleets at local capacity 1 and 2 (capacity binds) and 15
    (nothing binds), ungrouped and in two groups, under delay, price and
    power budgets at the median and at the greatest of the users' least
    values: the median leaves users with no plan within budget."""
    desk = load_scenario(DEMO_SCENARIOS / "desk.json")
    cases = {"unplaced": 0, "joint": 0, "grouped": 0}
    for capacity, groups, seed in itertools.product((1, 2, 15), (0, 2),
                                                    (0, 1)):
        sc = replace(desk, local_capacity=capacity, groups=groups, seed=seed)
        for rep in range(sc.repetitions):
            dep, pop, instances, rows = _desk_fleet(sc, rep)
            for dim in ("price", "power", "delay"):
                least = sorted(min(r[1].get(dim) for r in space)
                               for space in rows.values())
                for budget in (least[len(least) // 2], least[-1]):
                    res = _check_per_user_optimum(
                        instances, rows, ConstraintVector(**{dim: budget}),
                        dep.fresh_ledger(), pop.groups)
                    cases["unplaced"] += len(res.plans) < len(instances)
                    cases["joint"] += capacity < sc.users
                    cases["grouped"] += groups > 0
    assert all(cases.values()), cases


def test_the_optimum_equals_the_raw_joint_enumeration_on_small_fleets():
    """brute_force_optimal against _joint_reference, which combines every
    admitted plan in product order: the same plans and the same float
    utility, on fleets of 2 and 3 users at local capacity 1 and 2, in 0, 1
    and 2 groups, unbudgeted and under a delay budget at the users' median
    least delay."""
    cases = {"binds": 0, "unplaced": 0, "grouped": 0}
    for (users, seed), capacity, groups in itertools.product(
            ((2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 3)), (1, 2),
            (0, 1, 2)):
        dep, pop, instances = _fleet(users=users, groups=groups, seed=seed,
                                     local_capacity=capacity,
                                     local_function_rate=0.4)
        least = sorted(min(r[1].delay for r in _plan_rows(inst))
                       for inst in instances.values())
        for budget in (UNLIMITED, ConstraintVector(delay=least[users // 2])):
            expect, value = _joint_reference(instances, budget,
                                             dep.fresh_ledger(), pop.groups)
            res = brute_force_optimal(instances, budget, dep.fresh_ledger(),
                                      pop.groups)
            if expect is None:
                assert (res.plans, res.feasible) == ({}, False)
                continue
            assert (res.plans, res.utility) == (expect, value)
            assert res.feasible == (len(expect) == users)
            free = brute_force_optimal(instances, budget, groups=pop.groups)
            cases["binds"] += res.utility < free.utility
            cases["unplaced"] += len(expect) < users
            cases["grouped"] += groups > 0
    assert all(cases.values()), cases


class _TableInstance:
    """A stand-in for UserInstance whose plans score from a table: pools[k]
    lists the candidate ids of occurrence k, hosts maps an id to its local
    cloud (None elsewhere), and utils maps a plan to its utility."""

    def __init__(self, uid, pools, hosts, utils):
        self.user = SimpleNamespace(id=uid)
        self.pools, self.hosts, self.utils = pools, hosts, utils

    def iter_occurrences(self):
        for k, ids in enumerate(self.pools):
            yield 0, SimpleNamespace(index=k), ids

    def evaluate(self, picks):
        return tuple(picks)

    def utility_of(self, raw):
        return self.utils[raw]

    def utility(self, picks):
        return self.utility_of(self.evaluate(picks))

    def local_clouds(self, picks):
        return {self.hosts[sid] for sid in picks} - {None}


class _TablePlans:
    """_TableInstance's stand-in for PlanArrays over its one member: a
    batch of plans, as positions into lists, scores from the instance's
    table in row 0."""

    def __init__(self, members, lists):
        (self.inst,), self.lists = members, lists

    def _plans(self, positions):
        return [tuple(ids[i] for ids, i in zip(self.lists, col))
                for col in zip(*(p.tolist() for p in positions))]

    def raw(self, positions):
        return self._plans(positions)

    def utility(self, raw, rows=None):
        return np.array([[self.inst.utility_of(p) for p in raw]])

    def clouds_used(self, positions, clouds):
        used = [self.inst.local_clouds(p) for p in self._plans(positions)]
        return np.array([[[cid in u for u in used]] for cid in clouds])


def test_the_optimum_keeps_the_first_best_combination_among_tied_options(
        monkeypatch):
    """Plans scored from a few values tie often, within a set of clouds and
    across sets: brute_force_optimal returns _joint_reference's first best
    feasible combination in product order all the same."""
    monkeypatch.setattr(allocation, "PlanArrays", _TablePlans)
    rng = np.random.default_rng(5)
    values = (0.25, 0.5, 0.75, 1.0)
    moved = 0
    for case in range(150):
        users = int(rng.integers(2, 4))
        instances = {}
        for uid in range(users):
            pools = [[10 * k + j for j in range(int(rng.integers(2, 4)))]
                     for k in range(2)]
            hosts = {sid: [1, 2, 3, None][int(rng.integers(4))]
                     for ids in pools for sid in ids}
            utils = {p: values[int(rng.integers(len(values)))]
                     for p in itertools.product(*pools)}
            instances[uid] = _TableInstance(uid, pools, hosts, utils)
        ledger = CapacityLedger({1: 1, 2: 1, 3: users})
        expect, value = _joint_reference(instances, UNLIMITED, ledger)
        res = brute_force_optimal(instances, UNLIMITED, ledger)
        if expect is None:
            assert (res.plans, res.feasible) == ({}, False)
            continue
        assert (res.plans, res.utility) == (expect, value)
        moved += expect != _joint_reference(instances, UNLIMITED, None)[0]
    assert moved


def test_a_budgeted_run_with_a_small_admitted_space_is_solved():
    """Desk with 7 users at local capacity 2 under a 12000 ms delay budget,
    seed 2, repetition 0: the raw joint product of the users' plan spaces
    is 1,492,992, over the default cap, but with desk's two local clouds
    the option bound is at most 4 ** 7, so the optimum is solved."""
    sc = replace(load_scenario(DEMO_SCENARIOS / "desk.json"), users=7,
                 local_capacity=2, budget_delay=12000.0, seed=2)
    dep, pop, instances, rows = _desk_fleet(sc, 0)
    assert math.prod(map(len, rows.values())) == 1_492_992
    res = _check_per_user_optimum(instances, rows, sc.constraints(),
                                  dep.fresh_ledger(), pop.groups)
    assert res.plans and res.utility > 0


@pytest.mark.parametrize("budget, rep, utility, placed", [
    (9000.0, 1, 0.0, []),  # no user has a plan under 9000 ms
    (9000.0, 2, 0.6509782223911318, [0, 2, 3, 4]),
    (12000.0, 1, 0.6, [0, 3, 4]),
])
def test_desk_budget_reproducers_score_the_per_user_optimum(budget, rep,
                                                            utility, placed):
    """Desk under a delay budget scores the per-user optimum: at 9000 ms one
    user of repetition 2 has no plan within the budget, and at 12000 ms
    two users of repetition 1 have none."""
    sc = replace(load_scenario(DEMO_SCENARIOS / "desk.json"),
                 budget_delay=budget)
    dep, pop, instances, rows = _desk_fleet(sc, rep)
    res = _check_per_user_optimum(instances, rows, sc.constraints(),
                                  dep.fresh_ledger(), pop.groups)
    assert res.utility == utility and sorted(res.plans) == placed


def test_enumeration_names_an_occurrence_left_without_room():
    inst = _instance("g")  # g runs only on local clouds 1 and 2
    with pytest.raises(NoFeasibleCandidates, match="user 0.*'g'"):
        brute_force_optimal({0: inst}, UNLIMITED, CapacityLedger({1: 0, 2: 0}))
    res = brute_force_optimal({0: inst}, UNLIMITED, CapacityLedger({1: 0}))
    assert res.plans == {0: (201,)}


def test_zero_local_capacity_pushes_work_off_the_locals():
    dep, pop, instances = _fleet(users=3, seed=3)
    locals_ = [cid for cid, c in dep.clouds.items() if c.tier == LOCAL]
    for make_ledger, run in (
            (lambda: CapacityLedger({cid: 0 for cid in locals_}),
             lambda lg: allocate_greedy(instances, np.random.default_rng(4),
                                        ledger=lg)),
            (lambda: CapacityLedger({cid: 0 for cid in locals_}),
             lambda lg: allocate_music(instances, UNLIMITED, AnnealingParams(),
                                       np.random.default_rng(5), ledger=lg))):
        ledger = make_ledger()
        res = run(ledger)
        assert res.feasible
        for uid, plan in res.plans.items():
            assert instances[uid].local_clouds(plan) == set()


def test_admitting_into_a_full_cloud_is_a_package_error():
    inst = _instance("f")
    with pytest.raises(AdmissionRefused) as err:
        _sequential({0: inst}, [0], lambda uid: {uid: (100,)},
                    np.random.default_rng(0), CapacityLedger({1: 0}))
    assert isinstance(err.value, TierAllocError)
    assert "cloud 1" in str(err.value)


def test_sequential_admission_respects_capacity():
    dep, pop, instances = _fleet(users=4, seed=4)
    locals_ = [cid for cid, c in dep.clouds.items() if c.tier == LOCAL]
    ledger = CapacityLedger({cid: 1 for cid in locals_})
    res = allocate_greedy(instances, np.random.default_rng(6), ledger=ledger)
    assert res.feasible
    for cid in locals_:
        assert ledger.count(cid) <= 1


def test_fleet_objective_matches_per_user_oracle_with_groups():
    dep, pop, instances = _fleet(users=4, seed=5)
    params = AnnealingParams(max_iter=5)
    res = allocate_music(instances, UNLIMITED, params, np.random.default_rng(7))
    utils = {uid: instances[uid].utility(res.plans[uid]) for uid in instances}
    flat = objective_from_plans(instances, res.plans)
    assert flat == pytest.approx(np.mean(sorted(utils.values())))
    groups = [UserGroup(0, frozenset({0, 1})), UserGroup(1, frozenset({2, 3}))]
    grouped = objective_from_plans(instances, res.plans, groups)
    expect = np.mean([np.mean([utils[0], utils[1]]),
                      np.mean([utils[2], utils[3]])])
    assert grouped == pytest.approx(expect)
    # users without a plan score zero
    partial = {uid: p for uid, p in res.plans.items() if uid != 0}
    with_zero = objective_from_plans(instances, partial)
    assert with_zero == pytest.approx(
        np.mean([0.0] + [utils[u] for u in sorted(utils) if u != 0]))


def test_grouped_annealing_plans_every_member():
    dep, pop, instances = _fleet(users=6, groups=2, seed=6)
    assert pop.groups is not None and len(pop.groups) == 2
    res = allocate_music(instances, UNLIMITED, AnnealingParams(max_iter=5),
                         np.random.default_rng(8), groups=pop.groups)
    assert res.feasible
    assert set(res.plans) == set(instances)
    assert res.utility is None
    grouped = objective_from_plans(instances, res.plans, pop.groups)
    members = [np.mean([instances[m].utility(res.plans[m])
                        for m in sorted(g.members)]) for g in pop.groups]
    assert grouped == pytest.approx(np.mean(members))
    assert 0.0 < grouped <= 1.0


# --- one fleet score and one room test, against the code they replaced ------------------

def _old_objective_from_plans(instances, plans, groups=None):
    """objective_from_plans before fleet_utility."""
    def user_util(uid):
        if uid not in plans:
            return 0.0
        return instances[uid].utility(plans[uid])

    if groups is None:
        if not instances:
            raise ValueError("objective over no users")
        return float(np.mean([user_util(u) for u in sorted(instances)]))
    if not groups:
        raise InvalidGroup("objective over no groups")
    per_group = [float(np.mean([user_util(u) for u in sorted(g.members)]))
                 for g in groups]
    return float(np.mean(per_group))


def _old_exhaustive_score(uids, groups, utils):
    """brute_force_optimal's score closure before fleet_utility."""
    if groups is None:
        return float(np.mean([utils[u] for u in uids]))
    per_group = [float(np.mean([utils[m] for m in sorted(g.members)]))
                 for g in sorted(groups, key=lambda x: x.id)]
    return float(np.mean(per_group))


def test_fleet_utility_equals_the_old_objective_and_exhaustive_score():
    rng = np.random.default_rng(21)
    for _ in range(400):
        uids = sorted(rng.choice(60, int(rng.integers(1, 25)),
                                 replace=False).tolist())
        pool = [0.0, 1.0, 1 / 3, 0.1, 0.7]
        utils = {u: float(rng.random()) if rng.random() < 0.7
                 else pool[int(rng.integers(len(pool)))] for u in uids}
        planned = {u: utils[u] for u in uids if rng.random() < 0.75}
        # a plan stands for its utility
        instances = {u: SimpleNamespace(utility=lambda plan: plan)
                     for u in uids}
        shuffled = [uids[i] for i in rng.permutation(len(uids))]
        k = int(rng.integers(1, len(uids) + 1))
        groups = [UserGroup(int(gid), frozenset(shuffled[i::k]))
                  for i, gid in enumerate(rng.permutation(100)[:k])]
        assert fleet_utility(planned, uids) == \
            _old_objective_from_plans(instances, planned)
        assert fleet_utility(planned, uids, groups) == \
            _old_objective_from_plans(instances, planned, groups)
        by_id = sorted(groups, key=lambda x: x.id)
        assert fleet_utility(utils, uids) == \
            _old_exhaustive_score(uids, None, utils)
        assert fleet_utility(utils, uids, by_id) == \
            _old_exhaustive_score(uids, groups, utils)


def _old_room_for(directory, ledger, base=None, usage=None, held=frozenset()):
    """room_for, the per-candidate room test before room was decided per
    cloud."""
    def ok(sid):
        if base is not None and not base(sid):
            return False
        if ledger is None:
            return True
        node = directory.host_cloud(sid)
        caps = ledger.capacities()
        if node is None or node not in caps or node in held:
            return True
        taken = usage.get(node, 0) if usage else 0
        return caps[node] - ledger.count(node) - taken > 0
    return ok


def _old_reach(instance, center, params, i):
    """_reach before room was decided per cloud, memo-less: (entry,
    occurrence, [(id, gated)]) rows, on-device ids never gated. A local
    id is in reach when its host is one of the local clouds in reach."""
    directory = instance.directory
    radius = params.radius_start_m + i * params.radius_step_m
    rows = []
    for e, occ, cands in instance.iter_occurrences():
        near = set(directory.range_query(center, radius))
        pairs = []
        for sid in cands:
            svc = directory.service(sid)
            if svc.on_device:
                pairs.append((sid, False))
            elif directory.clouds[svc.host_cloud].tier != LOCAL or \
                    svc.host_cloud in near:
                pairs.append((sid, True))
        if not pairs:
            return None
        rows.append((e, occ.index, pairs))
    return rows


def _old_available(rows, ok):
    """_available before room was decided per cloud."""
    allowed = []
    for _, _, pairs in rows:
        ids = tuple([sid for sid, gated in pairs if not gated or ok(sid)])
        if not ids:
            return None
        allowed.append(ids)
    return tuple(allowed)


def _old_fallback_pick(inst, entry, occ_idx, held, ledger, availability, rng):
    """harness._fallback_pick with the per-candidate room test."""
    cands = inst.entries[entry].cands[occ_idx]
    svc = inst.directory.service
    ok = _old_room_for(inst.directory, ledger, availability, held=held)
    ids = [sid for sid in cands if svc(sid).on_device or ok(sid)] or cands
    return ids[int(rng.integers(len(ids)))]


def _random_room_case(rng, clouds):
    """A random ledger (or the empty one), tentative usage and held
    clouds."""
    def subset(items, p):
        return {x for x in items if rng.random() < p}

    ledger = CapacityLedger({})
    if rng.random() < 0.85:
        ledger = CapacityLedger({c: int(rng.integers(0, 4))
                                 for c in subset(clouds, 0.8)})
        for c in clouds:
            for _ in range(int(rng.integers(0, 4))):
                ledger.try_admit(c)
    usage = {c: int(rng.integers(0, 3)) for c in subset(clouds, 0.5)}
    return ledger, usage, subset(clouds, 0.3)


def test_room_for_equals_the_room_tests_it_replaced():
    """The per-cloud room rule against the per-candidate room test: the
    search memo's allowed ids, the baselines' candidate filter and the
    carry-over fallback. The second fleet has no public instance and a
    delay budget, so at small radii some occurrence has nothing in reach
    and some table breaks the budget's optimistic fit."""
    fleet = _fleet(users=4, seed=9)
    _room_rule_case(*fleet, UNLIMITED)
    fleet = _fleet(users=4, seed=2, public_instances=0, local_capacity=2)
    out_of_reach, unfit = _room_rule_case(*fleet,
                                          ConstraintVector(delay=10000.0))
    assert out_of_reach > 100 and unfit > 100


def _room_rule_case(dep, pop, instances, budget):
    """The body of test_room_for_equals_the_room_tests_it_replaced for one
    fleet and budget; returns how many compared radii had an occurrence
    with nothing in reach, and how many broke the budget's optimistic fit."""
    from tieralloc.harness import _fallback_pick
    out_of_reach = unfit = 0
    directory = dep.directory
    sids = sorted({s for inst in instances.values()
                   for _, _, cands in inst.iter_occurrences() for s in cands})
    assert any(directory.service(s).on_device for s in sids)
    clouds = sorted(dep.clouds)
    params = AnnealingParams(radius_start_m=0.0, radius_step_m=150.0,
                             max_expansions=5)
    rng = np.random.default_rng(5)
    compared = blocked_seen = 0
    for _ in range(60):
        # closed clouds stand for the old per-candidate base filter
        closed = frozenset(c for c in clouds if rng.random() < 0.3)
        if rng.random() < 0.3:
            closed = frozenset()
        base = lambda s: directory.hosts[s] not in closed
        # one memo per user and set of closed clouds, shared by ledgers that
        # block different clouds, as in one find_service call
        memos = {uid: SearchMemo() for uid in instances}
        for _ in range(5):
            ledger, usage, held = _random_room_case(rng, clouds)
            blocked = room_rule(ledger)(usage) | closed
            blocked_seen += bool(blocked)
            ok = _old_room_for(directory, ledger, base, usage)
            for uid, inst in instances.items():
                center, memo = inst.center_point(), memos[uid]
                occurrences = sum(1 for _ in inst.iter_occurrences())
                _search(inst, center, budget, params, memo, blocked,
                        np.random.default_rng(0).random(occurrences).tolist(),
                        0)
                stopped = False
                for i in range(params.max_expansions):
                    key = (uid, i, blocked)
                    if key not in memo.radii:
                        # the search drew its plan at an earlier radius
                        assert stopped
                        continue
                    table = memo.radii[key]
                    stopped = table is not None
                    old_rows = _old_reach(inst, center, params, i)
                    allowed = (None if old_rows is None
                               else _old_available(old_rows, ok))
                    out_of_reach += old_rows is None
                    if allowed is not None and budget.bounded() and \
                            not _old_optimistic_fit(inst, old_rows, allowed,
                                                    budget):
                        allowed = None
                        unfit += 1
                    assert (None if table is None else
                            tuple(row[2] for row in table)) == allowed
                    compared += 1
            # the baselines' filter (no tentative usage, nothing held)
            ok = _old_room_for(directory, ledger, base)
            assert with_room(sids, directory.hosts,
                             clouds_without_room(ledger) | closed) == \
                [s for s in sids if directory.service(s).on_device or ok(s)]
            # every index the rng could draw picks the same id, so the
            # filtered candidate lists are equal
            blocked = clouds_without_room(ledger, held=held) | closed
            for inst in instances.values():
                for e, occ, cands in inst.iter_occurrences():
                    for k in range(len(cands)):
                        draw = SimpleNamespace(integers=lambda n: min(k, n - 1))
                        assert _fallback_pick(inst, e, occ.index, blocked,
                                              draw) == \
                            _old_fallback_pick(inst, e, occ.index, held,
                                               ledger, base, draw)
    assert compared > 1000 and blocked_seen > 100
    return out_of_reach, unfit


def _old_optimistic_fit(instance, rows, allowed, constraints):
    """_optimistic_fit over reach rows and allowed ids: the per-occurrence
    minima folded through each entry's workflow, summed over entries."""
    minima = [[] for _ in instance.entries]
    for (e, j, _), ids in zip(rows, allowed):
        base = _base(instance, e, j)
        minima[e].append(QoSTriple(*(min(base[sid][k] for sid in ids)
                                     for k in range(3))))
    total = QoSTriple(0.0, 0.0, 0.0)
    for entry, leaves in zip(instance.ltw.entries, minima):
        total = total + fold_qos(entry.workflow, leaves)
    return constraints.admits(total)


def _old_repair(instance, rows, allowed, dim):
    """_repair over reach rows and allowed ids, as a plan keyed by (entry,
    occurrence index)."""
    k = ("price", "power", "delay").index(dim)
    plan = {}
    for (e, j, _), ids in zip(rows, allowed):
        base = _base(instance, e, j)
        plan[(e, j)] = min(ids, key=lambda s: (base[s][k], s))
    return plan


def _reference_find_service(instance, center, constraints, params, rng, ok):
    """One proposal of find_service before room was decided per cloud and
    draws came in one call: memo-less, every gated id through an
    availability callable, plans keyed by (entry, occurrence index). No
    radius with a table raises with nothing drawn; else one scalar
    rng.random() per occurrence, spun at each radius with a table in turn.
    Also returns the radius index used and whether the plan is a repair."""
    bounded = constraints.bounded()
    radii = []
    for i in range(params.max_expansions):
        rows = _old_reach(instance, center, params, i)
        if rows is None:
            continue
        allowed = _old_available(rows, ok)
        if allowed is None:
            continue
        if bounded and not _old_optimistic_fit(instance, rows, allowed,
                                               constraints):
            continue
        radii.append((i, rows, allowed))
    if not radii:
        raise NoFeasibleCandidates("no feasible plan")
    draws = [rng.random() for _ in radii[0][1]]
    for i, rows, allowed in radii:
        plan = {}
        for (e, j, _), ids, draw in zip(rows, allowed, draws):
            snorm = _snorm(instance, e, j)
            order = sorted(ids, key=lambda s: (snorm[s], s))
            plan[(e, j)] = order[roulette_index(
                [snorm[s] for s in order], draw)]
        raw = _dict_evaluate(instance, plan)
        if not bounded or constraints.admits(raw):
            return plan, raw, i, False
        for dim in constraints.violated(raw):
            fixed = _old_repair(instance, rows, allowed, dim)
            fixed_raw = _dict_evaluate(instance, fixed)
            if constraints.admits(fixed_raw):
                return fixed, fixed_raw, i, True
    raise NoFeasibleCandidates("no feasible plan")


def test_find_service_draws_like_the_scalar_reference():
    """A one-proposal (max_iter 0) call's plans, raw QoS and the generator
    state after it equal the scalar-draw reference on the widen, repair and
    infeasible paths; the clouds without room are the ledger's."""
    dep, pop, instances = _fleet(users=4, seed=9)
    directory = dep.directory
    clouds = sorted(dep.clouds)
    local_clouds = [c for c in clouds if dep.clouds[c].tier == LOCAL]
    params = AnnealingParams(max_iter=0, radius_start_m=0.0,
                             radius_step_m=150.0, max_expansions=5)
    rng = np.random.default_rng(17)
    paths = {"widen": 0, "repair": 0, "infeasible": 0}
    for case in range(40):
        inst = instances[sorted(instances)[case % len(instances)]]
        center = inst.center_point()
        # a budget from just below the least to well inside the envelope
        dim = ("price", "power", "delay")[case % 3]
        lo, hi = inst.extrema.lo.get(dim), inst.extrema.hi.get(dim)
        budget = (UNLIMITED if case % 4 == 0 else ConstraintVector(
            **{dim: lo + float(rng.uniform(-0.02, 0.8)) * (hi - lo)}))
        # closed local clouds, as in the public-only pass, stand for the old
        # per-candidate base filter
        closed = frozenset(c for c in local_clouds if rng.random() < 0.25)
        if case % 5 == 0:
            closed = frozenset()
        base = lambda s: directory.hosts[s] not in closed
        seed = int(rng.integers(2**32))
        got_rng, ref_rng = (np.random.default_rng(seed),
                            np.random.default_rng(seed))
        for _ in range(6):
            ledger, usage, _ = _random_room_case(rng, clouds)
            ok = _old_room_for(directory, ledger, base, usage)
            try:
                ref = _reference_find_service(inst, center, budget, params,
                                              ref_rng, ok)
            except NoFeasibleCandidates:
                ref = None
                paths["infeasible"] += 1
            full = room_rule(ledger)(usage) | closed
            try:
                (picks,), (raw,) = find_service(
                    [inst], center, budget, params, got_rng,
                    CapacityLedger(dict.fromkeys(full, 0)))
                got = picks, raw
            except NoFeasibleCandidates:
                got = None
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state
            assert (got is None) == (ref is None)
            if ref is not None:
                plan, raw, i, repaired = ref
                paths["widen"] += i > 0
                paths["repair"] += repaired
                assert _keyed(inst, got[0]) == plan
                assert got[1] == raw
    assert min(paths.values()) > 5, paths


def test_one_draw_call_equals_scalar_draws():
    for seed in range(20):
        for n in (1, 2, 7, 33):
            one, many = (np.random.default_rng(seed),
                         np.random.default_rng(seed))
            assert one.random(n).tolist() == [many.random() for _ in range(n)]
            assert one.bit_generator.state == many.bit_generator.state


# --- candidate costing against the per-candidate code it replaced -----------------------

def _old_service_qos(svc, cell, kb, grid, profiles, clouds):
    """A candidate's cost as invocation_context and service_price /
    service_power / service_delay once computed it, operation for
    operation, checked by the public QoSTriple constructor."""
    covered_by = grid.cell(cell).wifi_covered_by
    if svc.on_device:
        tier, link = "device", None
    else:
        tier = clouds[svc.host_cloud].tier
        if tier == LOCAL:
            link = "wifi" if covered_by == svc.host_cloud else "3g"
        else:
            link = "wifi" if covered_by is not None else "3g"
    comp = profiles.compute_profile(svc.compute_ref)
    compute = comp.delay_ms_per_100kb * kb / 100.0
    delay = compute
    if link is not None:
        delay += profiles.links[(link, tier)].delay_ms_per_100kb * kb / 100.0
    if link is None:
        power = comp.energy_mj_per_100kb * kb / 100.0
    else:
        power = profiles.links[(link, tier)].energy_mj_per_100kb * kb / 100.0
    price = 0.0
    if tier != "device":
        gb = kb / (1024.0 * 1024.0)
        book = profiles.price
        if tier == PUBLIC:
            hours = compute / 3.6e6
            rate = (book.streaming_usd_per_hour if comp.billing == "streaming"
                    else book.public_compute_usd_per_hour)
            price += rate * hours
            price += book.transfer_usd_per_gb * gb
            if comp.billing == "storage":
                price += book.storage_usd_per_gb * gb
        if link == "3g":
            price += book.cellular_usd_per_gb * gb
    return QoSTriple(price=price, power=power, delay=delay)


def _old_tables(inst):
    """cands, base, snorm and extrema as UserInstance once built them:
    candidate_services per occurrence, a checked triple and a
    normalize_service triple per candidate, emin/emax for the occurrence
    envelope, and the hop envelope from intercloud_hop_ms over every pair
    of candidate hosts."""
    user, directory, profiles = inst.user, inst.directory, inst.profiles
    cands, base, snorm = [], [], []
    lo_total = hi_total = QoSTriple(0.0, 0.0, 0.0)
    for entry in inst.ltw.entries:
        e_cands, e_base, e_snorm, env_lo, env_hi = [], [], [], [], []
        for occ in occurrences(entry.workflow):
            ids = candidate_services(occ.fn.function_id, user, directory)
            qos = {sid: _old_service_qos(directory.service(sid), entry.cell_id,
                                         occ.fn.input_kb, inst.grid, profiles,
                                         directory.clouds)
                   for sid in ids}
            lo = hi = next(iter(qos.values()))
            for t in qos.values():
                lo, hi = lo.emin(t), hi.emax(t)
            ext = QoSExtrema(lo=lo, hi=hi)
            e_cands.append(ids)
            e_base.append(qos)
            e_snorm.append({sid: normalize_service(t, ext)[1]
                            for sid, t in qos.items()})
            if occ.prev is not None:
                prev_nodes = {directory.host_cloud(s) for s in e_cands[occ.prev]}
                lo_extra, hi_extra = math.inf, 0.0
                for sid in qos:
                    possible = {intercloud_hop_ms(directory.host_cloud(sid), p,
                                                  occ.fn.input_kb, profiles)
                                for p in prev_nodes}
                    lo_extra = min(lo_extra, min(possible))
                    hi_extra = max(hi_extra, max(possible))
                lo = QoSTriple(lo.price, lo.power, lo.delay + lo_extra)
                hi = QoSTriple(hi.price, hi.power, hi.delay + hi_extra)
            env_lo.append(lo)
            env_hi.append(hi)
        cands.append(e_cands)
        base.append(e_base)
        snorm.append(e_snorm)
        lo_total = lo_total + fold_qos(entry.workflow, env_lo)
        hi_total = hi_total + fold_qos(entry.workflow, env_hi)
    return cands, base, snorm, QoSExtrema(lo=lo_total, hi=hi_total)


def _triples(inst):
    """Each entry's _base rows, read as QoSTriples."""
    return [[{sid: QoSTriple(*row) for sid, row in rows.items()}
             for rows in _entry(inst, e)] for e in range(len(inst.entries))]


def _assert_tables_equal_the_old_costing(inst):
    cands, base, snorm, extrema = _old_tables(inst)
    assert [tables.cands for tables in inst.entries] == cands
    assert _triples(inst) == base
    assert [_entry(inst, e, _snorm)
            for e in range(len(inst.entries))] == snorm
    assert inst.extrema == extrema


def test_candidate_tables_equal_the_old_per_candidate_costing():
    from tieralloc import harness
    desk = load_scenario(DEMO_SCENARIOS / "desk.json")
    rng = np.random.default_rng(21)
    checked = single = 0
    for k in range(12):
        seed = int(rng.integers(2**31))
        if k % 3 == 1:
            sc = replace(desk, seed=seed)
        elif k % 3 == 0:  # default scale, with device services and mispredictions
            sc = Scenario(users=4, repetitions=1, uncertainty_pct=50.0,
                          seed=seed)
        else:  # sparse: many occurrences have one candidate, every span 0
            sc = Scenario(users=4, repetitions=1, uncertainty_pct=50.0,
                          public_instances=1, local_function_rate=0.1,
                          device_service_rate=0.1, seed=seed)
        dep = build_deployment(sc)
        pop = build_population(sc, dep, 0)
        # the whole population queued in one memo, so one pass costs the
        # entries of every user, true and predicted, back to back
        batched = harness._population_instances(dep, pop)
        for uid in pop.users:
            for ltw, built in zip((pop.true_ltws[uid], pop.predicted_ltws[uid]),
                                  batched):
                _assert_tables_equal_the_old_costing(UserInstance(
                    pop.users[uid], ltw, dep.directory, dep.profiles, dep.grid))
                _assert_tables_equal_the_old_costing(built[uid])
                single += sum(len(c) == 1 for t in built[uid].entries
                              for c in t.cands)
                checked += 1
    assert checked == 104
    assert single > 20


def test_snorm_squares_like_the_scalar_reference():
    # public compute at 86.12 ms/100KB gives service 102 a normalized price
    # x with x ** 2 != x * x, and its total differs in the last bit: a total
    # that squares with numpy (x * x) fails here
    grid, directory, user = _world()
    profiles = ProfileSet.defaults()
    profiles.compute["public"] = ComputeProfile(86.12)
    inst = UserInstance(user, LTW((LTWEntry(0, 60.0, leaf("f", 2048.0)),)),
                        directory, profiles, grid)
    _assert_tables_equal_the_old_costing(inst)
    rows = _triples(inst)[0][0]
    norm = []
    for dim in ("price", "power", "delay"):
        values = [q.get(dim) for q in rows.values()]
        lo, hi = min(values), max(values)
        norm.append((hi - rows[102].get(dim)) / (hi - lo))
    p, w, d = norm
    assert p ** 2 != p * p
    snorm = _snorm(inst, 0, 0)
    assert snorm[102] == math.sqrt(p ** 2 + w ** 2 + d ** 2)
    assert snorm[102] != float(np.sqrt(np.sum(np.array(norm) ** 2)))


def test_hop_extremes_equal_the_envelope_over_every_host_pair():
    profiles = ProfileSet.defaults()
    rng = np.random.default_rng(5)
    pool = (None, 1, 2, 3)  # None: on the device
    for _ in range(400):
        hosts, prev = [{h for h in pool if rng.random() < 0.4}
                       or {pool[int(rng.integers(len(pool)))]}
                       for _ in range(2)]
        kb = float(rng.uniform(1.0, 4096.0))
        lo, hi = math.inf, 0.0
        for node in hosts:
            possible = {intercloud_hop_ms(node, p, kb, profiles) for p in prev}
            lo, hi = min(lo, min(possible)), max(hi, max(possible))
        assert allocation._hop_extremes(hosts, prev, kb, profiles) == (lo, hi)


def test_candidate_rows_are_checked_where_they_enter():
    grid, directory, user = _world()
    ltw = LTW((LTWEntry(0, 60.0, leaf("f", 2048.0)),))
    negative = ProfileSet.defaults()
    negative.compute["public"] = ComputeProfile(-100.0)
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        UserInstance(user, ltw, directory, negative, grid)
    not_a_number = ProfileSet.defaults()
    not_a_number.price = replace(not_a_number.price,
                                 transfer_usd_per_gb=math.nan)
    with pytest.raises(ValueError, match="price must be finite"):
        UserInstance(user, ltw, directory, not_a_number, grid)
    # a batched pass: user 1's device runs f at a negative delay and g at a
    # NaN power
    profiles = ProfileSet.defaults()
    profiles.compute["slow"] = ComputeProfile(-1.0)
    profiles.compute["drain"] = ComputeProfile(1.0, math.nan)
    directory.insert(Service(400, "f", host_user=1, compute_ref="slow"))
    directory.insert(Service(401, "g", host_user=1, compute_ref="drain"))
    other = MobileUser(1, user.trajectory)
    # in build order the delay row comes first; scanning price, then
    # power, then delay over all rows would meet the power first
    bad = LTW((LTWEntry(1, 30.0, leaf("f", 2048.0)),
               LTWEntry(3, 30.0, leaf("g", 1024.0))))
    # service_qos raises what QoSTriple(*row) raises for the scalar row
    with pytest.raises(ValueError) as expected:
        service_qos(invocation_context(directory.service(400), 1, 2048.0,
                                       grid, directory.clouds), profiles)
    assert "delay must be finite" in str(expected.value)
    memo = allocation.CostMemo(directory, profiles)
    memo.expect(user, ltw, grid)
    memo.expect(other, bad, grid)
    # the first instance's build costs the second user's queued entries too
    with pytest.raises(ValueError) as raised:
        UserInstance(user, ltw, directory, profiles, grid, memo=memo)
    assert str(raised.value) == str(expected.value)
    # alone, the first user's tables are fine
    UserInstance(user, ltw, directory, profiles, grid)


# --- one cost memo per population ------------------------------------------------------

def _random_profiles(rng):
    """A ProfileSet with every table drawn at random, and compute profiles
    of every billing class for each service the world below deploys."""
    def draw(lo, hi):
        return float(rng.uniform(lo, hi))

    profiles = ProfileSet.defaults()
    for key in list(profiles.links):
        profiles.links[key] = LinkProfile(draw(0.1, 400.0), draw(0.0, 2e3))
    profiles.intercloud = LinkProfile(draw(0.0, 50.0))
    profiles.price = PriceBook(*(draw(0.0, 30.0) for _ in range(5)))
    billings = ("compute", "streaming", "storage")
    for ref in range(40):
        profiles.compute[f"r{ref}"] = ComputeProfile(
            draw(0.0, 200.0), draw(0.0, 200.0),
            billing=billings[int(rng.integers(3))])
    return profiles


def _random_cost_world(rng, profiles):
    """8x2 cells; local clouds 1 (cell 0) and 2 (cell 15) cover the cells
    next to them, public clouds 7 and 8 sit outside; functions a, b, c run
    on some clouds and on some users' devices, with service ids that
    interleave the two kinds."""
    grid = LocationMap(8, 2, 100.0, wifi={0: 1, 1: 1, 8: 1, 15: 2, 14: 2})
    clouds = {1: CloudNode(1, LOCAL, location=0, capacity=3),
              2: CloudNode(2, LOCAL, location=15, capacity=3),
              7: CloudNode(7, PUBLIC), 8: CloudNode(8, PUBLIC)}
    directory = ServiceDirectory(grid, clouds)
    ids = iter(rng.permutation(200).tolist())
    refs = list(profiles.compute)

    def ref():
        return refs[int(rng.integers(len(refs)))]

    for fn in "abc":
        for cid in clouds:
            if cid in (7, 8) or rng.random() < 0.7:
                directory.insert(Service(next(ids), fn, host_cloud=cid,
                                         compute_ref=ref()))
    users = []
    for uid in range(4):
        for fn in "abc":
            for _ in range(int(rng.integers(0, 3))):
                directory.insert(Service(next(ids), fn, host_user=uid,
                                         compute_ref=ref()))
        users.append(MobileUser(uid, trajectory_from_pairs([(0, 60.0)])))
    return grid, directory, users


def _random_ltw(rng):
    def kb():
        return float(rng.uniform(1.0, 5000.0))

    def fn():
        return "abc"[int(rng.integers(3))]

    shapes = (lambda: seq(leaf(fn(), kb()), leaf(fn(), kb())),
              lambda: par(leaf(fn(), kb()), leaf(fn(), kb())),
              lambda: seq(par(leaf("a", kb()), leaf("b", kb())),
                          leaf("c", kb())),
              lambda: leaf(fn(), kb()))
    # covered (by cloud 1 or 2) and uncovered cells alike
    return LTW(tuple(LTWEntry(int(rng.choice([0, 1, 8, 15, 14, 3, 5, 11])),
                              30.0, shapes[int(rng.integers(4))]())
                     for _ in range(int(rng.integers(2, 6)))))


def test_shared_cost_memo_tables_equal_fresh_builds_and_the_old_costing(
        monkeypatch):
    rng = np.random.default_rng(23)
    rows = 0
    for case in range(25):
        # 7 rows per pass cuts a population into many passes
        monkeypatch.setattr(allocation, "_PASS_ROWS",
                            7 if case % 4 < 2 else 2048)
        profiles = _random_profiles(rng)
        grid, directory, users = _random_cost_world(rng, profiles)
        memo = allocation.CostMemo(directory, profiles)
        ltws = [(user, _random_ltw(rng)) for user in users for _ in range(2)]
        if case % 2:  # the whole population queued before the first build
            for user, ltw in ltws:
                memo.expect(user, ltw, grid)
        for k, (user, ltw) in enumerate(ltws):
            inst = UserInstance(user, ltw, directory, profiles, grid,
                                memo=memo)
            if case % 2 and k == 0:
                assert not memo.queued and len(memo.tables) >= len(ltws)
            fresh = UserInstance(user, ltw, directory, profiles, grid)
            assert inst.extrema == fresh.extrema
            for e, (got, built) in enumerate(zip(inst.entries,
                                                 fresh.entries)):
                assert got.cands == built.cands
                for of in (_base, _snorm):
                    assert _entry(inst, e, of) == _entry(fresh, e, of)
                assert _hops(got) == _hops(built)
                assert (got.lo, got.hi) == (built.lo, built.hi)
            _assert_tables_equal_the_old_costing(inst)
            rows += sum(len(t) for tables in inst.entries
                        for t in tables.cands)
        # every kind of (service, WiFi owner) was costed
        keys = memo.rates.keys()
        assert any(type(k) is int for k in keys)
        assert {k[1] for k in keys if type(k) is tuple} == {None, 1, 2}
    assert rows > 2000
    other = ProfileSet.defaults()
    with pytest.raises(ValueError, match="one profile set"):
        UserInstance(users[0], ltw, directory, other, grid, memo=memo)


def test_candidate_ids_are_merged_once_per_function_and_user():
    """The candidate ids and host set of a user with device services for a
    function are merged once and shared across WiFi owners; each owner's
    rate column resolves that service's cost from a cell under that
    owner."""
    from tieralloc.profiles import service_rates
    rng = np.random.default_rng(29)
    merged = 0
    for _ in range(10):
        profiles = _random_profiles(rng)
        grid, directory, users = _random_cost_world(rng, profiles)
        memo = allocation.CostMemo(directory, profiles)
        for user in users:
            for fn in "abc":
                device = directory.device_services_for(user.id, fn)
                first = None
                for owner in (None, 1, 2, None):
                    ids, hosts, where, columns = memo.candidates_of(
                        fn, user, owner)
                    assert ids == sorted([*directory.cloud_services_for(fn),
                                          *device])
                    assert hosts == {directory.hosts[sid] for sid in ids}
                    assert where == {sid: k for k, sid in enumerate(ids)}
                    assert [memo.new_rates[c] for c in columns] == [
                        service_rates(directory.service(sid), owner,
                                      directory.clouds, profiles)
                        for sid in ids]
                    first = first or (ids, hosts, where)
                    if device:
                        assert (ids is first[0] and hosts is first[1]
                                and where is first[2])
                merged += bool(device)
    assert merged > 20


def test_the_directory_is_asked_once_per_function_and_user(monkeypatch):
    """Costing a population asks the directory for a user's device services
    once per (function, user) pair, whether it has some or none."""
    from tieralloc import harness
    asked = Counter()
    device_services_for = ServiceDirectory.device_services_for

    def spy(self, user_id, function_id):
        asked[(function_id, user_id)] += 1
        return device_services_for(self, user_id, function_id)

    monkeypatch.setattr(ServiceDirectory, "device_services_for", spy)
    answers = Counter()
    for seed in range(3):
        sc = Scenario(users=12, repetitions=1, uncertainty_pct=50.0,
                      seed=seed)
        dep = build_deployment(sc)
        pop = build_population(sc, dep, 0)
        asked.clear()
        harness._population_instances(dep, pop)
        pairs = {(occ.fn.function_id, uid)
                 for ltws in (pop.true_ltws, pop.predicted_ltws)
                 for uid, ltw in ltws.items() for entry in ltw.entries
                 for occ in outline(entry.workflow)[0]}
        assert set(asked) == pairs
        assert set(asked.values()) == {1}
        answers.update(bool(device_services_for(dep.directory, u, f))
                       for f, u in pairs)
    # users with device services for a function and users without
    assert answers[True] > 5 and answers[False] > 50


def test_cost_store_rows_equal_the_per_candidate_costing(monkeypatch):
    """Over random populations cut into several costing passes, every row
    of the store (price, power, delay, total normalized QoS and host code,
    in its lists and its arrays) equals the per-candidate costing, for
    cloud-only users and for users whose device services are spliced into
    the cloud candidates at every WiFi owner. PlanArrays over members of
    two memos, interleaved, and of no shared memo, gathers each member's
    rows from its own store."""
    from tieralloc.allocation import _ON_DEVICE
    rng = np.random.default_rng(31)
    seen = {"passes": 0, "spliced": set(), "cloud only": 0, "mixed": 0}
    for case in range(12):
        monkeypatch.setattr(allocation, "_PASS_ROWS",
                            int(rng.integers(5, 60)))
        profiles = _random_profiles(rng)
        grid, directory, users = _random_cost_world(rng, profiles)
        memos = [allocation.CostMemo(directory, profiles) for _ in range(2)]
        ltws = [(user, _random_ltw(rng)) for user in users for _ in range(3)]
        for user, ltw in ltws:
            memos[0].expect(user, ltw, grid)
        insts = [UserInstance(user, ltw, directory, profiles, grid,
                              memo=memos[k % 2])
                 for k, (user, ltw) in enumerate(ltws)]
        seen["passes"] = max(seen["passes"], len(memos[0].store._cols))
        for inst in insts:
            store = inst.store
            cands, base, snorm, _ = _old_tables(inst)
            assert [t.cands for t in inst.entries] == cands
            for e, (tables, entry) in enumerate(zip(inst.entries,
                                                    inst.ltw.entries)):
                owner = grid.cell(entry.cell_id).wifi_covered_by
                for j, ids in enumerate(tables.cands):
                    device = [s for s in ids if directory.hosts[s] is None]
                    if device and len(device) < len(ids):
                        seen["spliced"].add(owner)
                    seen["cloud only"] += not device
                    for sid, i in zip(ids, _rows(tables, j, ids)):
                        row = (store.price[i], store.power[i],
                               store.delay[i])
                        assert QoSTriple(*row) == base[e][j][sid]
                        assert store.snorm[i] == snorm[e][j][sid]
                        assert store.cols[:, i].tolist() == list(row)
                        host = directory.hosts[sid]
                        assert store.codes[i] == (
                            _ON_DEVICE if host is None else host)
        # members of both memos and of none, side by side
        members = [insts[0], insts[1],
                   UserInstance(users[0], ltws[0][1], directory, profiles,
                                grid), insts[2]]
        lists = [[c[i] for i in rng.permutation(len(c))]
                 for m in members for _, _, c in m.iter_occurrences()]
        positions = np.array([rng.integers(len(ids), size=7)
                              for ids in lists])
        arrays = PlanArrays(members, lists)
        raw = arrays.raw(positions)
        k = 0
        for m, inst in enumerate(members):
            mine = lists[k:k + inst.size]
            own = PlanArrays([inst], mine)
            assert [c[m].tolist() for c in raw] == \
                [c[0].tolist() for c in own.raw(positions[k:k + inst.size])]
            for r in range(7):
                picks = [ids[i] for ids, i in
                         zip(mine, positions[k:k + inst.size, r])]
                assert _columns([c[m] for c in raw], r) == \
                    inst.evaluate(picks)
            k += inst.size
        seen["mixed"] += 1
    assert seen["passes"] >= 2
    assert seen["spliced"] == {None, 1, 2}
    assert seen["cloud only"] > 20 and seen["mixed"] == 12


def test_the_first_bad_row_raises_across_a_pass_boundary(monkeypatch):
    """With one entry per costing pass, the checked-rows ValueError is the
    one of the first bad row in build order, in a later pass than the good
    rows, and the store keeps only the passes before it."""
    # one entry per pass
    monkeypatch.setattr(allocation, "_PASS_ROWS", 1)
    grid, directory, user = _world()
    profiles = ProfileSet.defaults()
    profiles.compute["slow"] = ComputeProfile(-1.0)
    profiles.compute["drain"] = ComputeProfile(1.0, math.nan)
    directory.insert(Service(400, "f", host_user=1, compute_ref="slow"))
    directory.insert(Service(401, "g", host_user=1, compute_ref="drain"))
    other = MobileUser(1, user.trajectory)
    good = LTW((LTWEntry(0, 60.0, leaf("f", 2048.0)),))
    f_bad, g_bad = (LTWEntry(1, 30.0, leaf("f", 2048.0)),
                    LTWEntry(3, 30.0, leaf("g", 1024.0)))
    for entries, message in (((f_bad, g_bad), "delay must be finite"),
                             ((g_bad, f_bad), "power must be finite")):
        memo = allocation.CostMemo(directory, profiles)
        memo.expect(user, good, grid)
        memo.expect(other, LTW(entries), grid)
        with pytest.raises(ValueError, match=message):
            UserInstance(user, good, directory, profiles, grid, memo=memo)
        # the good entry's pass was stored, and nothing after it
        alone = UserInstance(user, good, directory, profiles, grid)
        assert len(memo.store) == len(alone.store)
        assert memo.store.price == alone.store.price


def test_joint_scores_equal_fleet_utility_per_combination(monkeypatch):
    rng = np.random.default_rng(4)
    # chunks of 7 combinations, so chunk boundaries fall inside the product
    monkeypatch.setattr(allocation, "_SCORE_CHUNK", 7)
    # the last cases have 70 users, more axes than np.unravel_index takes
    for case in range(64):
        n_users = int(rng.integers(1, 12)) if case < 60 else 70
        users = sorted(rng.choice(30 if n_users < 30 else 100, size=n_users,
                                  replace=False).tolist())
        sizes = [int(rng.integers(1, 4)) for _ in users]
        while math.prod(sizes) > 300:
            sizes[sizes.index(max(sizes))] -= 1
        utils = [rng.random(n).tolist() for n in sizes]
        groups = None
        if case % 2:
            cut = sorted(rng.choice(range(1, n_users + 1),
                                    size=min(n_users, int(rng.integers(1, 5))),
                                    replace=False).tolist())
            bounds = [0] + cut[:-1] + [n_users]
            groups = [UserGroup(g, frozenset(users[a:b]))
                      for g, (a, b) in enumerate(zip(bounds, bounds[1:]))
                      if b > a]
            if case % 4 == 1:  # a member without a utility scores 0
                groups.append(UserGroup(len(groups), frozenset({99, users[0]})))
        got = allocation._joint_scores(utils, users, groups).tolist()
        expect = [fleet_utility(dict(zip(users, combo)), users, groups)
                  for combo in itertools.product(*utils)]
        assert got == expect
    with pytest.raises(InvalidGroup):
        allocation._joint_scores([[0.5]], [0], [])
    with pytest.raises(ValueError):
        allocation._joint_scores([], [])


def test_joint_enumeration_keeps_the_first_of_tied_feasible_maxima():
    grid, directory, user = _world()
    # two public services with one compute profile cost the same, so
    # plans that swap one for the other tie
    directory.insert(Service(103, "f", host_cloud=9, compute_ref="public"))
    other = MobileUser(1, trajectory_from_pairs([(1, 60.0)]))
    ltw = LTW((LTWEntry(1, 60.0, leaf("f", 2048.0)),))
    instances = {u.id: UserInstance(u, ltw, directory, ProfileSet.defaults(),
                                    grid)
                 for u in (user, other)}
    # one slot on cloud 1 and none on cloud 2
    ledger = CapacityLedger({1: 1, 2: 0})
    budget = ConstraintVector(price=1e9)
    uids = sorted(instances)
    spaces = [_admitted(_plan_rows(instances[u]), budget) for u in uids]
    best, best_val, ties = None, -math.inf, 0
    for combo in itertools.product(*spaces):
        usage = {}
        for r in combo:
            for cid in r[3]:
                usage[cid] = usage.get(cid, 0) + 1
        if _overfills(ledger, usage):
            continue
        val = fleet_utility({u: r[2] for u, r in zip(uids, combo)}, uids)
        ties += val == best_val
        if val > best_val:
            best, best_val, ties = combo, val, 0
    assert ties >= 1  # a later feasible combination ties the first best
    res = brute_force_optimal(instances, budget, ledger)
    assert res.feasible and res.utility == best_val
    assert [res.plans[u] for u in uids] == [r[0] for r in best]


def test_bounded_is_decided_once_per_frozen_vector():
    rng = np.random.default_rng(2)
    values = (math.inf, 0.0, 1.5, 1e300)
    for _ in range(50):
        kw = {d: values[int(rng.integers(4))] for d in ("price", "power",
                                                        "delay")}
        cv = ConstraintVector(**kw)
        expect = any(math.isfinite(v) for v in kw.values())
        assert cv.bounded() is expect
        assert replace(cv, price=math.inf).bounded() is \
            (math.isfinite(kw["power"]) or math.isfinite(kw["delay"]))
        assert cv == ConstraintVector(**kw) and hash(cv) == hash(
            ConstraintVector(**kw))
    assert not UNLIMITED.bounded()


def _old_normalize_dim(value, lo, hi, what):
    """utility_of's per-dimension rule as it was computed per call."""
    rng = hi - lo
    if rng == 0:
        return 1.0
    slack = 1e-9 * max(1.0, abs(lo), abs(hi))
    if value < lo - slack or value > hi + slack:
        raise ExtremaMismatch(f"{what}={value} outside [{lo}, {hi}]")
    return min(1.0, max(0.0, (hi - value) / rng))


def _old_utility_of(inst, raw):
    lo, hi = inst.extrema.lo, inst.extrema.hi
    return min(_old_normalize_dim(raw.get(d), lo.get(d), hi.get(d), d)
               for d in ("price", "power", "delay"))


def test_utility_of_equals_the_per_call_normalization():
    rng = np.random.default_rng(6)
    dep, pop, instances = _fleet(users=4, seed=3)
    # one candidate per occurrence: every span is 0
    single = _instance("g")
    single.directory.remove(201)
    single = UserInstance(single.user, single.ltw, single.directory,
                          single.profiles, single.grid)
    checked = raised = 0
    for inst in [*instances.values(), single]:
        lo, hi = inst.extrema.lo.as_tuple(), inst.extrema.hi.as_tuple()
        for _ in range(300):
            t = rng.uniform(-0.2, 1.2, 3)
            # values near the edges probe the slack
            if rng.random() < 0.3:
                t = np.round(t)
                t += rng.choice([-1, 1], 3) * rng.choice([0.0, 1e-12, 1e-6], 3)
            raw = QoSTriple(*(max(0.0, a + (b - a) * x)
                              for a, b, x in zip(lo, hi, t.tolist())))
            try:
                expect = _old_utility_of(inst, raw)
            except ExtremaMismatch as exc:
                with pytest.raises(ExtremaMismatch) as got:
                    inst.utility_of(raw)
                assert str(got.value) == str(exc)
                raised += 1
                continue
            assert inst.utility_of(raw) == expect
            checked += 1
    assert checked > 500 and raised > 100
    assert single.utility_of(QoSTriple(1e9, 1e9, 1e9)) == 1.0


# --- pick lists against the dict-keyed search they replaced -----------------------------

def _keyed(inst, picks):
    """A pick list as a plan keyed by (entry, occurrence index)."""
    return {(e, occ.index): sid
            for (e, occ, _), sid in zip(inst.iter_occurrences(), picks)}


def _dict_evaluate(inst, plan):
    """UserInstance.evaluate as it read a plan keyed by (entry, occurrence
    index), before plans became pick lists."""
    hosts = inst.hosts
    price = power = delay = 0.0
    for e, tables in enumerate(inst.entries):
        leaves = []
        for j, (_, _, prev, hop) in enumerate(tables.steps):
            rows = _base(inst, e, j)
            sid = plan.get((e, j))
            if sid is None:
                raise IncompletePlan(f"no assignment for occurrence {(e, j)}")
            q = rows[sid]
            if prev is not None:
                node = hosts[sid]
                prev_node = hosts[plan[(e, prev)]]
                if (node is not None and prev_node is not None
                        and node != prev_node):
                    leaves.append((q[0], q[1], q[2] + hop))
                    continue
            leaves.append(q)
        p, w, d = tables.fold(leaves)
        price += p
        power += w
        delay += d
    return QoSTriple(price, power, delay)


def _random_composite_ltw(rng, entries=None):
    """An LTW over the random cost world's functions whose entries nest
    Seq, And, Xor and Loop nodes; entries of them (None: one to three)."""
    def kb():
        return float(rng.uniform(1.0, 5000.0))

    def fn():
        return "abc"[int(rng.integers(3))]

    def tree(depth=0):
        if depth == 3 or (depth and rng.random() < 0.35):
            return leaf(fn(), kb())
        kids = [tree(depth + 1) for _ in range(int(rng.integers(2, 4)))]
        kind = int(rng.integers(4))
        if kind == 3:
            return Loop(seq(*kids), count=int(rng.integers(1, 4)))
        return (seq, par, xor)[kind](*kids)

    if entries is None:
        entries = int(rng.integers(1, 4))
    return LTW(tuple(LTWEntry(int(rng.choice([0, 1, 8, 15, 14, 3])), 30.0,
                              tree())
                     for _ in range(entries)))


def _paid_hops(inst, plan):
    """How many occurrences of the plan pay the hop from their Seq
    predecessor: both run on clouds, and on different ones."""
    hosts, paid = inst.hosts, 0
    for e, tables in enumerate(inst.entries):
        for j, (_, _, prev, _) in enumerate(tables.steps):
            if prev is not None:
                node = hosts[plan[(e, j)]]
                before = hosts[plan[(e, prev)]]
                paid += None not in (node, before) and node != before
    return paid


def _hop_cases(inst, plan):
    """The hop case of each occurrence of the plan with a Seq predecessor
    and a hop to pay if both run on clouds: "device here" or "device
    before" when a side runs on the device, else "same cloud" or "two
    clouds"."""
    hosts = inst.hosts
    for e, tables in enumerate(inst.entries):
        for j, (_, _, prev, _) in enumerate(tables.steps):
            if prev is not None:
                node, before = hosts[plan[(e, j)]], hosts[plan[(e, prev)]]
                if node is None:
                    yield "device here"
                elif before is None:
                    yield "device before"
                else:
                    yield "same cloud" if node == before else "two clouds"


def test_positional_evaluate_equals_the_dict_keyed_evaluate():
    rng = np.random.default_rng(31)
    paid = 0
    kinds = set()
    for _ in range(15):
        profiles = _random_profiles(rng)
        grid, directory, users = _random_cost_world(rng, profiles)
        for user in users:
            ltw = _random_composite_ltw(rng)
            kinds |= {type(e.workflow) for e in ltw.entries}
            inst = UserInstance(user, ltw, directory, profiles, grid)
            for _ in range(10):
                plan = {(e, occ.index): cands[int(rng.integers(len(cands)))]
                        for e, occ, cands in inst.iter_occurrences()}
                picks = tuple(plan[(e, occ.index)]
                              for e, occ, _ in inst.iter_occurrences())
                assert _keyed(inst, picks) == plan
                assert inst.evaluate(picks) == _dict_evaluate(inst, plan)
                assert inst.evaluate(list(picks)) == inst.evaluate(picks)
                paid += _paid_hops(inst, plan)
    assert paid > 50
    assert kinds >= {Seq, And, Xor, Loop}


def _dict_violated(constraints, raw):
    return [d for d in ("price", "power", "delay")
            if raw.get(d) > constraints.get(d)]


def _dict_local_clouds(inst, plan):
    return {inst.hosts[s] for s in plan.values()
            if inst.hosts[s] is not None
            and inst.clouds[inst.hosts[s]].tier == LOCAL}


def _dict_table(instance, center, constraints, params, memo, i, blocked):
    """The memo's search table of instance at radius index i for blocked."""
    key = (instance.user.id, i, blocked)
    if key not in memo.radii:
        memo.radii[key] = allocation._radius(
            instance, center, params, i, blocked, constraints, memo)
    return memo.radii[key]


def _dict_find_service(instance, center, constraints, params, draws, memo,
                       blocked, paths):
    """find_service as it drew plans keyed by (entry, occurrence index),
    each pick recomputed from the candidates' weights with numpy, from
    one member's slot of draws at every radius; counts the radius index of
    each plan and whether it was repaired into paths."""
    for i in range(params.max_expansions):
        table = _dict_table(instance, center, constraints, params, memo, i,
                            blocked)
        if table is None:
            continue
        plan = {}
        for (e, j, _, order, _), draw in zip(table, draws):
            snorm = _snorm(instance, e, j)
            plan[(e, j)] = order[_searchsorted_index(
                [snorm[s] for s in order], draw)]
        raw = _dict_evaluate(instance, plan)
        paths["widen"] += i > 0
        if not _dict_violated(constraints, raw):
            return plan, raw
        for dim in _dict_violated(constraints, raw):
            k = ("price", "power", "delay").index(dim)
            fixed = {}
            for e, j, ids, *_ in table:
                base = _base(instance, e, j)
                fixed[(e, j)] = min(
                    ids, key=lambda s: (base[s][k], s))
            fixed_raw = _dict_evaluate(instance, fixed)
            if not _dict_violated(constraints, fixed_raw):
                paths["repair"] += 1
                return fixed, fixed_raw
    paths["infeasible"] += 1
    raise NoFeasibleCandidates("no feasible plan")


def _dict_music(target, constraints, params, rng, ledger, paths):
    """music() as it scored proposals keyed by (entry, occurrence index):
    nothing drawn when a member has no table under the ledger's full
    clouds, else one block of draws, each member's slot per proposal."""
    single = isinstance(target, UserInstance)
    members = [target] if single else target.members
    center = target.center_point()
    memo = SearchMemo()
    budgets = [constraints_for(constraints, m.user.id) for m in members]
    full = clouds_without_room(ledger)
    if any(all(_dict_table(m, center, budget, params, memo, i, full) is None
               for i in range(params.max_expansions))
           for m, budget in zip(members, budgets)):
        paths["infeasible"] += 1
        return None, -math.inf
    sizes = [sum(1 for _ in m.iter_occurrences()) for m in members]
    slots = iter(rng.random((params.max_iter + 1) * sum(sizes)).tolist())
    best, best_val = None, -math.inf
    for _ in range(params.max_iter + 1):
        usage, plans, raws = {}, {}, []
        draws = [[next(slots) for _ in range(n)] for n in sizes]
        try:
            for m, budget, mine in zip(members, budgets, draws):
                blocked = room_rule(ledger)(usage)
                paths["filled"] += blocked != full
                plan, raw = _dict_find_service(
                    m, center, budget, params, mine, memo, blocked, paths)
                plans[m.user.id] = plan
                raws.append(raw)
                for cid in _dict_local_clouds(m, plan):
                    usage[cid] = usage.get(cid, 0) + 1
        except NoFeasibleCandidates:
            continue
        val = fleet_utility({m.user.id: m.utility_of(raw)
                             for m, raw in zip(members, raws)},
                            [m.user.id for m in members])
        if val > best_val:
            best, best_val = plans, val
    return best, best_val


def test_music_on_pick_lists_equals_the_execution_plan_search():
    """Plans, utility and the generator state after each call equal the
    dict-keyed reference, for users and groups, shared and per-user
    budgets, and ledgers that leave the locals no room or one slot."""
    dep, pop, instances = _fleet(users=8, groups=2, seed=8)
    locals_ = [cid for cid, c in dep.clouds.items() if c.tier == LOCAL]
    params = AnnealingParams(max_iter=6, radius_start_m=150.0,
                             radius_step_m=150.0, max_expansions=5)
    singles = [instances[u] for u in sorted(instances)]
    groups = [GroupInstance(g, [instances[u] for u in sorted(g.members)])
              for g in pop.groups]
    rng = np.random.default_rng(41)
    # filled: a member's search saw clouds that earlier members filled
    paths = {"widen": 0, "repair": 0, "infeasible": 0, "filled": 0}
    compared = {"single": 0, "group": 0}
    for case in range(48):
        target = groups[case % 2] if case % 3 == 0 else singles[case % 8]
        members = [target] if isinstance(target, UserInstance) \
            else target.members
        dim = ("price", "power", "delay")[case % 3]
        lo = min(m.extrema.lo.get(dim) for m in members)
        hi = max(m.extrema.hi.get(dim) for m in members)

        def budget():
            return ConstraintVector(**{dim: lo + float(rng.uniform(
                0.0, 0.6)) * (hi - lo)})

        kind = case // 4 % 3
        constraints = (UNLIMITED, budget(),
                       {m.user.id: budget() for m in members})[kind]
        room = (None, 0, 1)[case % 4 % 3]

        def ledger():
            return CapacityLedger({} if room is None else
                                  {cid: room for cid in locals_})

        seed = int(rng.integers(2**32))
        got_rng, ref_rng = (np.random.default_rng(seed),
                            np.random.default_rng(seed))
        res = music(target, constraints, params, got_rng, ledger=ledger())
        plans, val = _dict_music(target, constraints, params, ref_rng,
                                 ledger(), paths)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert res.feasible == (plans is not None)
        if plans is None:
            assert res.plans == {} and res.utility == 0.0
            continue
        assert {u: _keyed(instances[u], p)
                for u, p in res.plans.items()} == plans
        assert res.utility == val
        compared["single" if target in singles else "group"] += 1
    assert min(paths.values()) > 3 and min(compared.values()) > 5, \
        (paths, compared)


def test_music_returns_one_pick_tuple_per_member():
    dep, pop, instances = _fleet(users=6, groups=2, seed=6)
    targets = [instances[u] for u in sorted(instances)] + [
        GroupInstance(g, [instances[u] for u in sorted(g.members)])
        for g in pop.groups]
    for target in targets:
        members = [target] if isinstance(target, UserInstance) \
            else target.members
        for budget in (UNLIMITED, ConstraintVector(delay=15000.0)):
            res = music(target, budget, AnnealingParams(max_iter=9),
                        np.random.default_rng(2))
            assert res.feasible
            assert sorted(res.plans) == sorted(m.user.id for m in members)
            for m in members:
                plan = res.plans[m.user.id]
                assert type(plan) is tuple and len(plan) == m.size
                assert all(sid in cands for sid, (_, _, cands)
                           in zip(plan, m.iter_occurrences()))


# --- plans scored in array passes, against the scalar evaluator -------------------------

def _columns(arrays_raw, r):
    return QoSTriple(*(float(c[r]) for c in arrays_raw))


def _random_budget(rng, raw):
    """A budget per dimension over raw columns: none (inf), one plan's
    value (a plan on the boundary), or a value within the column's range."""
    out = {}
    for d, column in zip(DIMS, raw):
        kind = int(rng.integers(3))
        if kind == 1:
            out[d] = float(column[int(rng.integers(len(column)))])
        elif kind == 2:
            out[d] = float(rng.uniform(column.min(), column.max()))
    return ConstraintVector(**out)


def test_plan_arrays_score_as_evaluate_and_utility_of():
    """Random LTWs nesting Seq, And, Xor and Loop nodes, over candidate
    lists of any length (one candidate included), and instances whose
    envelopes have span 0: every raw value and utility is == the scalar
    one. Under a random budget over the columns, with plans on its
    boundary and infinite dimensions, each plan's breaches give the
    scalar violated and admits of its raw QoS."""
    rng = np.random.default_rng(52)
    budget_rng = np.random.default_rng(53)
    budgets = Counter()
    paid = plans = 0
    hops = Counter()
    kinds = set()
    instances = []
    for _ in range(12):
        profiles = _random_profiles(rng)
        grid, directory, users = _random_cost_world(rng, profiles)
        for user in users:
            ltw = _random_composite_ltw(rng)
            kinds |= {type(e.workflow) for e in ltw.entries}
            instances.append(UserInstance(user, ltw, directory, profiles,
                                          grid))
    single = _instance("g")
    single.directory.remove(201)
    single = UserInstance(single.user, single.ltw, single.directory,
                          single.profiles, single.grid)
    assert single.extrema.lo == single.extrema.hi
    spans = 0
    for inst in [*instances, single]:
        cands = [c for _, _, c in inst.iter_occurrences()]
        for _ in range(3):
            # a random non-empty sublist per occurrence, in a random order
            lists = [[c[i] for i in rng.permutation(len(c))[
                :int(rng.integers(1, len(c) + 1))]] for c in cands]
            arrays = PlanArrays([inst], lists)
            m = int(rng.integers(1, 40))
            positions = np.array([rng.integers(len(ids), size=m)
                                  for ids in lists])
            # one member: row 0 of each array
            rows = arrays.raw(positions)
            raw = [c[0] for c in rows]
            utils = arrays.utility(rows)[0]
            budget = _random_budget(budget_rng, raw)
            over = budget.breaches(raw)
            budgets["unbounded"] += not budget.bounded()
            budgets["partly infinite"] += budget.bounded() and any(
                budget.get(d) == math.inf for d in DIMS)
            for r in range(m):
                picks = [ids[i] for ids, i in zip(lists, positions[:, r])]
                expect = inst.evaluate(picks)
                assert _columns(raw, r) == expect
                assert utils[r] == inst.utility_of(expect)
                broke = [d for d, mask in over if mask[r]]
                assert broke == budget.violated(expect)
                assert budget.admits(expect) == (not broke)
                budgets["broke"] += bool(broke)
                budgets["boundary"] += any(expect.get(d) == budget.get(d)
                                           for d in DIMS)
                keyed = _keyed(inst, picks)
                paid += _paid_hops(inst, keyed)
                hops.update(_hop_cases(inst, keyed))
                plans += 1
        spans += any(b[2] == 0 for b in inst._bounds)
    assert kinds >= {Seq, And, Xor, Loop}
    assert paid > 50 and plans > 1000 and spans
    assert min(budgets.values()) > 2, budgets
    # every case of evaluate's hop test: a device on either side, one cloud
    # on both sides, and two different clouds
    assert set(hops) == {"device here", "device before", "same cloud",
                         "two clouds"}, hops


def test_plan_arrays_raise_the_first_stray_plans_extrema_mismatch():
    """With an envelope narrowed under some plans' values, the array
    utility raises utility_of's ExtremaMismatch for the first stray plan
    among the rows asked for, and none when no asked row strays."""
    dep, pop, instances = _fleet(users=4, seed=3)
    rng = np.random.default_rng(8)
    raised = 0
    for inst in instances.values():
        lists = [c for _, _, c in inst.iter_occurrences()]
        arrays = PlanArrays([inst], lists)
        positions = np.array([rng.integers(len(ids), size=60)
                              for ids in lists])
        # one member: row 0 of each array
        raw = [c[0] for c in arrays.raw(positions)]
        dim = int(rng.integers(3))
        lo, hi = inst.extrema.lo.as_tuple(), inst.extrema.hi.as_tuple()
        cut = float(np.median(raw[dim]))
        bounds = list(inst._bounds)
        bounds[dim] = dim_bounds(lo[dim], cut)
        inst._bounds = tuple(bounds)
        for rows in (None, rng.random(60) < 0.5):
            stray = [r for r in range(60) if (rows is None or rows[r])
                     and raw[dim][r] > bounds[dim][4]]
            asked = None if rows is None else rows[None]
            if not stray:
                arrays.utility([c[None] for c in raw], asked)
                continue
            with pytest.raises(ExtremaMismatch) as expect:
                inst.utility_of(_columns(raw, stray[0]))
            with pytest.raises(ExtremaMismatch) as got:
                arrays.utility([c[None] for c in raw], asked)
            assert str(got.value) == str(expect.value)
            raised += 1
    assert raised >= 4


def test_plan_arrays_over_members_score_each_member_as_its_own():
    """PlanArrays over several members, whose LTWs have one to three
    entries of mixed shapes (so some members have fewer entries than
    others, and some entry depths mix shapes), give each member the raw
    rows, utility rows and per-cloud usage masks of that member's own
    PlanArrays, == evaluate and utility_of, a member with a span-0
    dimension included. With bounds narrowed under some plans' values, the
    first stray plan among the rows asked for raises, plan by plan and then
    member by member."""
    rng = np.random.default_rng(61)
    seen = {"unequal counts": 0, "mixed depth": 0, "one-shape depth": 0,
            "span 0": 0, "raised": 0}
    for _ in range(40):
        profiles = _random_profiles(rng)
        grid, directory, users = _random_cost_world(rng, profiles)
        members = [UserInstance(u, _random_composite_ltw(rng), directory,
                                profiles, grid)
                   for u in users[:int(rng.integers(1, 5))]]
        if rng.random() < 0.3:
            m = members[int(rng.integers(len(members)))]
            lo = m.extrema.lo.as_tuple()
            d = int(rng.integers(3))
            m._bounds = tuple(dim_bounds(lo[k], lo[k]) if k == d else b
                              for k, b in enumerate(m._bounds))
            seen["span 0"] += 1
        own_lists = [[[c[i] for i in rng.permutation(len(c))[
            :int(rng.integers(1, len(c) + 1))]]
            for _, _, c in m.iter_occurrences()] for m in members]
        lists = [ids for mine in own_lists for ids in mine]
        arrays = PlanArrays(members, lists)
        counts = [len(m.entries) for m in members]
        seen["unequal counts"] += len(set(counts)) > 1
        for d in range(max(counts)):
            shapes = {m.entries[d].shape for m in members
                      if d < len(m.entries)}
            seen["mixed depth" if len(shapes) > 1 else "one-shape depth"] += 1
        plans = int(rng.integers(1, 30))
        positions = np.array([rng.integers(len(ids), size=plans)
                              for ids in lists])
        raw = arrays.raw(positions)
        utils = arrays.utility(raw)
        used = arrays.clouds_used(positions, [1, 2, 7])
        k = 0
        for m, (inst, mine) in enumerate(zip(members, own_lists)):
            own = PlanArrays([inst], mine)
            at = positions[k:k + len(mine)]
            own_raw = own.raw(at)
            assert [c[m].tolist() for c in raw] == \
                [c[0].tolist() for c in own_raw]
            assert utils[m].tolist() == own.utility(own_raw)[0].tolist()
            assert used[:, m].tolist() == \
                own.clouds_used(at, [1, 2, 7])[:, 0].tolist()
            for r in range(plans):
                picks = [ids[i] for ids, i in zip(mine, at[:, r])]
                assert _columns([c[m] for c in raw], r) == \
                    inst.evaluate(picks)
                assert utils[m, r] == inst.utility(picks)
            k += len(mine)
        # narrow one dimension's bounds under the median value, for every
        # member whose span there is not 0
        d = int(rng.integers(3))
        cut = float(np.median(raw[d]))
        for inst in members:
            lo, hi, span, _, _ = inst._bounds[d]
            if span:
                inst._bounds = tuple(dim_bounds(lo, max(lo, cut))
                                     if k == d else b
                                     for k, b in enumerate(inst._bounds))
        rows = rng.random(raw[d].shape) < 0.5
        stray = [(r, m) for r in range(plans)
                 for m, inst in enumerate(members)
                 if rows[m, r] and inst._bounds[d][2]
                 and not (inst._bounds[d][3] <= raw[d][m, r]
                          <= inst._bounds[d][4])]
        if not stray:
            arrays.utility(raw, rows)
            continue
        r, m = stray[0]
        with pytest.raises(ExtremaMismatch) as expect:
            members[m].utility_of(_columns([c[m] for c in raw], r))
        with pytest.raises(ExtremaMismatch) as got:
            arrays.utility(raw, rows)
        assert str(got.value) == str(expect.value)
        seen["raised"] += 1
    assert min(seen.values()) > 5, seen


def _entry_leaves(inst, picks):
    """Per entry of a pick list, the per-leaf (price, power, delay) that
    evaluate folds: each occurrence's store row, with the hop from a Seq
    predecessor on a different cloud added to its delay."""
    store, hosts, base = inst.store, inst.hosts, 0
    for tables in inst.entries:
        leaves = []
        for j, (start, where, prev, hop) in enumerate(tables.steps):
            sid = picks[base + j]
            i = start + where[sid]
            d = store.delay[i]
            if prev is not None:
                node, before = hosts[sid], hosts[picks[base + prev]]
                if None not in (node, before) and node != before:
                    d += hop
            leaves.append((store.price[i], store.power[i], d))
        yield leaves
        base += len(leaves)


def test_plan_arrays_entry_block_holds_each_entrys_fold():
    """The entry block of members whose random LTWs (Seq, And, Xor and
    Loop, with paid hops) have 1 to 16 entries holds, in row first_m + d,
    == the fold of member m's d-th entry over the leaves evaluate reads,
    and 0.0 in its last row; raw sums each member's rows from 0.0 in
    order, which a pairwise or segmented sum would not match, in batches
    of one plan and of many."""
    rng = np.random.default_rng(67)
    seen = {"one plan": 0, "many plans": 0, "unequal counts": 0,
            "paid hops": 0, "over 8 entries": 0, "reduceat differs": 0,
            "axis sum differs": 0}
    for _ in range(30):
        profiles = _random_profiles(rng)
        grid, directory, users = _random_cost_world(rng, profiles)
        members = [UserInstance(u, _random_composite_ltw(
            rng, int(rng.integers(1, 17))), directory, profiles, grid)
                   for u in users[:int(rng.integers(1, 5))]]
        lists = [c for m in members for _, _, c in m.iter_occurrences()]
        arrays = PlanArrays(members, lists)
        plans = 1 if rng.random() < 0.4 else int(rng.integers(2, 40))
        positions = np.array([rng.integers(len(ids), size=plans)
                              for ids in lists])
        block = arrays.entry_raw(positions)
        entries = sum(len(m.entries) for m in members)
        assert block.shape == (3, entries + 1, plans)
        assert not block[:, -1].any()
        raw = arrays.raw(positions)
        row = k = 0
        for m, inst in enumerate(members):
            for r in range(plans):
                mine = slice(k, k + inst.size)
                picks = [ids[i] for ids, i in zip(lists[mine],
                                                  positions[mine, r])]
                total = (0.0, 0.0, 0.0)
                for d, (tables, leaves) in enumerate(
                        zip(inst.entries, _entry_leaves(inst, picks))):
                    entry = tables.fold(leaves)
                    assert block[:, row + d, r].tolist() == list(entry)
                    total = tuple(t + x for t, x in zip(total, entry))
                assert _columns([c[m] for c in raw], r) == QoSTriple(*total)
                assert QoSTriple(*total) == inst.evaluate(picks)
                seen["paid hops"] += _paid_hops(inst, _keyed(inst, picks)) > 0
            row += len(inst.entries)
            k += inst.size
        seen["one plan" if plans == 1 else "many plans"] += 1
        seen["unequal counts"] += len({len(m.entries) for m in members}) > 1
        seen["over 8 entries"] += max(len(m.entries) for m in members) > 8
        # the sums a shortcut would give, which these batches tell apart
        counts = [len(m.entries) for m in members]
        firsts = list(itertools.accumulate(counts, initial=0))[:-1]
        seen["reduceat differs"] += not np.array_equal(
            np.add.reduceat(block[:, :-1], firsts, axis=1), raw)
        seen["axis sum differs"] += not np.array_equal(
            np.stack([block[:, f:f + n].sum(axis=1)
                      for f, n in zip(firsts, counts)], axis=1), raw)
    assert min(seen.values()) > 5, seen


def _one_proposal_at_a_time(inst, constraints, params, rng, ledger=NO_LEDGER,
                            center=None):
    """Single-target music over the one-proposal-at-a-time reference
    (_scalar_find_service) around center (None: the user's own): (plan,
    utility) of the first best, or (None, -inf)."""
    center = inst.center_point() if center is None else center
    try:
        (picks,), (raw,) = _scalar_find_service([inst], center, constraints,
                                                params, rng, ledger)
    except NoFeasibleCandidates:
        return None, -math.inf
    return tuple(picks), inst.utility_of(raw)


def _room_ledger(clouds, room):
    """A ledger that gives each of the clouds room, or the empty ledger
    when room is None."""
    return CapacityLedger({} if room is None else dict.fromkeys(clouds, room))


def _music_case(rng, case, inst):
    """Case number case of a music search by inst: a budget on one
    dimension (none every fifth case) that can lie below what any plan
    reaches, search params whose radii can miss every local cloud, and the
    room of each local cloud (None: the empty ledger)."""
    dim = ("delay", "delay", "price", "power")[case % 4]
    lo, hi = inst.extrema.lo.get(dim), inst.extrema.hi.get(dim)
    budget = (UNLIMITED if case % 5 == 0 else ConstraintVector(
        **{dim: lo + float(rng.uniform(-0.05, 0.5)) * (hi - lo)}))
    params = AnnealingParams(
        max_iter=(0, 1, 7, 20)[case % 7 % 4], radius_start_m=0.0,
        radius_step_m=float(rng.choice([100.0, 250.0])),
        max_expansions=int(rng.integers(1, 5)))
    return budget, params, (None, 0, 1)[case % 3]


def test_batched_music_equals_one_proposal_at_a_time(monkeypatch):
    """Plans, utility and the generator state after the call equal
    max_iter + 1 one-proposal calls in a row: unbudgeted and budgeted,
    with and without room, at max_iter 0, on targets whose proposals
    widen (those are settled one at a time, on their own doubles), on
    infeasible targets (nothing is drawn), and with all-zero wheels."""
    # a costly inter-cloud hop: a repair to the least delays can still pay
    # hops that break a delay budget the optimistic minima fit
    dep, pop, instances = _fleet(
        users=6, seed=0, profiles={"intercloud": {"delay_ms_per_100kb": 400.0}})
    locals_ = [cid for cid, c in dep.clouds.items() if c.tier == LOCAL]
    searches = _counted(monkeypatch, allocation, "_search")
    wheel = allocation._roulette_wheel
    rng = np.random.default_rng(13)
    seen = {"widened": 0, "infeasible": 0, "budgeted": 0, "zero": 0,
            "uniform": 0}
    for case in range(150):
        inst = instances[sorted(instances)[case % len(instances)]]
        budget, params, room = _music_case(rng, case, inst)
        # every third case spins some occurrences' wheels as all-zero
        uniform = case % 3 == 1
        monkeypatch.setattr(allocation, "_roulette_wheel",
                            (lambda w: None if len(w) % 2 else wheel(w))
                            if uniform else wheel)
        seed = int(rng.integers(2**32))
        got_rng, ref_rng = (np.random.default_rng(seed),
                            np.random.default_rng(seed))
        before = len(searches)
        res = music(inst, budget, params, got_rng,
                    ledger=_room_ledger(locals_, room))
        plan, val = _one_proposal_at_a_time(inst, budget, params, ref_rng,
                                            _room_ledger(locals_, room))
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert res.feasible == (plan is not None)
        if plan is None:
            assert (res.plans, res.utility) == ({}, 0.0)
            seen["infeasible"] += 1
            seen["zero"] += got_rng.bit_generator.state == \
                np.random.default_rng(seed).bit_generator.state
            continue
        assert res.plans == {inst.user.id: plan}
        assert res.utility == val
        # some proposal widened, and was settled one at a time
        seen["widened"] += len(searches) > before
        seen["budgeted"] += budget.bounded()
        seen["uniform"] += uniform
    assert min(seen.values()) > 2, seen
    # two public services that cost the same tie, and the locals are full:
    # the first proposal keeps its plan
    grid, directory, user = _world()
    directory.insert(Service(103, "f", host_cloud=9, compute_ref="public"))
    tied = UserInstance(user, LTW((LTWEntry(0, 60.0, leaf("f", 2048.0)),)),
                        directory, ProfileSet.defaults(), grid)
    won = set()
    for seed in range(10):
        res = music(tied, UNLIMITED, _params(), np.random.default_rng(seed),
                    ledger=CapacityLedger({1: 0, 2: 0}))
        plan, val = _one_proposal_at_a_time(
            tied, UNLIMITED, _params(), np.random.default_rng(seed),
            CapacityLedger({1: 0, 2: 0}))
        assert (res.plans, res.utility) == ({0: plan}, val)
        won.add(plan)
    assert won == {(102,), (103,)}


def test_a_one_member_group_is_planned_like_its_user(monkeypatch):
    """music on a one-member group makes the find_service call a user
    makes. Around the group's center (center_of_group_mobility), plans,
    utility and the generator state after the call equal max_iter + 1
    one-member searches in a row: unbudgeted and budgeted, with room 0, 1
    or the empty ledger, and on targets whose proposals widen (the
    batched pass settles them one at a time, on their own doubles)."""
    dep, pop, instances = _fleet(
        users=6, seed=0, profiles={"intercloud": {"delay_ms_per_100kb": 400.0}})
    locals_ = [cid for cid, c in dep.clouds.items() if c.tier == LOCAL]
    searches = _counted(monkeypatch, allocation, "_search")
    rng = np.random.default_rng(14)
    seen = {"batched": 0, "widened": 0, "infeasible": 0, "budgeted": 0}
    for case in range(120):
        uid = sorted(instances)[case % len(instances)]
        inst = instances[uid]
        target = GroupInstance(UserGroup(uid, frozenset({uid})), [inst])
        budget, params, room = _music_case(rng, case, inst)
        seed = int(rng.integers(2**32))
        got_rng, ref_rng = (np.random.default_rng(seed),
                            np.random.default_rng(seed))
        before = len(searches)
        res = music(target, budget, params, got_rng,
                    ledger=_room_ledger(locals_, room))
        calls = len(searches) - before
        plan, val = _one_proposal_at_a_time(
            inst, budget, params, ref_rng, _room_ledger(locals_, room),
            center=target.center_point())
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert res.feasible == (plan is not None)
        if plan is None:
            assert (res.plans, res.utility) == ({}, 0.0)
            seen["infeasible"] += 1
            continue
        assert res.plans == {uid: plan}
        assert res.utility == val
        seen["batched"] += calls == 0 and params.max_iter > 0
        seen["widened"] += calls > 0
        seen["budgeted"] += budget.bounded()
    assert min(seen.values()) > 2, seen


# --- the fleet driver, against the three loops it replaced ----------------------
# _admit_plan, _sequential and allocate_music's loop over targets as they
# were before one driver replaced them, kept verbatim as the oracle

def _parent_admit_plan(instance, plan, ledger):
    if ledger is None:
        return
    for cid in sorted(instance.local_clouds(plan)):
        if not ledger.try_admit(cid):
            raise AdmissionRefused(f"cloud {cid} filled up mid-admission")


def _parent_sequential(instances, plan_fn, rng, ledger):
    """Allocate per user in seeded random order, admitting capacity as we go.

    plan_fn(instance, blocked) plans one user, blocked being the clouds
    without room at that user's turn."""
    uids = sorted(instances)
    order = [uids[i] for i in rng.permutation(len(uids))]
    plans = {}
    notes = []
    for uid in order:
        inst = instances[uid]
        try:
            plan = plan_fn(inst, clouds_without_room(ledger))
        except NoFeasibleCandidates as exc:
            notes.append(str(exc))
            continue
        plans[uid] = plan
        _parent_admit_plan(inst, plan, ledger)
    return AllocationResult(plans, None, len(plans) == len(instances),
                            note="; ".join(notes))


def _parent_allocate_music(instances, constraints, params, rng, ledger=None,
                           groups=None):
    """allocate_music with its own loop over targets."""
    if groups is None:
        targets = [instances[uid] for uid in sorted(instances)]
    else:
        targets = [GroupInstance(grp, [instances[m] for m in sorted(grp.members)])
                   for grp in sorted(groups, key=lambda x: x.id)]
    order = rng.permutation(len(targets))
    plans = {}
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
            _parent_admit_plan(m, plan, ledger)
    return AllocationResult(plans, None, all_feasible, note="; ".join(notes))


def _drive(run, ledger, seed):
    """Run one driver on a fresh generator: (its result or the message of
    the AdmissionRefused it raised, every ledger count, generator state)."""
    rng = np.random.default_rng(seed)
    try:
        res = run(rng, ledger)
        out = (list(res.plans.items()), res.utility, res.feasible, res.note)
    except AdmissionRefused as exc:
        out = str(exc)
    counts = None if ledger is None else {c: ledger.count(c)
                                          for c in ledger.capacities()}
    return out, counts, rng.bit_generator.state


def test_one_fleet_driver_equals_the_loops_it_replaced():
    """allocate_greedy, allocate_rsa and allocate_music (with and without
    groups) against the parent's _sequential, _admit_plan and
    allocate_music loop: plans in order, feasible, note, every ledger count
    and the generator state are equal. Random fleets with and without a
    public cloud, ledgers with room 0, 1 or empty, budgets, groups that
    cover every user or only some, and stale plans that a full cloud
    refuses part-way through a plan's admissions."""
    rng = np.random.default_rng(23)
    seen = {"infeasible": 0, "partial": 0, "admitted": 0, "budgeted": 0}
    for case in range(30):
        users = int(rng.integers(2, 7))
        dep, pop, instances = _fleet(
            users=users, seed=int(rng.integers(100)),
            public_instances=int(case % 3 != 0))
        locals_ = [cid for cid, c in dep.clouds.items() if c.tier == LOCAL]
        uids = sorted(instances)
        cut = int(rng.integers(1, users + 1))
        groups = [UserGroup(g, frozenset(int(u) for u in chunk))
                  for g, chunk in enumerate(np.array_split(
                      rng.permutation(uids)[:cut], int(rng.integers(1, cut + 1))))]
        inst = instances[uids[0]]
        budget = (UNLIMITED if case % 2 else ConstraintVector(
            delay=float(np.mean([inst.extrema.lo.delay,
                                 inst.extrema.hi.delay]))))
        params = AnnealingParams(max_iter=int(rng.integers(0, 6)))
        pairs = [
            (lambda r, lg: allocate_greedy(instances, r, lg),
             lambda r, lg: _parent_sequential(instances, greedy_plan, r, lg)),
            (lambda r, lg: allocate_rsa(instances, budget, r, lg),
             lambda r, lg: _parent_sequential(
                 instances, lambda i, blocked: rsa_plan(
                     i, constraints_for(budget, i.user.id), r,
                     blocked=blocked), r, lg)),
            (lambda r, lg: allocate_music(instances, budget, params, r, lg),
             lambda r, lg: _parent_allocate_music(instances, budget, params,
                                                  r, lg)),
            (lambda r, lg: allocate_music(instances, budget, params, r, lg,
                                          groups),
             lambda r, lg: _parent_allocate_music(instances, budget, params,
                                                  r, lg, groups))]
        partial = sum(len(g.members) for g in groups) < users
        for room in (None, 0, 1):
            for k, (got_run, ref_run) in enumerate(pairs):
                seed = int(rng.integers(2**32))
                got, ref = (_drive(run, _room_ledger(locals_, room), seed)
                            for run in (got_run, ref_run))
                assert got == ref
                res, counts, _ = got
                seen["infeasible"] += not res[2]
                seen["admitted"] += bool(counts) and any(counts.values())
                seen["budgeted"] += budget.bounded()
                # a feasible grouped run that leaves users without a plan
                seen["partial"] += k == 3 and partial and res[2]
    assert min(seen.values()) > 2, seen
    # local clouds 1 and 8 (a set of them iterates 8 first) behind a full
    # cloud 8: a plan made without a look at the ledger is refused
    # part-way, after cloud 1 took it
    grid = LocationMap(9, 1, 100.0)
    clouds = {1: CloudNode(1, LOCAL, location=0, capacity=2),
              8: CloudNode(8, LOCAL, location=8, capacity=1)}
    directory = ServiceDirectory(grid, clouds)
    directory.insert(Service(10, "f", host_cloud=8, compute_ref="local"))
    directory.insert(Service(11, "g", host_cloud=1, compute_ref="local"))
    ltw = LTW((LTWEntry(0, 60.0, seq(leaf("f", 64.0), leaf("g", 64.0))),))
    instances = {u: UserInstance(MobileUser(u, trajectory_from_pairs(
        [(0, 60.0)])), ltw, directory, ProfileSet.defaults(), grid)
        for u in (0, 1)}
    assert list(instances[0].local_clouds((10, 11))) == [8, 1]
    got, ref = (_drive(run, CapacityLedger({1: 2, 8: 1}), 0) for run in (
        lambda r, lg: _sequential(instances, [0, 1], lambda u: {
            u: greedy_plan(instances[u])}, r, lg),
        lambda r, lg: _parent_sequential(
            instances, lambda i, blocked: greedy_plan(i), r, lg)))
    assert got == ref
    assert got[:2] == ("cloud 8 filled up mid-admission", {1: 2, 8: 1})


def _product_options(inst, pools, constraints, reach):
    """brute_force_optimal's per-user walk as it fed itertools.product
    tuples to evaluate one at a time: per set of the binding clouds in
    reach used, (picks, utility, set) of the first best admitted plan,
    ordered by that plan's place in the product."""
    best = {}
    for i, picks in enumerate(itertools.product(*pools)):
        raw = inst.evaluate(picks)
        if not constraints.admits(raw):
            continue
        u = inst.utility_of(raw)
        key = frozenset(reach).intersection(inst.local_clouds(picks))
        if key not in best or u > best[key][2]:
            best[key] = (i, picks, u, key)
    return [row[1:] for row in sorted(best.values())]


def _check_options(instances, constraints, ledger):
    """allocation._options against _product_options for every user, with
    the pools and reach brute_force_optimal gives them; returns how many
    users had more than one option."""
    blocked = clouds_without_room(ledger)
    binding = {cid for cid in ledger.capacities()
               if 0 < ledger.room(cid) < len(instances)}
    several = 0
    for inst in instances.values():
        pools = [ids for _, _, ids in allocation._allowed_candidates(
            inst, blocked)]
        reach = sorted(binding.intersection(
            inst.hosts[sid] for ids in pools for sid in ids))
        expect = _product_options(inst, pools, constraints, reach)
        assert allocation._options(inst, pools, constraints, reach) == expect
        several += len(expect) > 1
    return several


def test_the_optimums_options_equal_the_product_walk_on_criterion_06():
    """Criterion 06's population (100 users, 3 repetitions), unbudgeted
    and with no ledger, as its optimum runs."""
    sc = Scenario(scenario_id="grouped", users=100, local_capacity=8,
                  workflows_per_user=1, duration_s=300.0,
                  template_mix={"file_sync": 1.0},
                  annealing={"radius_start_cells": 3.0}, algorithm="gmusic",
                  repetitions=3, seed=7, groups=4)
    dep = build_deployment(sc)
    for rep in range(sc.repetitions):
        pop = build_population(sc, dep, rep)
        instances = {uid: UserInstance(pop.users[uid], pop.true_ltws[uid],
                                       dep.directory, dep.profiles, dep.grid)
                     for uid in pop.users}
        _check_options(instances, UNLIMITED, CapacityLedger({}))


def test_the_optimums_options_equal_the_product_walk_on_desk(monkeypatch):
    """Desk at local capacity 1 and 2 (clouds bind), unbudgeted and under
    delay budgets, in chunks of at most 20 positions (a few plans), so
    chunk ends fall inside every plan space."""
    monkeypatch.setattr(allocation, "_SCORE_CHUNK", 20)
    desk = load_scenario(DEMO_SCENARIOS / "desk.json")
    several = 0
    for capacity, seed in itertools.product((1, 2), (0, 1)):
        sc = replace(desk, local_capacity=capacity, seed=seed)
        for rep in range(sc.repetitions):
            dep = build_deployment(sc)
            pop = build_population(sc, dep, rep)
            instances = {uid: UserInstance(pop.users[uid],
                                           pop.true_ltws[uid], dep.directory,
                                           dep.profiles, dep.grid)
                         for uid in pop.users}
            for budget in (UNLIMITED, ConstraintVector(delay=12000.0),
                           ConstraintVector(delay=9000.0)):
                several += _check_options(instances, budget,
                                          dep.fresh_ledger())
    assert several > 10
