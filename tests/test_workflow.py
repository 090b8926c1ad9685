"""QoS algebra over workflow trees, normalization, and plan evaluation."""

import itertools
import math

import pytest

import numpy as np

from tieralloc import (And, IncompletePlan, InvalidWorkflow, LTW, LTWEntry,
                       Leaf, Loop, QoSExtrema, QoSTriple, Scenario, Seq,
                       UserInstance, Xor, aggregate_qos, build_deployment,
                       build_population, fold_qos, intercloud_hop_ms, leaf,
                       normalize_qos, normalize_service, occurrences, par,
                       seq, workflow_extrema, xor)
from tieralloc.errors import ExtremaMismatch
from tieralloc.workflow import ZERO_QOS, fold_of, outline

Q = QoSTriple


def _table_cost(table):
    """cost_fn reading (occurrence -> service -> QoSTriple), context-free."""
    def cost(sid, occ_idx, fn, prev_sid):
        return table[occ_idx][sid]
    return cost


# --- aggregation ------------------------------------------------------------------

def test_seq_sums_componentwise():
    wf = seq(leaf("a", 1.0), leaf("b", 1.0), leaf("c", 1.0))
    table = {0: {0: Q(1.0, 10.0, 100.0)},
             1: {0: Q(2.0, 20.0, 200.0)},
             2: {0: Q(4.0, 40.0, 400.0)}}
    got = aggregate_qos(wf, {0: 0, 1: 0, 2: 0}, _table_cost(table))
    assert got == Q(7.0, 70.0, 700.0)


def test_and_sums_price_power_and_takes_max_delay():
    wf = par(leaf("a", 1.0), leaf("b", 1.0))
    table = {0: {0: Q(1.0, 10.0, 300.0)},
             1: {0: Q(2.0, 20.0, 100.0)}}
    got = aggregate_qos(wf, {0: 0, 1: 0}, _table_cost(table))
    assert got == Q(3.0, 30.0, 300.0)


def test_xor_takes_componentwise_max():
    wf = xor(leaf("a", 1.0), leaf("b", 1.0))
    table = {0: {0: Q(1.0, 40.0, 100.0)},
             1: {0: Q(2.0, 20.0, 300.0)}}
    got = aggregate_qos(wf, {0: 0, 1: 0}, _table_cost(table))
    assert got == Q(2.0, 40.0, 300.0)


def test_loop_scales_by_iteration_count():
    wf = Loop(seq(leaf("a", 1.0), leaf("b", 1.0)), count=3)
    table = {0: {0: Q(1.0, 1.0, 1.0)}, 1: {0: Q(0.5, 2.0, 10.0)}}
    got = aggregate_qos(wf, {0: 0, 1: 0}, _table_cost(table))
    assert got == Q(4.5, 9.0, 33.0)


def test_nested_composition_folds_exactly():
    # seq(and(a, b), c): price/power add over all, delay = max(a, b) + c
    wf = seq(par(leaf("a", 1.0), leaf("b", 1.0)), leaf("c", 1.0))
    table = {0: {0: Q(1.0, 5.0, 120.0)},
             1: {0: Q(2.0, 6.0, 80.0)},
             2: {0: Q(4.0, 7.0, 30.0)}}
    got = aggregate_qos(wf, {0: 0, 1: 0, 2: 0}, _table_cost(table))
    assert got == Q(7.0, 18.0, 150.0)


def test_missing_assignment_raises_incomplete_plan():
    wf = seq(leaf("a", 1.0), leaf("b", 1.0))
    with pytest.raises(IncompletePlan):
        aggregate_qos(wf, {0: 0}, lambda s, o, f, p: ZERO_QOS)


def test_composite_arity_and_loop_count_validation():
    with pytest.raises(InvalidWorkflow):
        seq()
    with pytest.raises(InvalidWorkflow):
        par()
    with pytest.raises(InvalidWorkflow):
        xor(leaf("a", 1.0))
    with pytest.raises(InvalidWorkflow):
        Loop(leaf("a", 1.0), count=0)
    with pytest.raises(InvalidWorkflow):
        leaf("a", 0.0)
    with pytest.raises(InvalidWorkflow):
        leaf("", 1.0)


# --- predecessor threading ---------------------------------------------------------

def test_seq_threads_previous_service_through_chain():
    wf = seq(leaf("a", 1.0), leaf("b", 1.0), leaf("c", 1.0))
    seen = []

    def cost(sid, occ_idx, fn, prev_sid):
        seen.append((occ_idx, sid, prev_sid))
        return ZERO_QOS

    aggregate_qos(wf, {0: 10, 1: 11, 2: 12}, cost)
    assert seen == [(0, 10, None), (1, 11, 10), (2, 12, 11)]


def test_branches_fan_in_predecessor_and_expose_no_exit():
    # a feeds both parallel branches; d after the And starts a fresh chain
    wf = seq(leaf("a", 1.0), par(leaf("b", 1.0), leaf("c", 1.0)),
             leaf("d", 1.0))
    seen = {}

    def cost(sid, occ_idx, fn, prev_sid):
        seen[occ_idx] = prev_sid
        return ZERO_QOS

    aggregate_qos(wf, {0: 10, 1: 11, 2: 12, 3: 13}, cost)
    assert seen == {0: None, 1: 10, 2: 10, 3: None}


def test_loop_passes_predecessor_through():
    wf = seq(leaf("a", 1.0), Loop(leaf("b", 1.0), count=2), leaf("c", 1.0))
    seen = {}

    def cost(sid, occ_idx, fn, prev_sid):
        seen[occ_idx] = prev_sid
        return ZERO_QOS

    aggregate_qos(wf, {0: 10, 1: 11, 2: 12}, cost)
    assert seen == {0: None, 1: 10, 2: 11}


def test_occurrences_mirror_aggregation_order_and_threading():
    wf = seq(leaf("a", 1.0), par(leaf("b", 1.0), leaf("c", 1.0)),
             leaf("d", 1.0))
    occs = occurrences(wf)
    assert [o.index for o in occs] == [0, 1, 2, 3]
    assert [o.fn.function_id for o in occs] == ["a", "b", "c", "d"]
    assert [o.prev for o in occs] == [None, 0, 0, None]


# --- extrema against exhaustive enumeration ---------------------------------------

def _enumerate_extrema(wf, table):
    """Per-dimension min/max of aggregate QoS over every complete plan."""
    occ_ids = sorted(table)
    pools = [sorted(table[o]) for o in occ_ids]
    lo = hi = None
    for combo in itertools.product(*pools):
        plan = dict(zip(occ_ids, combo))
        q = aggregate_qos(wf, plan, _table_cost(table))
        lo = q if lo is None else lo.emin(q)
        hi = q if hi is None else hi.emax(q)
    return QoSExtrema(lo=lo, hi=hi)


def test_workflow_extrema_match_plan_enumeration():
    wf = seq(par(leaf("a", 1.0), leaf("b", 1.0)),
             Loop(leaf("c", 1.0), count=2), leaf("d", 1.0))
    table = {0: {0: Q(1.0, 5.0, 100.0), 1: Q(3.0, 1.0, 50.0)},
             1: {0: Q(2.0, 2.0, 200.0), 1: Q(0.5, 8.0, 10.0)},
             2: {0: Q(1.5, 3.0, 80.0), 1: Q(2.5, 0.5, 300.0),
                 2: Q(0.1, 9.0, 5.0)},
             3: {0: Q(4.0, 4.0, 40.0), 1: Q(0.2, 7.0, 500.0)}}
    # componentwise extrema per occurrence, independent of any single service
    per_occ = {}
    for o, vals in table.items():
        lo = hi = next(iter(vals.values()))
        for q in vals.values():
            lo, hi = lo.emin(q), hi.emax(q)
        per_occ[o] = QoSExtrema(lo=lo, hi=hi)
    folded = workflow_extrema(wf, per_occ)
    brute = _enumerate_extrema(wf, table)
    for dim in ("price", "power", "delay"):
        assert folded.lo.get(dim) == pytest.approx(brute.lo.get(dim))
        assert folded.hi.get(dim) == pytest.approx(brute.hi.get(dim))


# --- the fold against the recursive walks it replaced -----------------------------

def _reference_fold(node, leaf_qos):
    """fold_qos as the recursive walk it was before folds were compiled."""

    def walk(n, idx):
        if isinstance(n, Leaf):
            return leaf_qos[idx], idx + 1
        if isinstance(n, Seq):
            total = ZERO_QOS
            for child in n.children:
                q, idx = walk(child, idx)
                total = total + q
            return total, idx
        if isinstance(n, And):
            price = power = delay = 0.0
            for child in n.children:
                q, idx = walk(child, idx)
                price += q.price
                power += q.power
                delay = max(delay, q.delay)
            return Q(price, power, delay), idx
        if isinstance(n, Xor):
            worst = ZERO_QOS
            for child in n.children:
                q, idx = walk(child, idx)
                worst = worst.emax(q)
            return worst, idx
        if isinstance(n, Loop):
            q, idx = walk(n.child, idx)
            return q.scale(n.count), idx
        raise InvalidWorkflow(f"unknown node type {type(n).__name__}")

    return walk(node, 0)[0]


def _reference_walk(node, plan, cost_fn):
    """aggregate_qos as one recursive walk that threads Seq predecessors and
    folds in the same pass; the oracle for occurrences() + fold_qos."""

    def walk(n, idx, prev):
        if isinstance(n, Leaf):
            if idx not in plan:
                raise IncompletePlan(f"no assignment for occurrence {idx}")
            sid = plan[idx]
            return cost_fn(sid, idx, n.fn, prev), idx + 1, sid
        if isinstance(n, Seq):
            total, cur = ZERO_QOS, prev
            for child in n.children:
                q, idx, cur = walk(child, idx, cur)
                total = total + q
            return total, idx, cur
        if isinstance(n, And):
            price = power = delay = 0.0
            for child in n.children:
                q, idx, _ = walk(child, idx, prev)
                price += q.price
                power += q.power
                delay = max(delay, q.delay)
            return Q(price, power, delay), idx, None
        if isinstance(n, Xor):
            worst = ZERO_QOS
            for child in n.children:
                q, idx, _ = walk(child, idx, prev)
                worst = worst.emax(q)
            return worst, idx, None
        if isinstance(n, Loop):
            q, idx, ex = walk(n.child, idx, prev)
            return q.scale(n.count), idx, ex
        raise InvalidWorkflow(f"unknown node type {type(n).__name__}")

    return walk(node, 0, None)[0]


_FUNCTIONS = ("image-filter", "noise-cancel", "ocr", "text-to-speech",
              "transcode", "stream", "download", "edit", "upload")


def _random_tree(rng, depth=0):
    """A random Seq/And/Xor/Loop tree, at most four composite levels deep."""
    if depth == 4 or (depth > 0 and rng.random() < 0.3):
        return leaf(str(rng.choice(_FUNCTIONS)), float(rng.uniform(64.0, 4096.0)))
    kind = int(rng.integers(4))
    kids = tuple(_random_tree(rng, depth + 1)
                 for _ in range(int(rng.integers(2, 4))))
    if kind == 3:
        return Loop(kids[0], count=int(rng.integers(1, 5)))
    return (Seq, And, Xor)[kind](kids)


def _kinds(node):
    """Composite node types occurring in a tree."""
    if isinstance(node, Leaf):
        return set()
    kids = (node.child,) if isinstance(node, Loop) else node.children
    return {type(node)}.union(*(_kinds(k) for k in kids))


def _random_q(rng):
    return Q(*(float(rng.random() * 10.0 ** rng.integers(-3, 4))
               for _ in range(3)))


def test_aggregate_and_extrema_equal_the_reference_walk_bit_for_bit():
    rng = np.random.default_rng(2024)
    seen_kinds = set()
    for _ in range(300):
        wf = _random_tree(rng)
        seen_kinds |= _kinds(wf)
        n = len(occurrences(wf))
        table = {o: {s: _random_q(rng) for s in range(3)} for o in range(n)}
        plan = {o: int(rng.integers(3)) for o in range(n)}

        def cost(sid, occ_idx, fn, prev_sid, calls):
            calls.append((sid, occ_idx, fn, prev_sid))
            q = table[occ_idx][sid]
            if prev_sid is None:
                return q
            # depends on the predecessor's service, as the hop does
            return Q(q.price, q.power + 0.1 * prev_sid,
                     q.delay + 0.01 * fn.input_kb * (prev_sid != sid))

        leaves = [_random_q(rng) for _ in range(n)]
        ref = _reference_fold(wf, leaves)
        assert fold_qos(wf, leaves) == ref
        assert fold_of(outline(wf)[1])([q.as_tuple() for q in leaves]) == \
            ref.as_tuple()

        got_calls, ref_calls = [], []
        got = aggregate_qos(wf, plan, lambda *a: cost(*a, got_calls))
        ref = _reference_walk(wf, plan, lambda *a: cost(*a, ref_calls))
        assert got == ref
        assert got_calls == ref_calls

        per_occ = {o: QoSExtrema(lo=t[0].emin(t[1]).emin(t[2]),
                                 hi=t[0].emax(t[1]).emax(t[2]))
                   for o, t in table.items()}
        dummy = {o: -1 for o in range(n)}
        assert workflow_extrema(wf, per_occ) == QoSExtrema(
            lo=_reference_walk(wf, dummy, lambda s, o, f, p: per_occ[o].lo),
            hi=_reference_walk(wf, dummy, lambda s, o, f, p: per_occ[o].hi))
    assert seen_kinds == {Seq, And, Xor, Loop}


def test_compiled_folds_are_shared_by_shape_only():
    def tree(count=2, kids=2, inner=par, kb=1.0):
        body = inner(*(leaf(f"f{k}", kb * (k + 1)) for k in range(kids)))
        return seq(leaf("a", kb), Loop(body, count=count))

    base = tree()
    # same kinds, child counts and Loop counts: one compiled fold, whatever
    # the functions and data sizes
    def compiled(node):
        return fold_of(outline(node)[1])

    assert compiled(tree(kb=64.0)) is compiled(base)
    leaves = [Q(1.5, 2.25, 3.0), Q(0.1, 0.7, 9.5), Q(4.0, 0.3, 2.5)]
    others = [tree(count=3), tree(kids=3), tree(inner=xor),
              seq(Loop(par(leaf("b", 1.0), leaf("c", 1.0)), count=2),
                  leaf("a", 1.0))]
    for other in others:
        assert compiled(other) is not compiled(base)
        given = leaves + [Q(2.0, 2.0, 2.0)] * (len(occurrences(other)) - 3)
        assert fold_qos(other, given) == _reference_fold(other, given)
    assert fold_qos(base, leaves) == _reference_fold(base, leaves)
    assert fold_qos(others[0], leaves) != fold_qos(base, leaves)


def test_array_folds_equal_the_scalar_fold_per_column():
    """fold_of(shape, np.maximum) folds columns of plans, one per element,
    to the floats fold_of(shape) gives each plan, ties and zeros included;
    each (shape, maximum) compiles once, and the two folds are apart."""
    rng = np.random.default_rng(77)
    seen_kinds = set()
    for _ in range(60):
        wf = _random_tree(rng)
        seen_kinds |= _kinds(wf)
        shape = outline(wf)[1]
        # (leaves x dimensions x plans), about 30 % of the values from a small
        # set, so max meets ties
        size = (len(occurrences(wf)), 3, int(rng.integers(1, 12)))
        cols = rng.random(size) * 10.0 ** rng.integers(-3, 4, size=size)
        ties = rng.random(size) < 0.3
        cols[ties] = rng.choice([0.0, 0.5, 3.0], size=int(ties.sum()))
        folded = fold_of(shape, np.maximum)([tuple(q) for q in cols])
        for r in range(size[2]):
            expect = fold_of(shape)([tuple(q[:, r].tolist()) for q in cols])
            assert tuple(float(c[r]) for c in folded) == expect
        assert fold_of(shape, np.maximum) is fold_of(shape, np.maximum)
        assert fold_of(shape, np.maximum) is not fold_of(shape)
    assert seen_kinds == {Seq, And, Xor, Loop}


def test_fold_qos_reads_one_triple_per_leaf_in_preorder():
    wf = seq(leaf("a", 1.0), xor(leaf("b", 1.0), leaf("c", 1.0)))
    got = fold_qos(wf, [Q(1.0, 2.0, 3.0), Q(4.0, 1.0, 1.0), Q(2.0, 5.0, 0.5)])
    assert got == Q(5.0, 7.0, 4.0)


def _rows(tables, j, ids):
    """The store rows of occurrence j's candidates ids (see _EntryTables)."""
    start, where, _, _ = tables.steps[j]
    return [start + where[sid] for sid in ids]


def _reference_evaluate(inst, plan):
    """UserInstance.evaluate as per-entry reference walks with the hop cost,
    over a plan keyed by (entry, occurrence index)."""
    host = inst.directory.host_cloud
    total = ZERO_QOS
    for i, entry in enumerate(inst.ltw.entries):
        sub = {occ: sid for (e, occ), sid in plan.items() if e == i}

        def cost(sid, occ_idx, fn, prev_sid, _i=i):
            # the candidate's row, read through the store
            store = inst.store
            row = _rows(inst.entries[_i], occ_idx, [sid])[0]
            q = Q(store.price[row], store.power[row], store.delay[row])
            if prev_sid is None:
                return q
            hop = intercloud_hop_ms(host(sid), host(prev_sid), fn.input_kb,
                                    inst.profiles)
            if hop:
                q = Q(q.price, q.power, q.delay + hop)
            return q

        total = total + _reference_walk(entry.workflow, sub, cost)
    return total


def test_evaluate_equals_the_reference_walk_on_xor_and_loop_entries():
    sc = Scenario(scenario_id="fold", grid_width=6, grid_height=6,
                  local_clouds=3, public_instances=1, users=2,
                  duration_s=120.0, seed=5,
                  template_mix={"text_recognition": 0.4, "video_stream": 0.3,
                                "file_sync": 0.3})
    dep = build_deployment(sc)
    user = build_population(sc, dep, 0).users[0]
    rng = np.random.default_rng(9)
    hops = 0
    seen = set()
    for _ in range(20):
        entries = []
        while not entries or not (set().union(*(_kinds(e.workflow) for e in entries))
                                  >= {Xor, Loop}):
            entries.append(LTWEntry(int(rng.integers(36)), 60.0,
                                    _random_tree(rng)))
        inst = UserInstance(user, LTW(tuple(entries)), dep.directory,
                            dep.profiles, dep.grid)
        seen |= set().union(*(_kinds(e.workflow) for e in entries))
        for _ in range(10):
            plan = {(e, occ.index): cands[int(rng.integers(len(cands)))]
                    for e, occ, cands in inst.iter_occurrences()}
            picks = tuple(plan[(e, occ.index)]
                          for e, occ, _ in inst.iter_occurrences())
            assert inst.evaluate(picks) == _reference_evaluate(inst, plan)
            assert 0.0 <= inst.utility(picks) <= 1.0
            hops += sum(
                1 for e, occ, _ in inst.iter_occurrences()
                if occ.prev is not None and intercloud_hop_ms(
                    dep.directory.host_cloud(plan[(e, occ.index)]),
                    dep.directory.host_cloud(plan[(e, occ.prev)]),
                    occ.fn.input_kb, dep.profiles) > 0)
    assert hops > 0 and seen >= {And, Xor, Loop}


def test_empty_ltw_is_rejected():
    with pytest.raises(InvalidWorkflow):
        LTW(())
    wf = seq(leaf("a", 1.0), leaf("b", 1.0))
    with pytest.raises(InvalidWorkflow):
        LTWEntry(0, 0.0, wf)


# --- normalization -----------------------------------------------------------------

def test_normalization_reverses_order_and_stays_in_unit_range():
    ext = QoSExtrema(lo=Q(0.0, 10.0, 100.0), hi=Q(2.0, 50.0, 500.0))
    cheap = normalize_qos(Q(0.0, 10.0, 100.0), ext)
    dear = normalize_qos(Q(2.0, 50.0, 500.0), ext)
    mid = normalize_qos(Q(1.0, 30.0, 300.0), ext)
    assert cheap == Q(1.0, 1.0, 1.0)
    assert dear == Q(0.0, 0.0, 0.0)
    assert mid == Q(0.5, 0.5, 0.5)
    for dim in ("price", "power", "delay"):
        assert 0.0 <= mid.get(dim) <= 1.0
        assert cheap.get(dim) >= mid.get(dim) >= dear.get(dim)


def test_degenerate_extrema_normalize_to_one():
    ext = QoSExtrema(lo=Q(3.0, 0.0, 7.0), hi=Q(3.0, 5.0, 7.0))
    got = normalize_qos(Q(3.0, 5.0, 7.0), ext)
    assert got.price == 1.0
    assert got.power == 0.0
    assert got.delay == 1.0


def test_total_normalized_qos_is_euclidean_and_bounded():
    ext = QoSExtrema(lo=Q(0.0, 0.0, 0.0), hi=Q(1.0, 1.0, 1.0))
    vec, total = normalize_service(Q(0.0, 0.0, 0.0), ext)
    assert vec == Q(1.0, 1.0, 1.0)
    assert total == pytest.approx(math.sqrt(3.0))
    _, worst = normalize_service(Q(1.0, 1.0, 1.0), ext)
    assert worst == 0.0
    _, mid = normalize_service(Q(0.5, 0.5, 0.5), ext)
    assert 0.0 <= mid <= math.sqrt(3.0)


def test_values_outside_the_envelope_raise():
    ext = QoSExtrema(lo=Q(0.0, 0.0, 0.0), hi=Q(1.0, 1.0, 1.0))
    with pytest.raises(ExtremaMismatch):
        normalize_qos(Q(2.0, 0.5, 0.5), ext)
    with pytest.raises(ValueError):
        QoSExtrema(lo=Q(2.0, 0.0, 0.0), hi=Q(1.0, 1.0, 1.0))


def test_ltw_normalization_clamps_float_slack():
    ext = QoSExtrema(lo=Q(0.0, 0.0, 0.0), hi=Q(1.0, 1.0, 1.0))
    eps = 1e-12
    got = normalize_qos(Q(1.0 + eps, 0.0, 0.0), ext)
    assert got.price == 0.0


def test_qos_triple_rejects_negative_and_non_finite():
    with pytest.raises(ValueError):
        Q(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Q(0.0, math.inf, 0.0)
    with pytest.raises(ValueError):
        Q(0.0, 0.0, math.nan)
