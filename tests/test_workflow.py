"""QoS algebra over workflow trees, normalization, and plan evaluation."""

import itertools
import math

import pytest

from tieralloc import (ExecutionPlan, IncompletePlan, InvalidWorkflow, LTW,
                       LTWEntry, Loop, QoSExtrema, QoSTriple, aggregate_qos,
                       leaf, ltw_extrema, ltw_qos, normalize_qos,
                       normalize_service, occurrences, par, seq,
                       workflow_extrema, xor)
from tieralloc.errors import ExtremaMismatch
from tieralloc.workflow import ZERO_QOS

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


def test_ltw_extrema_sum_entry_envelopes():
    wf = seq(leaf("a", 1.0), leaf("b", 1.0))
    ext = QoSExtrema(lo=Q(1.0, 1.0, 1.0), hi=Q(2.0, 3.0, 4.0))
    ltw = LTW((LTWEntry(0, 60.0, wf), LTWEntry(1, 60.0, wf)))
    tables = [{0: ext, 1: ext}, {0: ext, 1: ext}]
    got = ltw_extrema(ltw, tables)
    assert got.lo == Q(4.0, 4.0, 4.0)
    assert got.hi == Q(8.0, 12.0, 16.0)


# --- plan evaluation over location-time workflows ----------------------------------

def test_ltw_qos_sums_entries_and_passes_entry_context():
    wf = seq(leaf("a", 1.0), leaf("b", 1.0))
    ltw = LTW((LTWEntry(3, 60.0, wf), LTWEntry(5, 30.0, wf)))
    plan = ExecutionPlan({(0, 0): 7, (0, 1): 8, (1, 0): 7, (1, 1): 9})
    calls = []

    def cost(entry_idx, sid, occ_idx, fn, prev_sid):
        calls.append((entry_idx, sid, occ_idx, prev_sid))
        return Q(1.0, 0.0, float(entry_idx))

    got = ltw_qos(ltw, plan, cost)
    assert got == Q(4.0, 0.0, 2.0)
    assert calls == [(0, 7, 0, None), (0, 8, 1, 7),
                     (1, 7, 0, None), (1, 9, 1, 7)]


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
