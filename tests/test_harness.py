"""Harness: derived metrics, plan carrying, experiment runs, serialization."""

import csv
import dataclasses
import inspect
import io
import math
from pathlib import Path

import numpy as np
import pytest

from tieralloc import (CSV_COLUMNS, AllocationResult, AnnealingParams,
                       CapacityLedger, CloudNode, ConstraintVector, LTW,
                       LTWEntry, LocationMap, MetricsRow, MobileUser, ProfileSet, Scenario,
                       ScenarioError, Service, ServiceDirectory, Trajectory,
                       UserInstance, allocate_greedy,
                       allocate_music, allocate_rsa, brute_force_optimal,
                       build_deployment, build_population, carry_plans,
                       compute_throughput, emit_results, gain_pct, leaf,
                       load_scenario, music, rows_to_csv, rows_to_table,
                       run_experiment, summarize)
from tieralloc.allocation import clouds_without_room
from tieralloc.errors import (TooLargeForEnumeration, UndefinedGain,
                              UndefinedThroughput)


def trajectory_from_pairs(pairs):
    """A trajectory of (cell id, dwell seconds) visits."""
    return Trajectory(tuple(c for c, _ in pairs), tuple(d for _, d in pairs))


LOCAL = "local"
PUBLIC = "public"


# --- derived metrics -------------------------------------------------------------------

def test_throughput_is_achieved_over_optimal():
    assert compute_throughput(0.6, 0.8) == pytest.approx(75.0)
    assert compute_throughput(0.8, 0.8) == pytest.approx(100.0)
    assert compute_throughput(0.9, 0.8) > 100.0  # scoring noise may exceed it
    with pytest.raises(UndefinedThroughput):
        compute_throughput(0.5, 0.0)
    with pytest.raises(UndefinedThroughput):
        compute_throughput(0.5, -1.0)


def test_gain_is_percent_reduction_from_the_baseline():
    assert gain_pct(73.0, 100.0) == pytest.approx(27.0)
    assert gain_pct(100.0, 100.0) == 0.0
    assert gain_pct(120.0, 100.0) == pytest.approx(-20.0)
    with pytest.raises(UndefinedGain):
        gain_pct(5.0, 0.0)


# --- plan carrying ----------------------------------------------------------------------

def _carry_world():
    grid = LocationMap(4, 1, 100.0, wifi={0: 1, 3: 2})
    clouds = {1: CloudNode(1, LOCAL, location=0, capacity=1),
              2: CloudNode(2, LOCAL, location=3, capacity=1),
              9: CloudNode(9, PUBLIC)}
    directory = ServiceDirectory(grid, clouds)
    directory.insert(Service(100, "f", host_cloud=1, compute_ref="local"))
    directory.insert(Service(101, "f", host_cloud=2, compute_ref="local"))
    directory.insert(Service(102, "f", host_cloud=9, compute_ref="public"))
    user = MobileUser(0, trajectory_from_pairs([(0, 60.0)]))
    profiles = ProfileSet.defaults()

    def instance(ltw):
        return UserInstance(user, ltw, directory, profiles, grid)

    return instance


def test_carry_keeps_the_plan_when_prediction_was_exact():
    instance = _carry_world()
    inst = instance(LTW((LTWEntry(0, 60.0, leaf("f", 2048.0)),)))
    plan = (100,)
    res = AllocationResult({0: plan}, 1.0, True)
    out = carry_plans(res, {0: inst}, {0: inst}, np.random.default_rng(0))
    assert out[0] is plan


def test_carry_keeps_surviving_entries_and_redraws_mispredicted_ones():
    instance = _carry_world()
    shared = leaf("f", 2048.0)
    predicted = instance(LTW((LTWEntry(0, 60.0, shared),
                              LTWEntry(0, 60.0, leaf("f", 2048.0)))))
    true = instance(LTW((LTWEntry(3, 60.0, shared),  # moved, same request
                         LTWEntry(0, 60.0, leaf("f", 1024.0)))))  # new request
    plan = (100, 100)
    ledger = CapacityLedger({1: 1, 2: 1})
    assert ledger.try_admit(1)  # the allocator admitted the predicted plan
    res = AllocationResult({0: plan}, 1.0, True)
    out = carry_plans(res, {0: predicted}, {0: true},
                      np.random.default_rng(1), ledger)
    mapped = out[0]
    assert mapped[0] == 100  # surviving workflow keeps its pick
    redrawn = mapped[1]
    assert redrawn in (100, 101, 102)
    # ledger reflects what actually runs
    used = true.local_clouds(mapped)
    for cid in (1, 2):
        assert ledger.count(cid) == (1 if cid in used else 0)


def test_carry_redraw_respects_availability_and_survives_full_clouds():
    instance = _carry_world()
    predicted = instance(LTW((LTWEntry(0, 60.0, leaf("f", 2048.0)),)))
    true = instance(LTW((LTWEntry(0, 60.0, leaf("f", 2048.0)),)))
    res = AllocationResult({0: (102,)}, 1.0, True)

    # local cloud 2 is closed: it has no room at all
    for seed in range(20):
        out = carry_plans(res, {0: predicted}, {0: true},
                          np.random.default_rng(seed),
                          CapacityLedger({1: 1, 2: 0}))
        assert out[0] in ((100,), (102,))

    # with every cloud closed or full the request still runs somewhere
    ledger = CapacityLedger({1: 1, 2: 1, 9: 0})
    assert ledger.try_admit(1) and ledger.try_admit(2)  # other users fill up
    out = carry_plans(res, {0: predicted}, {0: true},
                      np.random.default_rng(3), ledger)
    assert out[0] in ((100,), (101,), (102,))


def test_carry_redraw_may_reuse_the_clouds_the_plan_holds():
    instance = _carry_world()
    predicted = instance(LTW((LTWEntry(0, 60.0, leaf("f", 2048.0)),)))
    true = instance(LTW((LTWEntry(0, 60.0, leaf("f", 1024.0)),)))
    res = AllocationResult({0: (100,)}, 1.0, True)
    picks = set()
    for seed in range(20):
        # the plan holds cloud 1's only slot; another user fills cloud 2
        ledger = CapacityLedger({1: 1, 2: 1})
        assert ledger.try_admit(1) and ledger.try_admit(2)
        out = carry_plans(res, {0: predicted}, {0: true},
                          np.random.default_rng(seed), ledger)
        (pick,) = out[0]
        picks.add(pick)
        assert (ledger.count(1), ledger.count(2)) == (int(pick == 100), 1)
    assert picks == {100, 102}


def _dict_carry_plans(plans, predicted, true, rng, ledger):
    """carry_plans as it carried plans keyed by (entry, occurrence index):
    a surviving entry reads its picks by key, a mispredicted one draws
    uniformly among the true candidates with room."""
    effective = {}
    for uid in sorted(plans):
        pred_inst, true_inst = predicted[uid], true[uid]
        plan = plans[uid]
        if pred_inst.ltw is true_inst.ltw:
            effective[uid] = plan
            continue
        held = pred_inst.local_clouds(list(plan.values()))
        blocked = clouds_without_room(ledger, held=held)
        out = {}
        for e, t_entry in enumerate(true_inst.ltw.entries):
            for occ in true_inst.entries[e].occs:
                if pred_inst.ltw.entries[e].workflow is t_entry.workflow:
                    out[(e, occ.index)] = plan[(e, occ.index)]
                    continue
                cands = true_inst.entries[e].cands[occ.index]
                ids = [sid for sid in cands
                       if (node := true_inst.hosts[sid]) is None
                       or node not in blocked] or cands
                out[(e, occ.index)] = ids[int(rng.integers(len(ids)))]
        effective[uid] = out
        if ledger is not None:
            used = true_inst.local_clouds(list(out.values()))
            for cid in sorted(held - used):
                ledger.release(cid)
            for cid in sorted(used - held):
                ledger.try_admit(cid)
    return effective


def _keyed(inst, picks):
    return {(e, occ.index): sid
            for (e, occ, _), sid in zip(inst.iter_occurrences(), picks)}


def _shifted_survivor(pred_inst, true_inst):
    """Whether a mispredicted entry with another occurrence count than its
    true entry comes before a surviving entry, so the survivor's picks sit
    at different offsets in the predicted and the true pick tuples."""
    shifted = False
    for p, t in zip(pred_inst.entries, true_inst.entries):
        if p.workflow is t.workflow:
            if shifted:
                return True
        elif len(p.occs) != len(t.occs):
            shifted = True
    return False


@pytest.mark.parametrize("mode", ["location", "service", "both"])
@pytest.mark.parametrize("pct", [30.0, 100.0])
def test_carry_on_pick_tuples_equals_the_dict_keyed_carry(pct, mode):
    from tieralloc import harness
    shifted = 0
    for seed in range(3):
        sc = Scenario(users=16, local_capacity=2, workflows_per_user=3,
                      uncertainty_pct=pct, uncertainty_mode=mode,
                      enumeration_cap=1, repetitions=1, seed=seed)
        dep = build_deployment(sc)
        pop = build_population(sc, dep, 0)
        true, predicted = harness._population_instances(dep, pop)
        for alg in ("music", "rsa", "greedy"):
            def allocate(ledger):
                rng = np.random.default_rng(seed)
                if alg == "music":
                    res = allocate_music(predicted, sc.constraints(),
                                         AnnealingParams(max_iter=2), rng,
                                         ledger=ledger)
                elif alg == "rsa":
                    res = allocate_rsa(predicted, sc.constraints(), rng, ledger)
                else:
                    res = allocate_greedy(predicted, rng, ledger)
                return res, rng

            ledger, old_ledger = dep.fresh_ledger(), dep.fresh_ledger()
            res, rng = allocate(ledger)
            old_res, old_rng = allocate(old_ledger)
            assert res.plans == old_res.plans
            got = carry_plans(res, predicted, true, rng, ledger)
            old = _dict_carry_plans(
                {u: _keyed(predicted[u], p) for u, p in old_res.plans.items()},
                predicted, true, old_rng, old_ledger)
            assert {u: _keyed(true[u], p) for u, p in got.items()} == old
            assert {cid: ledger.count(cid) for cid in ledger.capacities()} == \
                {cid: old_ledger.count(cid)
                 for cid in old_ledger.capacities()}
            assert rng.bit_generator.state == old_rng.bit_generator.state
            shifted += sum(_shifted_survivor(predicted[u], true[u])
                           for u in res.plans)
    # location noise keeps every workflow and service noise at 100 %
    # replaces every one, so neither leaves a survivor behind a shift
    if mode == "location" or (mode == "service" and pct == 100.0):
        assert shifted == 0
    else:
        assert shifted > 0


def test_an_absent_ledger_is_the_empty_ledger():
    """Each planner, and carry-over of its plans, run once with the ledger
    omitted and once with an empty CapacityLedger: plans, utility,
    feasible, note, the carried plans and the generator state are equal.
    The plans place work on local clouds, which the shared default ledger
    admits without tracking them: it still tracks no cloud afterwards."""
    from tieralloc import harness
    from tieralloc.registry import NO_LEDGER
    for fn in (music, allocate_music, allocate_rsa, allocate_greedy,
               brute_force_optimal, carry_plans):
        assert inspect.signature(fn).parameters["ledger"].default \
            is NO_LEDGER
    desk = Path(__file__).resolve().parents[1] / "demos/scenarios/desk.json"
    sc = dataclasses.replace(load_scenario(desk), groups=2,
                             uncertainty_pct=50.0, budget_delay=12000.0)
    budget = sc.constraints()
    params = sc.annealing_params()
    planners = {
        "music": lambda pred, rng, **kw: allocate_music(
            pred, budget, params, rng, **kw),
        "gmusic": lambda pred, rng, **kw: allocate_music(
            pred, budget, params, rng, groups=pop.groups, **kw),
        "rsa": lambda pred, rng, **kw: allocate_rsa(pred, budget, rng, **kw),
        "greedy": lambda pred, rng, **kw: allocate_greedy(pred, rng, **kw),
        "bruteforce": lambda pred, rng, **kw: brute_force_optimal(
            pred, budget, groups=pop.groups, **kw)}
    dep = build_deployment(sc)
    local = [cid for cid, c in dep.clouds.items() if c.tier == "local"]
    placed_locally = redrawn = 0
    for rep in range(sc.repetitions):
        pop = build_population(sc, dep, rep)
        true, predicted = harness._population_instances(dep, pop)
        for name, plan in planners.items():
            runs = []
            for kw in ({}, {"ledger": CapacityLedger({})}):
                rng = np.random.default_rng(rep)
                res = plan(predicted, rng, **kw)
                carried = carry_plans(res, predicted, true, rng, **kw)
                runs.append((res.plans, res.utility, res.feasible, res.note,
                             carried, rng.bit_generator.state))
            assert runs[0] == runs[1], name
            placed_locally += any(predicted[u].local_clouds(p)
                                  for u, p in res.plans.items())
            redrawn += carried != res.plans
        assert NO_LEDGER.capacities() == {}
        assert all(NO_LEDGER.room(cid) == math.inf for cid in local)
    assert placed_locally > 5 and redrawn > 5


# --- experiment runs ----------------------------------------------------------------------

def _scenario(**kw):
    defaults = dict(scenario_id="unit", grid_width=6, grid_height=6,
                    local_clouds=3, public_instances=1, users=3,
                    workflows_per_user=1, duration_s=120.0,
                    template_mix={"file_sync": 1.0}, repetitions=2, seed=5)
    defaults.update(kw)
    return Scenario(**defaults)


def test_experiment_emits_one_row_per_algorithm_and_repetition():
    rows = run_experiment(_scenario(algorithm="all"))
    assert len(rows) == 2 * 4  # music, rsa, greedy, bruteforce x 2 reps
    by_alg = {}
    for row in rows:
        by_alg.setdefault(row.algorithm, []).append(row)
        assert row.scenario_id == "unit"
        assert (row.users, row.groups, row.seed) == (3, 0, 5)
        assert 0.0 <= row.utility <= 1.0
        assert row.throughput_pct is not None
        assert row.fixed_dimension == ""
    assert sorted(by_alg) == ["bruteforce", "greedy", "music", "rsa"]
    for alg, rs in by_alg.items():
        assert [r.repetition for r in rs] == [0, 1]
    for row in by_alg["bruteforce"]:
        assert row.throughput_pct == pytest.approx(100.0)


def test_experiment_is_byte_reproducible():
    a = rows_to_csv(run_experiment(_scenario(algorithm="music")))
    b = rows_to_csv(run_experiment(_scenario(algorithm="music")))
    assert a == b


def test_enumeration_cap_skips_or_raises_per_request():
    # under "all" an oversized instance silently drops the bruteforce rows
    rows = run_experiment(_scenario(algorithm="all", enumeration_cap=1,
                                    repetitions=1))
    algs = [r.algorithm for r in rows]
    assert "bruteforce" not in algs and "music" in algs
    assert all(r.throughput_pct is None for r in rows)
    # an explicit bruteforce request fails loudly instead
    with pytest.raises(TooLargeForEnumeration):
        run_experiment(_scenario(algorithm="bruteforce", enumeration_cap=1,
                                 repetitions=1))


def test_a_row_whose_plans_break_a_budget_has_no_throughput():
    """Desk under a 9000 ms delay budget. In repetition 2 greedy puts a user
    over the budget, so the optimum, which keeps it, does not bound greedy:
    its throughput is blank. Music's plans keep the budget and score the
    optimum."""
    desk = Path(__file__).resolve().parents[1] / "demos/scenarios/desk.json"
    sc = dataclasses.replace(load_scenario(desk), budget_delay=9000.0)
    rows = run_experiment(sc)
    records = [dict(zip(CSV_COLUMNS, r))
               for r in csv.reader(io.StringIO(rows_to_csv(rows)))][1:]
    assert all(float(r["throughput_pct"] or 0.0) <= 100.0 for r in records)
    third = {r["algorithm"]: r["throughput_pct"] for r in records
             if r["repetition"] == "2"}
    assert third["greedy"] == ""
    assert third["music"] == third["bruteforce"] == "100.000000"


def test_fixed_dimension_study_reports_gains():
    rows = run_experiment(_scenario(algorithm="music", repetitions=1,
                                    fixed_dimension="delay"))
    assert len(rows) == 1
    row = rows[0]
    assert row.fixed_dimension == "delay"
    assert row.throughput_pct is None
    for val in (row.gain_price_pct, row.gain_power_pct, row.gain_delay_pct):
        assert val is not None and math.isfinite(val)


def test_a_zero_baseline_mean_leaves_its_gain_blank():
    """The gain study with no public instance, local capacity 5 and power
    held fixed: the public-only baseline places few users, each on its
    device, so over the users both passes placed the baseline's mean price
    is 0, and so is the two-tier one. That gain is undefined and its cell
    is blank; the run goes on and fills the other two gains."""
    study = Path(__file__).resolve().parents[1] / \
        "demos/scenarios/gain_study.json"
    sc = dataclasses.replace(load_scenario(study), users=10, repetitions=2,
                             public_instances=0, local_capacity=5,
                             fixed_dimension="power")
    records = [dict(zip(CSV_COLUMNS, r)) for r in csv.reader(
        io.StringIO(rows_to_csv(run_experiment(sc))))][1:]
    assert [r["repetition"] for r in records] == ["0", "1"]
    for r in records:
        assert r["gain_price_pct"] == ""
        assert r["gain_power_pct"] and r["gain_delay_pct"]


def test_fixed_dimension_rejects_bruteforce():
    with pytest.raises(ScenarioError, match="bruteforce"):
        run_experiment(_scenario(algorithm="bruteforce",
                                 fixed_dimension="price"))
    with pytest.raises(ScenarioError, match="bruteforce"):
        run_experiment(_scenario(algorithm="all", fixed_dimension="price"))


@pytest.mark.parametrize("pct", [0.0, 30.0])
@pytest.mark.parametrize("alg", ["music", "rsa", "greedy", "gmusic"])
def test_public_only_pass_equals_the_gain_study_baseline_pass(alg, pct):
    """--public-only is local capacity 0: its placement pass on a fresh
    ledger returns the raws of the gain study's baseline pass, which runs
    on the two-tier deployment with a ledger whose local clouds have no
    room."""
    from tieralloc import harness
    sc = _scenario(users=8, groups=2, uncertainty_pct=pct, repetitions=1,
                   local_capacity=2)
    raws = []
    for scen, closed in ((dataclasses.replace(sc, local_capacity=0), False),
                         (sc, True)):
        dep = build_deployment(scen)
        pop = build_population(scen, dep, 0)
        true, predicted = harness._population_instances(dep, pop)
        ledger = dep.fresh_ledger()
        if closed:
            ledger = CapacityLedger(dict.fromkeys(ledger.capacities(), 0))
        raws.append(harness._pass(alg, scen, pop, true, predicted,
                                  ConstraintVector.unlimited(),
                                  np.random.default_rng(7), ledger))
    assert raws[0] and raws[0] == raws[1]


def test_uncertain_predictions_still_produce_full_rows():
    rows = run_experiment(_scenario(algorithm="greedy", uncertainty_pct=50.0,
                                    repetitions=2))
    assert len(rows) == 2
    for row in rows:
        assert row.uncertainty_pct == 50.0
        assert 0.0 <= row.utility <= 1.0
        assert row.mean_delay_ms > 0.0


def test_rows_without_a_placed_user_leave_the_means_blank():
    # a delay budget that no group of 4 meets: every target is infeasible
    rows = run_experiment(Scenario(scenario_id="empty", users=12, groups=3,
                                   algorithm="gmusic", budget_delay=9000.0,
                                   repetitions=2, seed=0))
    assert len(rows) == 2
    for row in rows:
        assert row.utility == 0.0
        assert (row.mean_delay_ms, row.mean_power_mj,
                row.mean_price_usd) == (None, None, None)
    lines = rows_to_csv(rows).splitlines()
    for line in lines[1:]:
        record = dict(zip(CSV_COLUMNS, next(csv.reader([line]))))
        assert record["utility"] == "0.000000"
        assert record["mean_delay_ms"] == record["mean_power_mj"] == \
            record["mean_price_usd"] == ""


@pytest.mark.parametrize("fixed", [None, "delay"])
def test_rows_evaluate_each_effective_plan_once(monkeypatch, fixed):
    from tieralloc import build_deployment, build_population, harness
    sc = _scenario(algorithm="greedy", users=6, uncertainty_pct=50.0,
                   repetitions=1, enumeration_cap=1, fixed_dimension=fixed)
    dep = build_deployment(sc)
    pop = build_population(sc, dep, 0)

    def instances(ltws):
        return {uid: UserInstance(pop.users[uid], ltws[uid], dep.directory,
                                  dep.profiles, dep.grid)
                for uid in sorted(pop.users)}

    true, predicted = instances(pop.true_ltws), instances(pop.predicted_ltws)
    carried = []
    carry = harness.carry_plans
    monkeypatch.setattr(harness, "carry_plans",
                        lambda *a, **k: carried.append(carry(*a, **k))
                        or carried[-1])
    scored = []
    evaluate = UserInstance.evaluate
    monkeypatch.setattr(UserInstance, "evaluate", lambda self, plan: (
        scored.append(self.user.id) if self is true[self.user.id] else None,
        evaluate(self, plan))[1])
    rows_fn = harness._gain_rows if fixed else harness._standard_rows
    rows = rows_fn(sc, dep, pop, true, predicted, ["greedy"], 0)
    assert len(rows) == 1 and len(carried) == (2 if fixed else 1)
    # allocation evaluates the predicted instances; each plan that runs is
    # evaluated on its true instance once, for the metrics and the utility
    assert sorted(scored) == sorted(u for eff in carried for u in eff)


# --- serialization ----------------------------------------------------------------------

def _row(**kw):
    defaults = dict(scenario_id="s", algorithm="music", users=5, groups=0,
                    uncertainty_pct=0.0, repetition=0, utility=0.75,
                    throughput_pct=88.5, mean_delay_ms=1234.5678901,
                    mean_power_mj=9.0, mean_price_usd=0.25,
                    gain_price_pct=None, gain_power_pct=None,
                    gain_delay_pct=None, fixed_dimension="", seed=7)
    defaults.update(kw)
    return MetricsRow(**defaults)


def test_record_order_matches_the_schema():
    row = _row()
    assert [f.name for f in dataclasses.fields(row)] == list(CSV_COLUMNS)
    record = dict(zip(CSV_COLUMNS, dataclasses.astuple(row)))
    assert record["scenario_id"] == "s"
    assert record["algorithm"] == "music"
    assert record["users"] == 5
    assert record["utility"] == 0.75
    assert record["gain_price_pct"] is None
    assert record["seed"] == 7
    assert len(CSV_COLUMNS) == len(dataclasses.astuple(row)) == 16


def test_csv_fixes_metric_precision_and_blanks_missing_values():
    text = rows_to_csv([_row()])
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    fields = next(csv.reader(io.StringIO(lines[1])))
    record = dict(zip(CSV_COLUMNS, fields))
    assert record["utility"] == "0.750000"
    assert record["throughput_pct"] == "88.500000"
    assert record["mean_delay_ms"] == "1234.567890"  # six decimals, rounded
    assert record["gain_price_pct"] == ""
    assert record["uncertainty_pct"] == "0"
    assert record["seed"] == "7"
    assert text.endswith("\n") and "\r" not in text


def test_table_rendering_shows_blanks_as_dashes():
    text = rows_to_table([_row(throughput_pct=None)])
    lines = text.splitlines()
    assert lines[0].split()[:2] == ["scenario_id", "algorithm"]
    assert set(lines[1]) <= {"-", " "}
    body = lines[2].split()
    assert "-" in body  # the blank throughput column
    assert "0.750000" in body


def test_emit_results_writes_files_and_rejects_unknown_formats(tmp_path):
    rows = [_row()]
    out = tmp_path / "r.csv"
    text = emit_results(rows, "csv", str(out))
    assert out.read_text() == text == rows_to_csv(rows)
    assert emit_results(rows, "table") == rows_to_table(rows)
    with pytest.raises(ValueError):
        emit_results(rows, "parquet")


def test_summary_means_and_deviations_per_setting():
    rows = [_row(repetition=0, utility=0.4, throughput_pct=None),
            _row(repetition=1, utility=0.6, throughput_pct=90.0),
            _row(algorithm="greedy", utility=0.5, throughput_pct=None)]
    recs = summarize(rows)
    assert len(recs) == 2
    by_alg = {r["algorithm"]: r for r in recs}
    music = by_alg["music"]
    assert music["repetitions"] == 2
    assert music["utility_mean"] == pytest.approx(0.5)
    assert music["utility_std"] == pytest.approx(0.1)
    assert music["throughput_pct_mean"] == pytest.approx(90.0)  # None skipped
    assert by_alg["greedy"]["repetitions"] == 1
    assert "throughput_pct_mean" not in by_alg["greedy"]


def test_outline_and_the_population_build_leave_no_cyclic_garbage():
    """outline walks without a closure over itself, so neither it, on every
    template shape and on every composite node kind, nor a population's
    instance build (which outlines each queued entry) leaves a reference
    cycle for the collector: with the collector off, nothing is left for
    gc.collect() to free."""
    import gc

    from tieralloc import harness
    from tieralloc.scenario import _TEMPLATE_SHAPES, make_templates
    from tieralloc.workflow import Loop, outline, par, seq, xor

    sc = Scenario(users=6, repetitions=1, uncertainty_pct=30.0)
    dep = build_deployment(sc)
    pop = build_population(sc, dep, 0)
    rng = np.random.default_rng(3)
    trees = [t.instantiate(rng)
             for t in make_templates(list(_TEMPLATE_SHAPES), 100.0, 900.0)]
    trees.append(seq(par(leaf("a", 1.0), xor(leaf("b", 2.0), leaf("c", 3.0))),
                     Loop(seq(leaf("d", 4.0), leaf("e", 5.0)), 3)))
    gc.collect()
    gc.disable()
    try:
        for tree in trees:
            outline(tree)
        true, predicted = harness._population_instances(dep, pop)
        assert len(true) == 6 and any(predicted[u] is not true[u]
                                      for u in true)
        del true, predicted
        assert gc.collect() == 0
    finally:
        gc.enable()
