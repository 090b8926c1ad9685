"""End-to-end acceptance scorecard.

Each test exercises one numbered behavior of the library at its stated
tolerance, prints a single "[criterion NN] name: PASS/FAIL (measured...)"
line, and then asserts. Running pytest with -rA therefore reads as a
scorecard: every criterion line appears in the summary output.
"""

import math
import time

import numpy as np
from scipy import stats

from tieralloc import (ConstraintVector, InvocationContext, LOCAL, Loop,
                       PUBLIC, ProfileSet, QoSExtrema, QoSTriple, RTree,
                       Scenario, THREEG, UserInstance, WIFI, aggregate_qos,
                       brute_force_optimal, build_deployment,
                       build_population, emit_results, leaf,
                       normalize_qos, normalize_service,
                       objective_from_plans, occurrences, par, roulette_index,
                       run_experiment, seq, service_delay, service_power,
                       workflow_extrema, xor)

DIM_NAMES = ("price", "power", "delay")


def _report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# --- 01: composition algebra ----------------------------------------------------

def test_composition_algebra_matches_hand_computed_cells():
    start = time.perf_counter()
    table = {10: QoSTriple(1.0, 2.0, 3.0),
             11: QoSTriple(4.0, 5.0, 6.0),
             12: QoSTriple(7.0, 8.0, 9.0)}

    def cost(sid, occ, fn, prev):
        return table[sid]

    a, b, c = (leaf(f"f{i}", 100.0) for i in range(3))
    plan2 = {0: 10, 1: 11}
    plan3 = {0: 10, 1: 11, 2: 12}
    cells = []
    got = aggregate_qos(seq(a, b, c), plan3, cost)
    cells += [("sequence", d, got.get(d), w)
              for d, w in (("price", 12.0), ("power", 15.0), ("delay", 18.0))]
    got = aggregate_qos(par(a, b), plan2, cost)
    cells += [("parallel", d, got.get(d), w)
              for d, w in (("price", 5.0), ("power", 7.0), ("delay", 6.0))]
    got = aggregate_qos(xor(a, b, c), plan3, cost)
    cells += [("conditional", d, got.get(d), w)
              for d, w in (("price", 7.0), ("power", 8.0), ("delay", 9.0))]
    got = aggregate_qos(Loop(a, count=5), {0: 10}, cost)
    cells += [("loop", d, got.get(d), w)
              for d, w in (("price", 5.0), ("power", 10.0), ("delay", 15.0))]
    wrong = [f"{pat}/{dim}: {got}" for pat, dim, got, want in cells
             if got != want]
    elapsed = time.perf_counter() - start
    ok = not wrong and elapsed < 1.0
    _report(1, "composition algebra", ok,
            f"{len(cells) - len(wrong)}/{len(cells)} cells exact in "
            f"{elapsed:.3f}s" + (f"; wrong: {wrong}" if wrong else ""))
    assert ok, wrong or f"too slow: {elapsed:.3f}s"


# --- 02: normalization bounds ---------------------------------------------------

def test_normalization_stays_in_unit_box_over_random_samples():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    n_services, n_workflows = 8000, 2000
    violations = []
    degenerate = 0

    for i in range(n_services):
        lo = rng.uniform(0.0, 50.0, size=3)
        hi = lo + rng.uniform(0.0, 50.0, size=3)
        if i % 50 == 0:
            hi = lo.copy()
        raw = np.clip(lo + rng.random(3) * (hi - lo), lo, hi)
        ext = QoSExtrema(lo=QoSTriple(*lo), hi=QoSTriple(*hi))
        norm, total = normalize_service(QoSTriple(*raw), ext)
        for k, dim in enumerate(DIM_NAMES):
            v = norm.get(dim)
            if not 0.0 <= v <= 1.0:
                violations.append(f"service {i} {dim}={v}")
            if hi[k] == lo[k]:
                degenerate += 1
                if v != 1.0:
                    violations.append(f"service {i} degenerate {dim}={v}")
        if not 0.0 <= total <= math.sqrt(3):
            violations.append(f"service {i} total={total}")

    makers = (seq, par, xor, None)
    for i in range(n_workflows):
        kids = [leaf(f"f{k}", 100.0) for k in range(int(rng.integers(2, 4)))]
        maker = makers[int(rng.integers(0, 4))]
        node = (Loop(seq(*kids), count=int(rng.integers(1, 5)))
                if maker is None else maker(*kids))
        pools, ext_table, plan = {}, {}, {}
        for occ in occurrences(node):
            pool = [QoSTriple(*rng.uniform(0.1, 100.0, size=3))
                    for _ in range(int(rng.integers(2, 5)))]
            lo, hi = pool[0], pool[0]
            for t in pool[1:]:
                lo, hi = lo.emin(t), hi.emax(t)
            pools[occ.index] = pool
            ext_table[occ.index] = QoSExtrema(lo=lo, hi=hi)
            plan[occ.index] = int(rng.integers(0, len(pool)))
        raw = aggregate_qos(node, plan,
                            lambda sid, occ, fn, prev: pools[occ][sid])
        norm = normalize_qos(raw, workflow_extrema(node, ext_table))
        for dim in DIM_NAMES:
            v = norm.get(dim)
            if not 0.0 <= v <= 1.0:
                violations.append(f"workflow {i} {dim}={v}")

    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 10.0
    _report(2, "normalization bounds", ok,
            f"{n_services} services ({degenerate} degenerate dims) + "
            f"{n_workflows} workflows in unit box, total within sqrt(3), "
            f"{elapsed:.1f}s"
            + (f"; first violations: {violations[:3]}" if violations else ""))
    assert ok, violations[:5] or f"too slow: {elapsed:.1f}s"


# --- 03: spatial index agreement ------------------------------------------------

def test_spatial_index_agrees_with_linear_scan():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    cases, mismatches = 1000, []
    for case in range(cases):
        pts = rng.uniform(0.0, 100.0, size=(int(rng.integers(1, 121)), 2))
        tree = RTree()
        for i, p in enumerate(pts):
            tree.insert(i, (float(p[0]), float(p[1])))
        cx, cy = (float(v) for v in rng.uniform(-10.0, 110.0, size=2))
        radius = float(rng.uniform(0.0, 60.0))
        got = set(tree.search_disc((cx, cy), radius))
        want = {i for i, p in enumerate(pts)
                if math.dist((float(p[0]), float(p[1])), (cx, cy)) <= radius}
        if got != want:
            mismatches.append(case)
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 30.0
    _report(3, "spatial index vs linear scan", ok,
            f"{cases} randomized layout+query cases identical, {elapsed:.1f}s"
            + (f"; mismatched cases: {mismatches[:5]}" if mismatches else ""))
    assert ok, mismatches[:5] or f"too slow: {elapsed:.1f}s"


# --- 04: roulette selection -----------------------------------------------------

def test_roulette_matches_worked_example_and_converges():
    totals = [0.2, 0.3, 0.5]
    worked = roulette_index(totals, 0.35)
    rng = np.random.default_rng(123)
    n = 100_000
    counts = np.zeros(3)
    for u in rng.random(n):
        counts[roulette_index(totals, float(u))] += 1
    deviation = float(np.abs(counts / n - np.array(totals)).max())
    ok = worked == 1 and deviation <= 0.01
    _report(4, "roulette selection", ok,
            f"draw 0.35 picks index {worked}; {n} draws deviate "
            f"{deviation:.4f} from (0.2, 0.3, 0.5)")
    assert ok, f"worked example index {worked}, deviation {deviation:.4f}"


# --- 05: allocator ranking at enumerable scale ----------------------------------

DESK = dict(scenario_id="desk", grid_width=6, grid_height=6,
            local_clouds=2, public_instances=1, users=5,
            workflows_per_user=1, duration_s=120.0,
            local_function_rate=0.4,
            template_mix={"file_sync": 1.0},
            profiles={"intercloud": {"delay_ms_per_100kb": 400.0}},
            annealing={"radius_start_cells": 8.0},
            repetitions=3)


def _max_candidates_per_function(dep, users):
    """Worst-case candidate count any user sees for any function."""
    fns = sorted({fn for t in dep.templates for fn in t.functions})
    worst = 0
    for fn in fns:
        cloud = len(dep.directory.cloud_services_for(fn))
        for uid in range(users):
            dev = len(dep.directory.device_services_for(uid, fn))
            worst = max(worst, cloud + dev)
    return worst


def test_annealer_beats_greedy_beats_random_at_enumerable_scale():
    start = time.perf_counter()
    per_seed = {"music": [], "greedy": [], "rsa": []}
    worst_cands, n_functions = 0, 0
    for seed in range(30):
        sc = Scenario(**DESK, algorithm="all", seed=seed)
        dep = build_deployment(sc)
        n_functions = max(n_functions,
                          len({fn for t in dep.templates for fn in t.functions}))
        worst_cands = max(worst_cands,
                          _max_candidates_per_function(dep, sc.users))
        rows = run_experiment(sc)
        for alg, acc in per_seed.items():
            vals = [r.throughput_pct for r in rows if r.algorithm == alg]
            assert vals and all(v is not None for v in vals), \
                f"seed {seed}: missing {alg} throughput"
            acc.append(float(np.mean(vals)))
    means = {alg: float(np.mean(v)) for alg, v in per_seed.items()}

    def compare(hi, lo):
        if np.allclose(per_seed[hi], per_seed[lo]):
            return True, f"{hi}={lo} (tie)"
        p = stats.ttest_rel(per_seed[hi], per_seed[lo],
                            alternative="greater").pvalue
        return bool(p < 0.05), f"p({hi}>{lo})={p:.1e}"

    sig_mg, note_mg = compare("music", "greedy")
    sig_gr, note_gr = compare("greedy", "rsa")
    elapsed = time.perf_counter() - start
    envelope_ok = (DESK["users"] <= 10 and n_functions <= 3
                   and worst_cands <= 4)
    ok = (means["music"] >= 60.0
          and means["music"] >= means["greedy"] >= means["rsa"]
          and sig_mg and sig_gr and envelope_ok and elapsed < 600.0)
    _report(5, "allocator ranking at enumerable scale", ok,
            f"mean throughput music {means['music']:.1f}%, greedy "
            f"{means['greedy']:.1f}%, rsa {means['rsa']:.1f}% over 30 seeds; "
            f"{note_mg}, {note_gr}; at most {worst_cands} services/function, "
            f"{n_functions} functions, {DESK['users']} users; {elapsed:.1f}s")
    assert ok, (means, note_mg, note_gr, worst_cands, elapsed)


# --- 06: finer groups raise grouped throughput ----------------------------------

GROUPED = dict(scenario_id="grouped", users=100, local_capacity=8,
               workflows_per_user=1, duration_s=300.0,
               template_mix={"file_sync": 1.0},
               annealing={"radius_start_cells": 3.0},
               algorithm="gmusic", repetitions=15, seed=7)


def test_finer_groups_raise_grouped_throughput():
    start = time.perf_counter()
    sc4 = Scenario(**GROUPED, groups=4)
    sc20 = Scenario(**GROUPED, groups=20)
    dep = build_deployment(sc4)
    util4 = {r.repetition: r.utility for r in run_experiment(sc4)}
    util20 = {r.repetition: r.utility for r in run_experiment(sc20)}
    tp4, tp20 = [], []
    for rep in sorted(util4):
        pop4 = build_population(sc4, dep, rep)
        pop20 = build_population(sc20, dep, rep)
        true = {uid: UserInstance(pop4.users[uid], pop4.true_ltws[uid],
                                  dep.directory, dep.profiles, dep.grid)
                for uid in sorted(pop4.users)}
        # With no budgets and no shared ledger the optimum decomposes per
        # user, so one enumeration serves both groupings as denominator.
        best = brute_force_optimal(true, ConstraintVector.unlimited())
        tp4.append(100.0 * util4[rep]
                   / objective_from_plans(true, best.plans, pop4.groups))
        tp20.append(100.0 * util20[rep]
                    / objective_from_plans(true, best.plans, pop20.groups))
    mean4, mean20 = float(np.mean(tp4)), float(np.mean(tp20))
    gap = mean20 - mean4
    elapsed = time.perf_counter() - start
    ok = gap >= 5.0 and len(tp4) >= 15 and elapsed < 900.0
    _report(6, "finer groups raise grouped throughput", ok,
            f"20 groups {mean20:.1f}% vs 4 groups {mean4:.1f}% at 100 users: "
            f"gap {gap:+.1f} pp over {len(tp4)} repetitions, {elapsed:.0f}s")
    assert ok, f"gap {gap:.2f} pp over {len(tp4)} reps in {elapsed:.0f}s"


# --- 07: two-tier gain directions -----------------------------------------------

def test_two_tier_gains_point_the_right_way():
    start = time.perf_counter()
    measured = {}
    for fixed, dims in (("delay", ("price",)), ("price", ("power", "delay"))):
        sc = Scenario(scenario_id=f"gain-{fixed}", algorithm="music",
                      repetitions=15, fixed_dimension=fixed, seed=0)
        rows = run_experiment(sc)
        for dim in dims:
            vals = np.array([getattr(r, f"gain_{dim}_pct") for r in rows],
                            dtype=float)
            measured[(fixed, dim)] = float(vals.mean())
    references = {("delay", "price"): 27.0,
                  ("price", "power"): 17.0,
                  ("price", "delay"): 15.0}
    notes = []
    for key, mean in measured.items():
        ref = references[key]
        where = "in" if abs(mean - ref) <= 15.0 else "off"
        notes.append(f"{key[1]} gain at fixed {key[0]}: {mean:+.2f}% "
                     f"(reference {ref:.0f}%, {where} the 15-point window)")
    elapsed = time.perf_counter() - start
    ok = all(v > 0.0 for v in measured.values())
    _report(7, "two-tier gain directions", ok,
            "; ".join(notes) + f"; {elapsed:.0f}s")
    assert ok, measured


# --- 08: robustness to movement prediction noise --------------------------------

def test_prediction_noise_degrades_throughput_gracefully():
    start = time.perf_counter()
    means = {}
    for unc in (0.0, 30.0):
        per_seed = []
        for seed in range(30):
            sc = Scenario(**{**DESK, "scenario_id": "noise"},
                          algorithm="music", uncertainty_pct=unc, seed=seed)
            rows = run_experiment(sc)
            vals = [r.throughput_pct for r in rows]
            assert all(v is not None for v in vals)
            per_seed.append(float(np.mean(vals)))
        means[unc] = float(np.mean(per_seed))
    drop = means[0.0] - means[30.0]
    elapsed = time.perf_counter() - start
    ok = drop <= 15.0
    _report(8, "robustness to prediction noise", ok,
            f"mean throughput {means[0.0]:.1f}% at 0% noise vs "
            f"{means[30.0]:.1f}% at 30%: drop {drop:.1f} pp (bound 15), "
            f"{elapsed:.0f}s")
    assert ok, means


# --- 09: seeded reproducibility down to bytes -----------------------------------

def test_same_seed_reproduces_identical_csv_bytes(tmp_path):
    cfg = dict(scenario_id="repro", grid_width=6, grid_height=6,
               local_clouds=2, public_instances=1, users=5,
               workflows_per_user=1, duration_s=120.0,
               local_function_rate=0.4, template_mix={"file_sync": 1.0},
               groups=2, uncertainty_pct=25.0, repetitions=2,
               algorithm="all", seed=13)
    blobs = []
    for run in (0, 1):
        path = tmp_path / f"run{run}.csv"
        emit_results(run_experiment(Scenario(**cfg)), "csv", str(path))
        blobs.append(path.read_bytes())
    n_rows = blobs[0].count(b"\n") - 1
    ok = blobs[0] == blobs[1] and n_rows > 0
    _report(9, "seeded byte reproducibility", ok,
            f"two fresh runs, {n_rows} rows, {len(blobs[0])} bytes, "
            + ("identical" if blobs[0] == blobs[1] else "DIFFER"))
    assert ok


# --- 10: reference transfer costs -----------------------------------------------

def test_two_megabyte_reference_costs_are_exact():
    ps = ProfileSet.defaults()

    def ctx(link, tier):
        return InvocationContext(user_cell=0, host_tier=tier, host_node=1,
                                 link=link, data_kb=2048.0, compute_ref="none")

    points = [
        ("wifi-local delay", service_delay(ctx(WIFI, LOCAL), ps), 220.0, "ms"),
        ("3g-public delay", service_delay(ctx(THREEG, PUBLIC), ps), 5128.0, "ms"),
        ("wifi-local power", service_power(ctx(WIFI, LOCAL), ps), 15435.0, "mJ"),
        ("3g-local power", service_power(ctx(THREEG, LOCAL), ps), 26156.0, "mJ"),
    ]
    wrong = [f"{name} {got} != {want}" for name, got, want, _ in points
             if got != want]
    ok = not wrong
    _report(10, "2 MB reference costs", ok,
            ", ".join(f"{name} {got:.0f} {unit}"
                      for name, got, _, unit in points)
            + (f"; wrong: {wrong}" if wrong else " (all exact)"))
    assert ok, wrong
