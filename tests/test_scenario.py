"""Scenario schema validation, seeded world generation, reproducibility."""

import json
import math

import numpy as np
import pytest

from tieralloc import (LOCAL, PUBLIC, LocationMap, ProfileSet, Scenario,
                       ScenarioError, build_deployment, build_population,
                       clouds_without_room, derive_rng, derive_seed,
                       load_scenario, make_templates, occurrences,
                       run_experiment)
from tieralloc.mobility import uniform
from tieralloc.model import CloudNode, Service
from tieralloc.profiles import BILL_COMPUTE, ComputeProfile
from tieralloc.registry import ServiceDirectory
from tieralloc.scenario import (_FUNCTION_BILLING, _STRUCTURE,
                                wifi_association)


def _collect_functions(node):
    return [o.fn.function_id for o in occurrences(node)]


# --- schema validation ----------------------------------------------------------------

def test_default_scenario_is_valid():
    sc = Scenario()
    assert sc.users == 20
    assert sc.algorithm == "music"
    assert not sc.constraints().bounded()


@pytest.mark.parametrize("field,value,named", [
    ("users", 0, "users"),
    ("groups", 25, "groups"),
    ("workflows_per_user", 0, "workflows_per_user"),
    ("cell_size_m", 0.0, "cell_size_m"),
    ("local_clouds", 500, "local_clouds"),
    ("local_capacity", -1, "local_capacity"),
    ("device_service_rate", 1.2, "device_service_rate"),
    ("compute_jitter", 1.0, "compute_jitter"),
    ("template_mix", {"teleport": 1.0}, "template_mix"),
    ("template_mix", {}, "template_mix"),
    ("duration_s", -5.0, "duration_s"),
    ("uncertainty_pct", 150.0, "uncertainty_pct"),
    ("uncertainty_mode", "wishful", "uncertainty_mode"),
    ("budget_price", -2.0, "budget_price"),
    ("algorithm", "quantum", "algorithm"),
    ("repetitions", 0, "repetitions"),
    ("fixed_dimension", "cost", "fixed_dimension"),
    ("enumeration_cap", 0, "enumeration_cap"),
    ("annealing", {"warp": 1}, "annealing"),
    ("annealing", {"t0": 0.1}, "annealing"),
    ("annealing", {"max_iter": -1}, "annealing: need max_iter >= 0"),
    ("annealing", {"max_expansions": 0}, "annealing: need max_iter >= 0"),
    ("annealing", {"radius_start_cells": -1}, "annealing: radii must be >= 0"),
    ("annealing", {"radius_step_cells": "1"}, "annealing: radius_step_cells"),
    ("annealing", {"max_iter": 2.5}, "annealing: max_iter must be an integer"),
    ("annealing", {"max_expansions": 3.0}, "annealing: max_expansions"),
    ("grid_width", 10.0, "grid_width"),
    ("grid_height", 10.5, "grid_height"),
    ("local_clouds", 2.0, "local_clouds"),
    ("local_capacity", 1.5, "local_capacity"),
    ("public_instances", 1.0, "public_instances"),
    ("users", 2.5, "users"),
    ("groups", 1.5, "groups"),
    ("workflows_per_user", 1.5, "workflows_per_user"),
    ("repetitions", 1.5, "repetitions"),
    ("enumeration_cap", 1e6, "enumeration_cap"),
    ("seed", -1, "seed: must be >= 0"),
    ("seed", 1.5, "seed: must be an integer"),
    ("seed", "3", "seed: must be an integer"),
    ("cell_size_m", "100", "cell_size_m: must be a finite number"),
    ("uncertainty_pct", "30", "uncertainty_pct: must be a finite number"),
    ("rwp_fraction", None, "rwp_fraction: must be a finite number"),
    ("duration_s", True, "duration_s: must be a finite number"),
    ("data_kb_max", [4096], "data_kb_max: must be a finite number"),
    ("budget_price", True, "budget_price"),
    ("budget_delay", "5", "budget_delay"),
    # several fields at once: value holds them all
    (None, {"public_instances": 0, "local_capacity": 0},
     "public_instances/local_capacity"),
    ("users", True, "users: must be an integer"),
    ("cell_size_m", math.nan, "cell_size_m: must be a finite number"),
    ("duration_s", math.inf, "duration_s: must be a finite number"),
    ("budget_power", math.nan, "budget_power"),
    ("template_mix", {"file_sync": True}, "template_mix: weight for 'file_sync'"),
    ("template_mix", {"file_sync": math.nan},
     "template_mix: weight for 'file_sync'"),
    ("template_mix", {"file_sync": 1.0, "video_stream": math.inf},
     "template_mix: weight for 'video_stream'"),
    ("annealing", {"radius_start_cells": True},
     "annealing: radius_start_cells must be a finite number"),
    ("annealing", {"radius_start_cells": math.nan},
     "annealing: radius_start_cells must be a finite number"),
    ("annealing", {"radius_step_cells": math.inf},
     "annealing: radius_step_cells must be a finite number"),
    ("annealing", {"max_iter": True}, "annealing: max_iter must be an integer"),
    ("profiles", {"links": {"wifi_local": {"delay": 1}}},
     "profiles: links.wifi_local: unknown field 'delay'"),
    ("profiles", {"links": {"bogus": {}}},
     "profiles: unknown link profile 'bogus'"),
    ("profiles", {"links": []}, "profiles: links must be a mapping"),
    ("profiles", {"price": {"transfer_usd_per_gb": "0.1"}},
     "profiles: price.transfer_usd_per_gb must be a finite number"),
    ("profiles", {"compute": {"local": {"billing": "gold"}}},
     "profiles: compute.local.billing: unknown billing class 'gold'"),
    ("profiles", {"price": {"cellular_usd_per_gb": -5}},
     "profiles: price.cellular_usd_per_gb must be a finite number >= 0"),
    ("profiles", {"link": {"wifi_local": {"delay_ms_per_100kb": 1.0}}},
     "profiles: unknown section 'link'"),
    ("profiles", {"intercloud": {"delay_ms_per_100kb": math.nan}},
     "profiles: intercloud.delay_ms_per_100kb must be a finite number"),
    ("profiles", {"compute": {"svc3": {"delay_ms_per_100kb": 1.0}}},
     "profiles: unknown compute profile 'svc3'"),
    ("profiles", {"compute": {"device": {"energy_mj_per_100kb": True}}},
     "profiles: compute.device.energy_mj_per_100kb must be a finite number"),
    ("profiles", {"intercloud": 5},
     "profiles: intercloud must be a field mapping"),
    ("scenario_id", None, "scenario_id: must be a non-empty string"),
    ("scenario_id", ["a"], "scenario_id: must be a non-empty string"),
    ("scenario_id", "", "scenario_id: must be a non-empty string"),
])
def test_validation_errors_name_the_offending_field(field, value, named):
    with pytest.raises(ScenarioError, match=named):
        Scenario(**(value if field is None else {field: value}))


def test_integer_fields_take_numpy_integers():
    sc = Scenario(users=np.int64(3), groups=np.int32(1),
                  repetitions=np.int64(1), enumeration_cap=np.int64(10),
                  seed=np.int64(3),
                  annealing={"max_iter": np.int64(2),
                             "max_expansions": np.int16(4)})
    assert sc.annealing_params().max_iter == 2
    assert derive_seed(sc.seed, 1) == derive_seed(3, 1)
    assert Scenario(cell_size_m=np.float64(50.0), budget_price=np.int64(2),
                    seed=0).constraints().price == 2.0


def test_devices_alone_may_host_when_no_cloud_has_room():
    rows = run_experiment(_small(public_instances=0, local_capacity=0,
                                 device_service_rate=1.0, algorithm="all",
                                 repetitions=1))
    assert [r.algorithm for r in rows] == ["music", "rsa", "greedy",
                                           "bruteforce"]
    for row in rows:  # every user placed, on its own device
        assert row.throughput_pct is not None and row.mean_price_usd == 0.0


def test_grouped_annealing_requires_groups():
    with pytest.raises(ScenarioError, match="algorithm"):
        Scenario(algorithm="gmusic", groups=0)
    Scenario(algorithm="gmusic", groups=4)  # fine


def test_budgets_become_a_constraint_vector():
    sc = Scenario(budget_price=2.5, budget_delay=900.0)
    cv = sc.constraints()
    assert cv.price == 2.5
    assert cv.power == math.inf
    assert cv.delay == 900.0


def test_annealing_knobs_scale_radii_by_cell_size():
    sc = Scenario(cell_size_m=100.0)
    p = sc.annealing_params()
    assert (p.radius_start_m, p.radius_step_m) == (200.0, 100.0)
    assert (p.max_iter, p.max_expansions) == (20, 15)
    sc = Scenario(cell_size_m=50.0,
                  annealing={"radius_start_cells": 8.0, "max_iter": 5})
    p = sc.annealing_params()
    assert (p.radius_start_m, p.max_iter) == (400.0, 5)


def test_algorithm_list_expands_all():
    assert Scenario(algorithm="greedy").algorithm_list() == ["greedy"]
    assert Scenario(algorithm="all").algorithm_list() == \
        ["music", "rsa", "greedy", "bruteforce"]
    assert Scenario(algorithm="all", groups=4).algorithm_list() == \
        ["music", "gmusic", "rsa", "greedy", "bruteforce"]


# --- scenario files --------------------------------------------------------------------

def test_scenario_file_round_trip(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"scenario_id": "demo", "users": 5,
                                "template_mix": {"file_sync": 1.0}}))
    sc = load_scenario(path)
    assert (sc.scenario_id, sc.users) == ("demo", 5)
    assert sc.groups == 0  # unset fields keep their defaults


def test_scenario_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"userz": 5}')
    with pytest.raises(ScenarioError, match="userz"):
        load_scenario(bad)
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(ScenarioError, match="object"):
        load_scenario(bad)
    with pytest.raises(ScenarioError, match="read"):
        load_scenario(tmp_path / "absent.json")
    bad.write_text('{"users": "many"}')
    with pytest.raises(ScenarioError):
        load_scenario(bad)


# --- seeded streams ---------------------------------------------------------------------

def test_derived_streams_are_reproducible_and_distinct():
    a = derive_rng(7, 0).random(4)
    b = derive_rng(7, 0).random(4)
    c = derive_rng(7, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)


# --- templates ---------------------------------------------------------------------------

def test_templates_instantiate_their_declared_functions():
    templates = make_templates(["file_sync", "text_recognition", "video_stream"],
                               1000.0, 2000.0)
    by_name = {t.name: t for t in templates}
    rng = np.random.default_rng(0)
    assert _collect_functions(by_name["file_sync"].instantiate(rng)) == \
        ["download", "edit", "upload"]
    assert _collect_functions(by_name["text_recognition"].instantiate(rng)) == \
        ["image-filter", "noise-cancel", "ocr", "text-to-speech"]
    assert _collect_functions(by_name["video_stream"].instantiate(rng)) == \
        ["transcode", "stream"]
    with pytest.raises(ScenarioError):
        make_templates(["warp_drive"], 1000.0, 2000.0)


# --- deployment generation ------------------------------------------------------------------

def _small(**kw):
    defaults = dict(scenario_id="unit", grid_width=6, grid_height=6,
                    local_clouds=3, public_instances=2, users=4,
                    workflows_per_user=1, duration_s=120.0,
                    template_mix={"file_sync": 1.0}, seed=11)
    defaults.update(kw)
    return Scenario(**defaults)


def test_deployment_structure_matches_the_scenario():
    sc = _small()
    dep = build_deployment(sc)
    locals_ = [c for c in dep.clouds.values() if c.tier == LOCAL]
    publics = [c for c in dep.clouds.values() if c.tier == PUBLIC]
    assert len(locals_) == 3 and len(publics) == 2
    assert len({c.location for c in locals_}) == 3  # distinct cells
    for c in locals_:
        assert c.capacity == sc.local_capacity
        assert c.coverage_radius_m == sc.coverage_radius_cells * sc.cell_size_m
    # with the default rates every cloud hosts every template function
    functions = {"download", "edit", "upload"}
    for cloud in dep.clouds.values():
        hosted = {s.function_id for s in dep.directory.services.values()
                  if s.host_cloud == cloud.id}
        assert hosted == functions


def test_wifi_coverage_maps_cells_to_the_nearest_access_point():
    sc = _small(coverage_radius_cells=1.5)
    dep = build_deployment(sc)
    centers = dep.grid.centers()
    radius = sc.coverage_radius_cells * sc.cell_size_m
    ap = {cid: dep.grid.cell(cloud.location).center
          for cid, cloud in dep.clouds.items() if cloud.tier == LOCAL}
    for cell in dep.grid.cells:
        dists = {cid: math.dist(cell.center, p) for cid, p in ap.items()}
        reachable = {cid: d for cid, d in dists.items() if d <= radius + 1e-9}
        if not reachable:
            assert cell.wifi_covered_by is None
        else:
            best = min(reachable, key=lambda c: (reachable[c], c))
            assert cell.wifi_covered_by == best


def _reference_wifi(centers, cloud_cells, radius):
    """build_deployment's association loop before it was vectorized: one
    np.hypot per (cell, access point), the strictly nearer one wins."""
    wifi = {}
    for cid in range(len(centers)):
        best, best_d = None, math.inf
        for i, cell in enumerate(cloud_cells):
            d = float(np.hypot(*(centers[cid] - centers[cell])))
            if d <= radius + 1e-9 and d < best_d:
                best, best_d = i, d
        if best is not None:
            wifi[cid] = best
    return wifi


def test_wifi_association_equals_the_per_pair_loop():
    rng = np.random.default_rng(17)
    ties = 0
    for k in range(100):
        width, height = int(rng.integers(1, 31)), int(rng.integers(1, 21))
        if k < 4:
            width, height = ((1, 5), (30, 20), (5, 1), (7, 7))[k]
        cell_size = float(rng.choice([1.0, 33.3, 50.0, 100.0]))
        grid = LocationMap(width, height, cell_size)
        n = width * height
        n_clouds = 0 if k % 10 == 0 else int(rng.integers(1, min(n, 12) + 1))
        cloud_cells = sorted(rng.choice(n, size=n_clouds,
                                        replace=False).tolist())
        radius = 0.0 if k % 7 == 0 else float(rng.uniform(0.0, 3.7))
        radius *= cell_size
        centers = grid.centers()
        got = wifi_association(centers, cloud_cells, radius)
        assert got == _reference_wifi(centers, cloud_cells, radius)
        assert list(got) == sorted(got)
        assert all(type(c) is int and type(i) is int for c, i in got.items())
        # cells halfway between two access points: the lower index wins
        for cell, i in got.items():
            d = [math.dist(centers[cell], centers[c]) for c in cloud_cells]
            ties += d.count(d[i]) > 1
    assert ties > 0
    # two access points at equal distance from the middle cell of a strip
    strip = LocationMap(3, 1, 10.0)
    assert wifi_association(strip.centers(), [2, 0], 10.0) == \
        {0: 1, 1: 0, 2: 0}
    assert wifi_association(strip.centers(), [], 10.0) == {}
    assert wifi_association(strip.centers(), [1], 0.0) == {1: 0}


def _scalar_deployment(sc):
    """The deployment loop as it was before the block draw: a base map and
    its WiFi copy, one scalar rng.random call per draw, jitter through
    mobility.uniform. Returns (cell centers, WiFi coverage, clouds,
    services, hosts, {compute ref: profile}), or raises its ScenarioError."""
    rng = derive_rng(sc.seed, _STRUCTURE)
    n_cells = sc.grid_width * sc.grid_height
    centers = [((col + 0.5) * sc.cell_size_m, (row + 0.5) * sc.cell_size_m)
               for row in range(sc.grid_height) for col in range(sc.grid_width)]
    cloud_cells = sorted(int(c) for c in
                         rng.choice(n_cells, size=sc.local_clouds, replace=False))
    clouds = {}
    radius = sc.coverage_radius_cells * sc.cell_size_m
    for i, cell in enumerate(cloud_cells):
        clouds[i] = CloudNode(id=i, tier=LOCAL, location=cell,
                              capacity=sc.local_capacity,
                              coverage_radius_m=radius)
    for j in range(sc.public_instances):
        clouds[sc.local_clouds + j] = CloudNode(id=sc.local_clouds + j, tier=PUBLIC)
    wifi = wifi_association(np.array(centers, dtype=float), cloud_cells, radius)
    grid = LocationMap(sc.grid_width, sc.grid_height, sc.cell_size_m, wifi)
    profiles = ProfileSet.defaults()
    functions = sorted({fn for t in sc.templates() for fn in t.functions})
    directory = ServiceDirectory(grid, clouds)

    def jitter():
        return uniform(rng, 1.0 - sc.compute_jitter, 1.0 + sc.compute_jitter)

    sid = 0

    def deploy(fn, mult, *, host_cloud=None, host_user=None, base):
        nonlocal sid
        ref = f"svc{sid}"
        tpl = profiles.compute_profile(base)
        profiles.compute[ref] = ComputeProfile(
            delay_ms_per_100kb=tpl.delay_ms_per_100kb * mult,
            energy_mj_per_100kb=tpl.energy_mj_per_100kb * mult,
            billing=_FUNCTION_BILLING.get(fn, BILL_COMPUTE))
        directory.insert(Service(id=sid, function_id=fn, host_cloud=host_cloud,
                                 host_user=host_user, compute_ref=ref))
        sid += 1

    for cid in range(sc.local_clouds):
        for fn in functions:
            hosted = sc.local_function_rate >= 1.0 \
                or rng.random() < sc.local_function_rate
            mult = jitter()
            if hosted:
                deploy(fn, mult, host_cloud=cid, base="local")
    for j in range(sc.public_instances):
        for fn in functions:
            deploy(fn, jitter(), host_cloud=sc.local_clouds + j, base="public")
    hostless = {fn for fn in functions if not directory.cloud_services_for(fn)}
    for uid in range(sc.users):
        for fn in functions:
            owns = rng.random() < sc.device_service_rate
            mult = jitter()
            if owns:
                deploy(fn, mult, host_user=uid, base="device")
            elif fn in hostless:
                raise ScenarioError(
                    f"public_instances/local_function_rate: no cloud hosts "
                    f"{fn!r} (public_instances {sc.public_instances}, "
                    f"local_function_rate {sc.local_function_rate}) and user "
                    f"{uid} has no device service for it")
    return (centers, [c.wifi_covered_by for c in grid.cells], clouds,
            directory.services, directory.hosts,
            {s.compute_ref: profiles.compute[s.compute_ref]
             for s in directory.services.values()})


def _deployment_view(dep):
    return ([c.center for c in dep.grid.cells],
            [c.wifi_covered_by for c in dep.grid.cells], dep.clouds,
            dep.directory.services, dep.directory.hosts,
            {s.compute_ref: dep.profiles.compute[s.compute_ref]
             for s in dep.directory.services.values()})


def test_block_drawn_deployment_equals_the_scalar_draw_loop():
    rng = np.random.default_rng(30)
    names = ("file_sync", "text_recognition", "video_stream")
    outcomes = {"built": 0, "refused": 0, "two draws": 0, "no users": 0}
    for case in range(240):
        width, height = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        public = int(rng.integers(0, 3))
        local = int(rng.integers(1 if public == 0 else 0,
                                 min(width * height, 6) + 1))
        mix = [n for n in names if rng.random() < 0.6] or [names[case % 3]]
        sc = Scenario(
            scenario_id="draws", grid_width=width, grid_height=height,
            cell_size_m=float(rng.choice([10.0, 33.3, 100.0])),
            local_clouds=local, public_instances=public,
            coverage_radius_cells=float(rng.choice([0.0, 1.5, 2.7])),
            users=max(1, int(rng.integers(0, 31))),
            local_function_rate=float(rng.choice([0.0, 0.4, 1.0])),
            device_service_rate=float(rng.choice([0.0, 0.5, 1.0])),
            compute_jitter=float(rng.choice([0.0, 0.1, 0.3])),
            template_mix={n: 1.0 for n in mix},
            seed=int(rng.integers(0, 2**31)))
        if case % 10 == 0:
            # validation asks for a user, but the catalog loop takes none
            sc.users = 0
            outcomes["no users"] += 1
        outcomes["two draws"] += sc.local_clouds > 0 \
            and sc.local_function_rate < 1.0
        try:
            want = _scalar_deployment(sc)
        except ScenarioError as exc:
            with pytest.raises(ScenarioError) as got:
                build_deployment(sc)
            assert got.value.args == exc.args, case
            outcomes["refused"] += 1
            continue
        assert _deployment_view(build_deployment(sc)) == want, case
        outcomes["built"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_deployment_is_seed_deterministic():
    a = build_deployment(_small())
    b = build_deployment(_small())
    assert {cid: c.location for cid, c in a.clouds.items()} == \
        {cid: c.location for cid, c in b.clouds.items()}
    assert set(a.directory.services) == set(b.directory.services)
    for sid in a.directory.services:
        sa, sb = a.directory.service(sid), b.directory.service(sid)
        assert (sa.function_id, sa.host_cloud, sa.host_user) == \
            (sb.function_id, sb.host_cloud, sb.host_user)
    assert a.profiles.to_dict() == b.profiles.to_dict()


def test_zero_local_capacity_keeps_the_catalog_and_closes_every_local(tmp_path):
    """Public-only is local capacity 0: the deployment keeps every service
    and cost table, and the room rule closes every local cloud."""
    full = build_deployment(_small())
    closed = build_deployment(_small(local_capacity=0))
    assert closed.directory.hosts == full.directory.hosts
    assert closed.profiles.to_dict() == full.profiles.to_dict()
    locals_ = {cid for cid, c in closed.clouds.items() if c.tier == LOCAL}
    assert locals_ and all(closed.clouds[c].capacity == 0 for c in locals_)
    assert clouds_without_room(closed.fresh_ledger()) == locals_
    assert clouds_without_room(full.fresh_ledger()) == frozenset()
    # the stripping flag is gone: a file that sets it names it as unknown
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"public_only": True}))
    with pytest.raises(ScenarioError, match="unknown field 'public_only'"):
        load_scenario(path)


def test_service_rates_control_catalog_composition():
    none = build_deployment(_small(device_service_rate=0.0))
    assert all(s.host_user is None for s in none.directory.services.values())
    every = build_deployment(_small(device_service_rate=1.0))
    for uid in range(4):
        for fn in ("download", "edit", "upload"):
            assert every.directory.device_services_for(uid, fn)
    bare = build_deployment(_small(local_function_rate=0.0))
    for svc in bare.directory.services.values():
        if svc.host_cloud is not None:
            assert bare.clouds[svc.host_cloud].tier == PUBLIC


def test_profile_overrides_reach_the_deployment():
    sc = _small(profiles={"intercloud": {"delay_ms_per_100kb": 400.0}})
    dep = build_deployment(sc)
    assert dep.profiles.intercloud.delay_ms_per_100kb == 400.0
    # every default table, in every section, is an accepted override
    full = ProfileSet.defaults().to_dict()
    assert build_deployment(_small(profiles=full)).profiles == \
        build_deployment(_small()).profiles


# --- population generation --------------------------------------------------------------------

def test_population_is_reproducible_and_varies_by_repetition():
    sc = _small()
    dep = build_deployment(sc)
    a = build_population(sc, dep, 0)
    b = build_population(sc, dep, 0)
    c = build_population(sc, dep, 1)
    assert sorted(a.users) == list(range(4))
    for uid in a.users:
        assert a.users[uid].trajectory == b.users[uid].trajectory
        assert a.true_ltws[uid] == b.true_ltws[uid]
    assert any(a.users[uid].trajectory != c.users[uid].trajectory
               for uid in a.users)


def test_population_workflow_counts_and_windows():
    sc = _small(workflows_per_user=2, users=3)
    dep = build_deployment(sc)
    pop = build_population(sc, dep, 0)
    for uid, ltw in pop.true_ltws.items():
        assert 1 <= len(ltw.entries) <= 2
        traj_cells = set(pop.users[uid].trajectory.cells)
        for entry in ltw.entries:
            assert entry.cell_id in traj_cells
            assert entry.template == "file_sync"


def test_picked_entries_equal_the_rounded_linspace():
    from types import SimpleNamespace

    from tieralloc.scenario import _pick_entries
    for n in range(3000):
        traj = SimpleNamespace(cells=[None] * n)
        for k in range(1, 12):
            expect = (list(range(n)) if n <= k else
                      sorted({int(round(x))
                              for x in np.linspace(0, n - 1, k)}))
            assert _pick_entries(traj, k) == expect, (n, k)


def test_certain_predictions_share_the_true_workflow_object():
    sc = _small(uncertainty_pct=0.0)
    dep = build_deployment(sc)
    pop = build_population(sc, dep, 0)
    for uid in pop.users:
        assert pop.predicted_ltws[uid] is pop.true_ltws[uid]


def test_uncertain_predictions_diverge_from_the_truth():
    sc = _small(uncertainty_pct=100.0, users=6)
    dep = build_deployment(sc)
    pop = build_population(sc, dep, 0)
    assert all(pop.predicted_ltws[uid] is not pop.true_ltws[uid]
               for uid in pop.users)
    changed = sum(pop.predicted_ltws[uid] != pop.true_ltws[uid]
                  for uid in pop.users)
    assert changed == 6


def test_groups_partition_the_users():
    sc = _small(users=10, groups=3)
    dep = build_deployment(sc)
    pop = build_population(sc, dep, 0)
    assert len(pop.groups) == 3
    seen = set()
    for g in pop.groups:
        assert not (seen & g.members)
        seen |= g.members
    assert seen == set(range(10))
    assert build_population(_small(), dep, 0).groups is None
