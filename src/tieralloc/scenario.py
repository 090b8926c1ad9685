"""Scenario schema, workflow templates, and seeded world generation.

A scenario file is flat JSON whose keys mirror the Scenario dataclass. The
deployment (grid, clouds, service catalog, cost tables) is generated once
per scenario from the master seed; the population (trajectories, requested
workflows, groups) is regenerated per repetition from derived seed streams,
so every run is reproducible and independent of which algorithms execute.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .allocation import AnnealingParams, ConstraintVector
from .errors import ScenarioError
from .mobility import (BOTH, LOCATION, MANHATTAN, RANDOM_WAYPOINT, SERVICE,
                       MobilityParams, UncertaintySpec, choice_cdf,
                       generate_trajectory, inject_uncertainty, uniform,
                       weighted_pick)
from .model import (LOCAL, PUBLIC, CloudNode, LocationMap, MobileUser,
                    Service, Trajectory, UserGroup)
from .profiles import (BILL_COMPUTE, BILL_STORAGE, BILL_STREAMING,
                       ComputeProfile, ProfileSet)
from .registry import CapacityLedger, ServiceDirectory
from .workflow import (LTW, LTWEntry, WorkflowNode, leaf, par, seq)

ALGORITHMS = ("music", "gmusic", "rsa", "greedy", "bruteforce", "all")

# master-seed stream tags, so derived streams never collide
_STRUCTURE = 0
_POPULATION = 1
_TRAJ, _TEMPLATE, _UNCERTAINTY = 0, 1, 2


@dataclass(frozen=True)
class WorkflowTemplate:
    """Named workflow shape instantiated with a drawn base data size."""

    name: str
    functions: tuple[str, ...]
    build: Callable[[float], WorkflowNode]
    kb_min: float = 1024.0
    kb_max: float = 5120.0

    def instantiate(self, rng: np.random.Generator) -> WorkflowNode:
        base = uniform(rng, self.kb_min, self.kb_max)
        return self.build(base)


def _text_recognition(base: float) -> WorkflowNode:
    return seq(par(leaf("image-filter", base), leaf("noise-cancel", base)),
               leaf("ocr", 0.6 * base),
               leaf("text-to-speech", 0.15 * base))


def _video_stream(base: float) -> WorkflowNode:
    return seq(leaf("transcode", base), leaf("stream", 0.8 * base))


def _file_sync(base: float) -> WorkflowNode:
    return seq(leaf("download", base), leaf("edit", 0.5 * base),
               leaf("upload", base))


_TEMPLATE_SHAPES: dict[str, tuple[tuple[str, ...], Callable[[float], WorkflowNode]]] = {
    "text_recognition": (("image-filter", "noise-cancel", "ocr", "text-to-speech"),
                         _text_recognition),
    "video_stream": (("transcode", "stream"), _video_stream),
    "file_sync": (("download", "edit", "upload"), _file_sync),
}

# public-cloud billing class of each function
_FUNCTION_BILLING = {
    "stream": BILL_STREAMING,
    "download": BILL_STORAGE,
    "upload": BILL_STORAGE,
}


def make_templates(names: Sequence[str], kb_min: float,
                   kb_max: float) -> list[WorkflowTemplate]:
    out = []
    for name in names:
        if name not in _TEMPLATE_SHAPES:
            raise ScenarioError(f"template_mix: unknown template {name!r}")
        functions, build = _TEMPLATE_SHAPES[name]
        out.append(WorkflowTemplate(name, functions, build, kb_min, kb_max))
    return out


# fields that count something; Scenario.validate refuses a non-integer value
_INTEGER_FIELDS = ("grid_width", "grid_height", "local_clouds",
                   "local_capacity", "public_instances", "users", "groups",
                   "workflows_per_user", "repetitions", "seed",
                   "enumeration_cap")
# fields that measure something; Scenario.validate refuses a non-number
_REAL_FIELDS = ("cell_size_m", "coverage_radius_cells", "data_kb_min",
                "data_kb_max", "device_service_rate", "local_function_rate",
                "compute_jitter", "rwp_fraction", "duration_s", "speed_min",
                "speed_max", "pause_max_s", "uncertainty_pct")


def _is_integer(v) -> bool:
    """An integer, and not a bool (JSON true/false)."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A finite number, and not a bool (JSON true/false)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) \
        and math.isfinite(v)


@dataclass
class Scenario:
    """Complete experiment description; field names are the JSON schema.

    budget_price, budget_power and budget_delay each bound every placed
    user's raw QoS, boundary inclusive. Under music, gmusic and the
    optimum a user with no plan inside the budgets is unplaced and scores
    0; greedy ignores budgets, and rsa can end on a plan that breaks one.
    enumeration_cap is the optimum's cap (see brute_force_optimal): a run
    over it has no bruteforce row, so 1 leaves the optimum out wherever a
    user has two plans."""

    scenario_id: str = "default"
    grid_width: int = 15
    grid_height: int = 15
    cell_size_m: float = 100.0
    local_clouds: int = 8
    local_capacity: int = 15
    coverage_radius_cells: float = 1.5
    public_instances: int = 2
    users: int = 20
    groups: int = 0
    workflows_per_user: int = 3
    data_kb_min: float = 1024.0
    data_kb_max: float = 5120.0
    device_service_rate: float = 0.5
    local_function_rate: float = 1.0
    compute_jitter: float = 0.4
    template_mix: dict = field(default_factory=lambda: {
        "text_recognition": 0.5, "video_stream": 0.5})
    rwp_fraction: float = 0.5
    duration_s: float = 600.0
    speed_min: float = 1.0
    speed_max: float = 10.0
    pause_max_s: float = 10.0
    uncertainty_pct: float = 0.0
    uncertainty_mode: str = BOTH
    budget_price: Optional[float] = None
    budget_power: Optional[float] = None
    budget_delay: Optional[float] = None
    algorithm: str = "music"
    repetitions: int = 15
    seed: int = 0
    fixed_dimension: Optional[str] = None
    enumeration_cap: int = 1_000_000
    profiles: dict = field(default_factory=dict)
    annealing: dict = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        def bad(name, why):
            raise ScenarioError(f"{name}: {why}")

        if not isinstance(self.scenario_id, str) or not self.scenario_id:
            bad("scenario_id", "must be a non-empty string")
        for name in _INTEGER_FIELDS:
            if not _is_integer(getattr(self, name)):
                bad(name, "must be an integer")
        for name in _REAL_FIELDS:
            if not _is_real(getattr(self, name)):
                bad(name, "must be a finite number")
        if self.grid_width < 1 or self.grid_height < 1:
            bad("grid_width/grid_height", "must be >= 1")
        if self.cell_size_m <= 0:
            bad("cell_size_m", "must be positive")
        if self.local_clouds < 0:
            bad("local_clouds", "must be >= 0")
        if self.local_clouds > self.grid_width * self.grid_height:
            bad("local_clouds", "more clouds than grid cells")
        if self.local_capacity < 0:
            bad("local_capacity", "must be >= 0")
        if self.coverage_radius_cells < 0:
            bad("coverage_radius_cells", "must be >= 0")
        if self.public_instances < 0:
            bad("public_instances", "must be >= 0")
        if self.local_clouds + self.public_instances < 1:
            bad("local_clouds/public_instances", "need at least one cloud")
        if self.public_instances == 0 and self.local_capacity == 0 \
                and self.device_service_rate < 1.0:
            bad("public_instances/local_capacity",
                "both 0 leave a function missing from a device without a "
                "host (unless device_service_rate is 1)")
        if self.users < 1:
            bad("users", "must be >= 1")
        if not 0 <= self.groups <= self.users:
            bad("groups", "must lie in [0, users]")
        if self.workflows_per_user < 1:
            bad("workflows_per_user", "must be >= 1")
        if not 0 < self.data_kb_min <= self.data_kb_max:
            bad("data_kb_min/data_kb_max", "need 0 < min <= max")
        for name in ("device_service_rate", "local_function_rate", "rwp_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                bad(name, "must lie in [0, 1]")
        if not 0.0 <= self.compute_jitter < 1.0:
            bad("compute_jitter", "must lie in [0, 1)")
        if not isinstance(self.template_mix, dict) or not self.template_mix:
            bad("template_mix", "must be a non-empty name -> weight mapping")
        for name, w in self.template_mix.items():
            if name not in _TEMPLATE_SHAPES:
                bad("template_mix", f"unknown template {name!r}")
            if not _is_real(w) or w < 0:
                bad("template_mix",
                    f"weight for {name!r} must be a finite number >= 0")
        if sum(self.template_mix.values()) <= 0:
            bad("template_mix", "weights must sum to > 0")
        if self.duration_s <= 0:
            bad("duration_s", "must be positive")
        if not 0 < self.speed_min <= self.speed_max:
            bad("speed_min/speed_max", "need 0 < min <= max")
        if self.pause_max_s < 0:
            bad("pause_max_s", "must be >= 0")
        if not 0.0 <= self.uncertainty_pct <= 100.0:
            bad("uncertainty_pct", "must lie in [0, 100]")
        if self.uncertainty_mode not in (LOCATION, SERVICE, BOTH):
            bad("uncertainty_mode", f"unknown mode {self.uncertainty_mode!r}")
        for name in ("budget_price", "budget_power", "budget_delay"):
            v = getattr(self, name)
            if v is not None and (not _is_real(v) or v <= 0):
                bad(name, "must be positive or null")
        if self.algorithm not in ALGORITHMS:
            bad("algorithm", f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "gmusic" and self.groups == 0:
            bad("algorithm", "gmusic needs groups > 0")
        if self.repetitions < 1:
            bad("repetitions", "must be >= 1")
        if self.seed < 0:
            bad("seed", "must be >= 0")
        if self.fixed_dimension is not None and \
                self.fixed_dimension not in ("price", "power", "delay"):
            bad("fixed_dimension", "must be price, power, delay, or null")
        if self.enumeration_cap < 1:
            bad("enumeration_cap", "must be >= 1")
        if not isinstance(self.profiles, dict):
            bad("profiles", "must be a table-override mapping")
        try:
            ProfileSet.from_dict(self.profiles)
        except (KeyError, ValueError) as exc:
            bad("profiles", exc.args[0])
        if not isinstance(self.annealing, dict):
            bad("annealing", "must be a parameter mapping")
        known = {"max_iter", "max_expansions", "radius_start_cells",
                 "radius_step_cells"}
        for key, v in self.annealing.items():
            if key not in known:
                bad("annealing", f"unknown parameter {key!r}")
            if key.startswith("max_"):
                if not _is_integer(v):
                    bad("annealing", f"{key} must be an integer")
            elif not _is_real(v):
                bad("annealing", f"{key} must be a finite number")
        try:
            self.annealing_params()
        except ValueError as exc:
            bad("annealing", str(exc))

    def constraints(self) -> ConstraintVector:
        def v(x):
            return math.inf if x is None else float(x)
        return ConstraintVector(price=v(self.budget_price),
                                power=v(self.budget_power),
                                delay=v(self.budget_delay))

    def annealing_params(self) -> AnnealingParams:
        a = dict(self.annealing)
        start = a.pop("radius_start_cells", 2.0) * self.cell_size_m
        step = a.pop("radius_step_cells", 1.0) * self.cell_size_m
        return AnnealingParams(radius_start_m=start, radius_step_m=step, **a)

    def templates(self) -> list[WorkflowTemplate]:
        return make_templates(sorted(self.template_mix), self.data_kb_min,
                              self.data_kb_max)

    def algorithm_list(self) -> list[str]:
        if self.algorithm != "all":
            return [self.algorithm]
        algs = ["music"]
        if self.groups > 0:
            algs.append("gmusic")
        algs += ["rsa", "greedy", "bruteforce"]
        return algs


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario JSON file.

    Unknown keys and malformed values raise ScenarioError naming the field.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must hold a JSON object")
    names = {f.name for f in fields(Scenario)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ScenarioError(f"unknown field {unknown[0]!r}")
    try:
        return Scenario(**data)
    except TypeError as exc:
        raise ScenarioError(f"bad scenario value: {exc}") from exc


# --- seeded generation -----------------------------------------------------------

def derive_rng(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def derive_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


@dataclass
class Deployment:
    """Structures fixed for a scenario across repetitions."""

    grid: LocationMap
    clouds: dict[int, CloudNode]
    directory: ServiceDirectory
    profiles: ProfileSet
    templates: list[WorkflowTemplate]

    def fresh_ledger(self) -> CapacityLedger:
        return CapacityLedger.for_clouds(self.clouds)


def wifi_association(centers: np.ndarray, cloud_cells: Sequence[int],
                     radius: float) -> dict[int, int]:
    """Cell id -> index into cloud_cells of the access point a cell uses:
    the nearest one within radius (+ 1e-9) of its center, the lowest index
    on ties; cells no access point reaches are left out.

    One np.hypot over the (cells x access points) center differences, and
    argmin per cell, which takes the first of equal distances.
    """
    if not len(cloud_cells):
        return {}
    diff = centers[:, None, :] - centers[list(cloud_cells)][None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    reached = dist <= radius + 1e-9
    nearest = np.where(reached, dist, np.inf).argmin(axis=1)
    covered = np.flatnonzero(reached.any(axis=1))
    return dict(zip(covered.tolist(), nearest[covered].tolist()))


def build_deployment(sc: Scenario) -> Deployment:
    """Generate grid, clouds, coverage, catalog, and cost tables.

    Raises ScenarioError when a function that no cloud hosts is missing
    from some user's device: that user's workflows could not be placed.
    """
    rng = derive_rng(sc.seed, _STRUCTURE)
    n_cells = sc.grid_width * sc.grid_height
    base_grid = LocationMap(sc.grid_width, sc.grid_height, sc.cell_size_m)

    cloud_cells = sorted(int(c) for c in
                         rng.choice(n_cells, size=sc.local_clouds, replace=False))
    clouds: dict[int, CloudNode] = {}
    radius = sc.coverage_radius_cells * sc.cell_size_m
    for i, cell in enumerate(cloud_cells):
        clouds[i] = CloudNode(id=i, tier=LOCAL, location=cell,
                              capacity=sc.local_capacity,
                              coverage_radius_m=radius)
    for j in range(sc.public_instances):
        clouds[sc.local_clouds + j] = CloudNode(id=sc.local_clouds + j, tier=PUBLIC)

    grid = base_grid.with_wifi(wifi_association(base_grid.centers(),
                                                cloud_cells, radius))

    profiles = ProfileSet.from_dict(sc.profiles) if sc.profiles \
        else ProfileSet.defaults()
    templates = sc.templates()
    functions = sorted({fn for t in templates for fn in t.functions})
    directory = ServiceDirectory(grid, clouds)

    def jitter() -> float:
        return uniform(rng, 1.0 - sc.compute_jitter, 1.0 + sc.compute_jitter)

    sid = 0

    def deploy(fn: str, mult: float, *, host_cloud=None, host_user=None,
               base: str) -> None:
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

    return Deployment(grid=grid, clouds=clouds, directory=directory,
                      profiles=profiles, templates=templates)


@dataclass
class Population:
    """Per-repetition world: users, their true and predicted workflows."""

    users: dict[int, MobileUser]
    true_ltws: dict[int, LTW]
    predicted_ltws: dict[int, LTW]
    groups: Optional[list[UserGroup]]


def _pick_entries(traj: Trajectory, k: int) -> list[int]:
    """Evenly spaced trajectory entry indices (all when fewer than k): the
    rounded points of np.linspace(0, n - 1, k), in its arithmetic (i *
    step, the last point n - 1) on plain floats."""
    n = len(traj.entries)
    if n <= k:
        return list(range(n))
    if k == 1:
        return [0]
    step = (n - 1) / (k - 1)
    return sorted({round(i * step) for i in range(k - 1)} | {n - 1})


def build_population(sc: Scenario, dep: Deployment, rep: int) -> Population:
    """Generate trajectories, workflows, and groups for one repetition."""
    templates = dep.templates
    names = sorted(sc.template_mix)
    weights = np.array([sc.template_mix[n] for n in names], dtype=float)
    template_cdf = choice_cdf(weights / weights.sum())
    by_name = {t.name: t for t in templates}

    users: dict[int, MobileUser] = {}
    true_ltws: dict[int, LTW] = {}
    predicted: dict[int, LTW] = {}
    n_rwp = int(round(sc.rwp_fraction * sc.users))
    for uid in range(sc.users):
        model = RANDOM_WAYPOINT if uid < n_rwp else MANHATTAN
        params = MobilityParams(model=model, duration_s=sc.duration_s,
                                speed_min=sc.speed_min, speed_max=sc.speed_max,
                                pause_max_s=sc.pause_max_s,
                                seed=derive_seed(sc.seed, _POPULATION, rep, _TRAJ, uid))
        traj = generate_trajectory(params, dep.grid)
        wf_rng = derive_rng(sc.seed, _POPULATION, rep, _TEMPLATE, uid)
        entries = []
        for idx in _pick_entries(traj, sc.workflows_per_user):
            te = traj.entries[idx]
            tpl = by_name[names[weighted_pick(template_cdf, wf_rng)]]
            entries.append(LTWEntry(cell_id=te.cell_id, window_s=te.dwell_s,
                                    workflow=tpl.instantiate(wf_rng),
                                    template=tpl.name))
        ltw = LTW(tuple(entries))
        users[uid] = MobileUser(id=uid, trajectory=traj)
        true_ltws[uid] = ltw
        if sc.uncertainty_pct > 0:
            spec = UncertaintySpec(rate=sc.uncertainty_pct / 100.0,
                                   mode=sc.uncertainty_mode)
            unc_rng = derive_rng(sc.seed, _POPULATION, rep, _UNCERTAINTY, uid)
            predicted[uid] = inject_uncertainty(ltw, spec, dep.grid,
                                                templates, unc_rng)
        else:
            predicted[uid] = ltw

    groups: Optional[list[UserGroup]] = None
    if sc.groups > 0:
        chunks = np.array_split(np.arange(sc.users), sc.groups)
        groups = [UserGroup(id=g, members=frozenset(int(u) for u in chunk))
                  for g, chunk in enumerate(chunks)]
    return Population(users=users, true_ltws=true_ltws,
                      predicted_ltws=predicted, groups=groups)
