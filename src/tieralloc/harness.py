"""Experiment harness: runs scenarios end to end and emits result tables.

One run builds a deployment, then for every repetition draws a fresh
population, allocates it with each requested algorithm, scores the plans on
the users' true workflows, and collects one metrics row per algorithm and
repetition. Rows serialize to a fixed-schema CSV or an aligned text table.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .allocation import (AllocationResult, ConstraintVector, CostMemo,
                         UserInstance, allocate_greedy, allocate_music,
                         allocate_rsa, brute_force_optimal,
                         clouds_without_room, fleet_utility, with_room)
from .errors import (ScenarioError, TooLargeForEnumeration, UndefinedGain,
                     UndefinedThroughput)
from .registry import CapacityLedger
from .scenario import (Deployment, Population, Scenario, build_deployment,
                       build_population, derive_rng)
from .workflow import DIMS, QoSTriple

# RNG stream tags: phase 2 draws drive allocation, phase 3 the public-only
# baseline pass of a fixed-dimension study; each algorithm owns a fixed lane
# so adding one to a run never shifts another's draws.
_ALLOCATION = 2
_BASELINE = 3
ALGORITHM_STREAMS = {"music": 10, "gmusic": 11, "rsa": 12, "greedy": 13,
                     "bruteforce": 14}

CSV_COLUMNS = ("scenario_id", "algorithm", "users", "groups",
               "uncertainty_pct", "repetition", "utility", "throughput_pct",
               "mean_delay_ms", "mean_power_mj", "mean_price_usd",
               "gain_price_pct", "gain_power_pct", "gain_delay_pct",
               "fixed_dimension", "seed")


@dataclass
class MetricsRow:
    """One algorithm x repetition result, one-to-one with the CSV schema.

    A metric left None is a blank CSV cell: throughput_pct without a proven
    optimum or when some placed user breaks the budgets (the optimum keeps
    them), the mean_* columns when no user got a plan, the gains outside a
    fixed-dimension study."""

    scenario_id: str
    algorithm: str
    users: int
    groups: int
    uncertainty_pct: float
    repetition: int
    utility: float
    throughput_pct: Optional[float] = None
    mean_delay_ms: Optional[float] = None
    mean_power_mj: Optional[float] = None
    mean_price_usd: Optional[float] = None
    gain_price_pct: Optional[float] = None
    gain_power_pct: Optional[float] = None
    gain_delay_pct: Optional[float] = None
    fixed_dimension: str = ""
    seed: int = 0


# --- derived metrics ------------------------------------------------------------

def compute_throughput(achieved: float, optimal: float) -> float:
    """Achieved utility as a percentage of the enumerated optimum."""
    if optimal <= 0.0:
        raise UndefinedThroughput(
            f"optimal utility must be positive, got {optimal}")
    return 100.0 * achieved / optimal


def gain_pct(two_tier: float, public_only: float) -> float:
    """Percent reduction of a raw QoS value relative to a public-only run."""
    if public_only == 0.0:
        raise UndefinedGain("public-only baseline value is zero")
    return 100.0 * (public_only - two_tier) / public_only


def compute_two_tier_gain(two_tier: QoSTriple, public_only: QoSTriple,
                          held_fixed: str) -> dict[str, float]:
    """Gains in the non-fixed dimensions of a fixed-dimension study."""
    if held_fixed not in DIMS:
        raise ValueError(f"unknown dimension {held_fixed!r}")
    return {d: gain_pct(two_tier.get(d), public_only.get(d))
            for d in DIMS if d != held_fixed}


# --- plan execution -------------------------------------------------------------

def _user_instances(dep: Deployment, pop: Population,
                    ltws: Mapping[int, "object"],
                    memo: Optional[CostMemo] = None
                    ) -> dict[int, UserInstance]:
    return {uid: UserInstance(pop.users[uid], ltws[uid], dep.directory,
                              dep.profiles, dep.grid, memo=memo)
            for uid in sorted(pop.users)}


def _population_instances(dep: Deployment, pop: Population
                          ) -> tuple[dict[int, UserInstance],
                                     dict[int, UserInstance]]:
    """The true and the predicted instances of one population. One
    CostMemo serves both and is dropped on return, so a predicted entry
    takes the tables that a true entry of the same user, workflow object
    and WiFi owner already built; a user whose whole LTW was predicted
    right shares its true instance. Every entry is queued first, so the
    first instance's build costs the whole population in array passes."""
    memo = CostMemo(dep.directory, dep.profiles)
    for ltws in (pop.true_ltws, pop.predicted_ltws):
        for uid in sorted(pop.users):
            memo.expect(pop.users[uid], ltws[uid], dep.grid)
    true = _user_instances(dep, pop, pop.true_ltws, memo)
    predicted = {
        uid: (true[uid] if pop.predicted_ltws[uid] is pop.true_ltws[uid]
              else UserInstance(pop.users[uid], pop.predicted_ltws[uid],
                                dep.directory, dep.profiles, dep.grid,
                                memo=memo))
        for uid in sorted(pop.users)}
    return true, predicted


def _fallback_pick(inst: UserInstance, entry: int, occ_idx: int,
                   blocked: frozenset[int], rng: np.random.Generator) -> int:
    """Uniform seeded pick among candidates with capacity (blocked: the
    clouds without room, see clouds_without_room), for occurrences the
    planned assignment cannot cover. Falls back to the full candidate set when
    everything is full (the request must run somewhere)."""
    cands = inst.entries[entry].cands[occ_idx]
    ids = with_room(cands, inst.hosts, blocked) or cands
    return ids[int(rng.integers(len(ids)))]


def carry_plans(result: AllocationResult,
                predicted: Mapping[int, UserInstance],
                true: Mapping[int, UserInstance],
                rng: np.random.Generator,
                ledger: Optional[CapacityLedger]) -> dict[int, tuple[int, ...]]:
    """Map planned pick tuples onto the true workflows for scoring.

    Entries whose predicted workflow object survives into the true one keep
    their picks (a mispredicted location leaves the plan executable, just
    at different cost); they sit in the predicted tuple at the predicted
    instance's offsets. Entries whose workflow was mispredicted are
    re-drawn uniformly at run time among capacity-available candidates.
    Ledger slots are moved to match what actually runs.
    """
    effective: dict[int, tuple[int, ...]] = {}
    for uid in sorted(result.plans):
        pred_inst, true_inst = predicted[uid], true[uid]
        plan = result.plans[uid]
        if pred_inst.ltw is true_inst.ltw:
            effective[uid] = plan
            continue
        held = pred_inst.local_clouds(plan)
        blocked = clouds_without_room(ledger, held=held)
        picks: list[int] = []
        base = 0
        for e, (p_tables, t_tables) in enumerate(
                zip(pred_inst.entries, true_inst.entries, strict=True)):
            n = len(p_tables.occs)
            if p_tables.workflow is t_tables.workflow:
                picks += plan[base:base + n]
            else:
                picks += [_fallback_pick(true_inst, e, occ.index, blocked, rng)
                          for occ in t_tables.occs]
            base += n
        effective[uid] = tuple(picks)
        if ledger is not None:
            used = true_inst.local_clouds(picks)
            for cid in sorted(held - used):
                ledger.release(cid)
            for cid in sorted(used - held):
                ledger.try_admit(cid)
    return effective


# --- per-repetition execution -----------------------------------------------------

def _pass(alg: str, sc: Scenario, pop: Population,
          true: Mapping[int, UserInstance],
          predicted: Mapping[int, UserInstance], constraints,
          rng: np.random.Generator,
          ledger: CapacityLedger) -> dict[int, QoSTriple]:
    """One placement pass: alg plans the predicted instances, the plans are
    carried over onto the true workflows (see carry_plans), and each placed
    user's raw QoS on its true instance is returned by user id."""
    if alg in ("music", "gmusic"):
        res = allocate_music(predicted, constraints, sc.annealing_params(),
                             rng, ledger=ledger,
                             groups=pop.groups if alg == "gmusic" else None)
    elif alg == "rsa":
        res = allocate_rsa(predicted, constraints, rng, ledger)
    elif alg == "greedy":
        res = allocate_greedy(predicted, rng, ledger)
    else:
        raise ValueError(f"unknown algorithm {alg!r}")
    effective = carry_plans(res, predicted, true, rng, ledger)
    return {uid: true[uid].evaluate(p) for uid, p in effective.items()}


def _metrics_row(sc: Scenario, alg: str, rep: int, utility: float,
                 throughput: Optional[float],
                 raws: Mapping[int, QoSTriple],
                 gains: Optional[Mapping[str, float]] = None) -> MetricsRow:
    def mean(dim: str) -> Optional[float]:
        """Mean raw QoS over the placed users; None (a blank cell) when no
        user got a plan."""
        vals = [r.get(dim) for r in raws.values()]
        return float(np.mean(vals)) if vals else None

    gains = gains or {}
    return MetricsRow(
        scenario_id=sc.scenario_id, algorithm=alg, users=sc.users,
        groups=sc.groups, uncertainty_pct=sc.uncertainty_pct, repetition=rep,
        utility=utility, throughput_pct=throughput,
        mean_delay_ms=mean("delay"), mean_power_mj=mean("power"),
        mean_price_usd=mean("price"),
        gain_price_pct=gains.get("price"), gain_power_pct=gains.get("power"),
        gain_delay_pct=gains.get("delay"),
        fixed_dimension=sc.fixed_dimension or "", seed=sc.seed)


def _fleet_score(true: Mapping[int, UserInstance],
                 raws: Mapping[int, QoSTriple], groups) -> float:
    """Fleet objective of the effective plans, from their raw QoS."""
    return fleet_utility({uid: true[uid].utility_of(r)
                          for uid, r in raws.items()}, sorted(true), groups)


def _enumerate_optimal(sc: Scenario, dep: Deployment,
                       true: Mapping[int, UserInstance],
                       groups) -> Optional[AllocationResult]:
    try:
        return brute_force_optimal(true, sc.constraints(), dep.fresh_ledger(),
                                   groups, cap=sc.enumeration_cap)
    except TooLargeForEnumeration as exc:
        if sc.algorithm == "bruteforce":  # asked for, so refuse loudly
            raise TooLargeForEnumeration(f"scenario {sc.scenario_id!r}: "
                                         f"{exc} (enumeration_cap)") from exc
        return None


def _standard_rows(sc: Scenario, dep: Deployment, pop: Population,
                   true: Mapping[int, UserInstance],
                   predicted: Mapping[int, UserInstance],
                   algorithms: Sequence[str], rep: int) -> list[MetricsRow]:
    opt = _enumerate_optimal(sc, dep, true, pop.groups)
    budgets = sc.constraints()
    rows = []
    for alg in algorithms:
        if alg == "bruteforce":
            if opt is None:
                continue
            raws = {uid: true[uid].evaluate(p)
                    for uid, p in opt.plans.items()}
        else:
            raws = _pass(alg, sc, pop, true, predicted, budgets,
                         derive_rng(sc.seed, _ALLOCATION, rep,
                                    ALGORITHM_STREAMS[alg]),
                         dep.fresh_ledger())
        utility = _fleet_score(true, raws, pop.groups)
        throughput = None
        if opt is not None and opt.utility > 0 and all(
                map(budgets.admits, raws.values())):
            throughput = compute_throughput(utility, opt.utility)
        rows.append(_metrics_row(sc, alg, rep, utility, throughput, raws))
    return rows


def _mean_triple(raws: Mapping[int, QoSTriple],
                 uids: Sequence[int]) -> QoSTriple:
    return QoSTriple(
        price=float(np.mean([raws[u].price for u in uids])),
        power=float(np.mean([raws[u].power for u in uids])),
        delay=float(np.mean([raws[u].delay for u in uids])))


def _gain_rows(sc: Scenario, dep: Deployment, pop: Population,
               true: Mapping[int, UserInstance],
               predicted: Mapping[int, UserInstance],
               algorithms: Sequence[str], rep: int) -> list[MetricsRow]:
    """Fixed-dimension study: a public-only baseline pass sets per-user
    budgets on the fixed dimension, then the two-tier pass must hold that
    dimension while the other two improve. Gains compare the fleet mean QoS
    of the two passes.

    The baseline pass runs against a ledger in which every local cloud has
    capacity 0, so the room rule keeps its work on the public cloud and the
    devices, as it keeps work off any full cloud."""
    fixed = sc.fixed_dimension
    no_locals = dict.fromkeys(dep.fresh_ledger().capacities(), 0)
    rows = []
    for alg in algorithms:
        stream = ALGORITHM_STREAMS[alg]
        base_raw = _pass(alg, sc, pop, true, predicted,
                         ConstraintVector.unlimited(),
                         derive_rng(sc.seed, _BASELINE, rep, stream),
                         CapacityLedger(no_locals))
        budgets = {uid: ConstraintVector(**{fixed: raw.get(fixed)})
                   for uid, raw in base_raw.items()}
        raws = _pass(alg, sc, pop, true, predicted, budgets,
                     derive_rng(sc.seed, _ALLOCATION, rep, stream),
                     dep.fresh_ledger())

        shared = sorted(set(base_raw) & set(raws))
        gains = {}
        if shared:
            base_mean = _mean_triple(base_raw, shared)
            treat_mean = _mean_triple(raws, shared)
            gains = compute_two_tier_gain(treat_mean, base_mean, fixed)
            gains[fixed] = gain_pct(treat_mean.get(fixed),
                                    base_mean.get(fixed))
        utility = _fleet_score(true, raws, pop.groups)
        rows.append(_metrics_row(sc, alg, rep, utility, None, raws, gains))
    return rows


def run_experiment(sc: Scenario) -> list[MetricsRow]:
    """Run a scenario: one deployment, all repetitions, all algorithms."""
    sc.validate()
    algorithms = sc.algorithm_list()
    if sc.fixed_dimension and "bruteforce" in algorithms:
        raise ScenarioError(
            "fixed-dimension studies compare placement passes; bruteforce "
            "has no baseline pass (choose music, gmusic, rsa, or greedy)")
    dep = build_deployment(sc)
    rows: list[MetricsRow] = []
    for rep in range(sc.repetitions):
        pop = build_population(sc, dep, rep)
        true, predicted = _population_instances(dep, pop)
        if sc.fixed_dimension:
            rows.extend(_gain_rows(sc, dep, pop, true, predicted, algorithms,
                                   rep))
        else:
            rows.extend(_standard_rows(sc, dep, pop, true, predicted,
                                       algorithms, rep))
    return rows


# --- serialization --------------------------------------------------------------

def _fmt_metric(v: Optional[float]) -> str:
    return "" if v is None else f"{v:.6f}"


def _fmt_context(v: float) -> str:
    return f"{v:g}"


def _record_strings(row: MetricsRow) -> list[str]:
    return [row.scenario_id, row.algorithm, str(row.users), str(row.groups),
            _fmt_context(row.uncertainty_pct), str(row.repetition),
            _fmt_metric(row.utility), _fmt_metric(row.throughput_pct),
            _fmt_metric(row.mean_delay_ms), _fmt_metric(row.mean_power_mj),
            _fmt_metric(row.mean_price_usd), _fmt_metric(row.gain_price_pct),
            _fmt_metric(row.gain_power_pct), _fmt_metric(row.gain_delay_pct),
            row.fixed_dimension, str(row.seed)]


def rows_to_csv(rows: Sequence[MetricsRow]) -> str:
    """Fixed-schema CSV text; identical inputs yield identical bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(_record_strings(row))
    return buf.getvalue()


def rows_to_table(rows: Sequence[MetricsRow]) -> str:
    """Aligned text table of the same records, blanks shown as '-'."""
    cells = [list(CSV_COLUMNS)]
    for row in rows:
        cells.append([s if s else "-" for s in _record_strings(row)])
    widths = [max(len(r[i]) for r in cells) for i in range(len(CSV_COLUMNS))]
    lines = []
    for i, r in enumerate(cells):
        lines.append("  ".join(s.ljust(w) for s, w in zip(r, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def emit_results(rows: Sequence[MetricsRow], fmt: str = "csv",
                 path: Optional[str] = None) -> str:
    """Serialize rows as 'csv' or 'table'; write to path when given."""
    if fmt == "csv":
        text = rows_to_csv(rows)
    elif fmt == "table":
        text = rows_to_table(rows)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is not None:
        Path(path).write_text(text)
    return text


def summarize(rows: Sequence[MetricsRow]) -> list[dict]:
    """Mean and standard deviation of each metric per algorithm setting.

    Rows are grouped by everything except repetition and the metrics; blank
    metrics are skipped. Useful for eyeballing repeated runs."""
    groups: dict[tuple, list[MetricsRow]] = {}
    for row in rows:
        key = (row.scenario_id, row.algorithm, row.users, row.groups,
               row.uncertainty_pct, row.fixed_dimension, row.seed)
        groups.setdefault(key, []).append(row)
    out = []
    metric_fields = ("utility", "throughput_pct", "mean_delay_ms",
                     "mean_power_mj", "mean_price_usd", "gain_price_pct",
                     "gain_power_pct", "gain_delay_pct")
    for key, members in sorted(groups.items()):
        rec = dict(zip(("scenario_id", "algorithm", "users", "groups",
                        "uncertainty_pct", "fixed_dimension", "seed"), key))
        rec["repetitions"] = len(members)
        for f in metric_fields:
            vals = [getattr(m, f) for m in members if getattr(m, f) is not None]
            if vals:
                rec[f"{f}_mean"] = float(np.mean(vals))
                rec[f"{f}_std"] = float(np.std(vals))
        out.append(rec)
    return out
