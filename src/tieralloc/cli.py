"""Command-line entry point for running allocation experiments."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from .errors import TierAllocError
from .harness import emit_results, run_experiment
from .scenario import ALGORITHMS, Scenario, build_deployment, load_scenario


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tieralloc",
        description="Simulate cloud service allocation for mobile users "
                    "over local and public clouds.")
    p.add_argument("--scenario", metavar="PATH",
                   help="scenario JSON file (built-in defaults when omitted)")
    p.add_argument("--algorithm", choices=ALGORITHMS,
                   help="allocation algorithm to run")
    p.add_argument("--users", type=int, metavar="N",
                   help="number of mobile users")
    p.add_argument("--groups", type=int, metavar="N",
                   help="number of user groups (0 = ungrouped)")
    p.add_argument("--uncertainty", type=float, metavar="PCT",
                   help="percent of predicted workflow entries perturbed")
    p.add_argument("--seed", type=int, metavar="N",
                   help="master random seed")
    p.add_argument("--repetitions", type=int, metavar="N",
                   help="independent repetitions to run")
    p.add_argument("--output", metavar="PATH",
                   help="write results to this file instead of stdout")
    p.add_argument("--format", choices=("csv", "table"), default="csv",
                   help="results format (default: csv)")
    p.add_argument("--public-only", action="store_true",
                   help="give every local cloud capacity 0 (local_capacity "
                        "0), so work runs on public instances and devices")
    p.add_argument("--dump-profiles", action="store_true",
                   help="print the deployment's cost profile tables and exit")
    return p


_OVERRIDES = (("algorithm", "algorithm"), ("users", "users"),
              ("groups", "groups"), ("uncertainty", "uncertainty_pct"),
              ("seed", "seed"), ("repetitions", "repetitions"))


def scenario_from_args(args: argparse.Namespace) -> Scenario:
    """Scenario from the --scenario file plus command-line overrides."""
    sc = load_scenario(args.scenario) if args.scenario else Scenario()
    changes = {}
    for flag, fieldname in _OVERRIDES:
        value = getattr(args, flag)
        if value is not None:
            changes[fieldname] = value
    if args.public_only:
        changes["local_capacity"] = 0
    if changes:
        sc = dataclasses.replace(sc, **changes)
    return sc


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sc = scenario_from_args(args)
        if args.dump_profiles:
            dep = build_deployment(sc)
            text = json.dumps(dep.profiles.to_dict(), indent=2,
                              sort_keys=True) + "\n"
            if args.output:
                with open(args.output, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 0
        rows = run_experiment(sc)
        text = emit_results(rows, args.format, args.output)
        if args.output is None:
            sys.stdout.write(text)
        return 0
    except (TierAllocError, OSError) as exc:
        print(f"tieralloc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
