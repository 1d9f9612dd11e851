"""Command-line front end: run, compare, sweep, suggest-dc."""
from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    POLICIES,
    ConfigurationError,
    InfeasibleTargetError,
    capacity_sweep,
    compare_policies,
    run_scenario,
    scenario_from_json,
    suggest_dc_size,
    write_records_csv,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

MIN_TARGET_STEP = 1e-6  # the sweep CSV's target precision


def _parse_targets(spec: str) -> list[float]:
    """Either 'start:stop:step' (inclusive) or a comma-separated list.

    A range is checked before it is listed: start and stop in [0, 1) and a
    step of at least MIN_TARGET_STEP, so it never lists more than a million
    targets.
    """
    try:
        if ":" not in spec:
            return [float(x) for x in spec.split(",")]
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ConfigurationError(
            "targets", f"{spec!r} is neither start:stop:step nor a comma-separated list"
        ) from exc
    if not (step >= MIN_TARGET_STEP and 0.0 <= start < 1.0 and 0.0 <= stop < 1.0):
        raise ConfigurationError(
            "targets", f"a range needs start and stop in [0, 1) and a step >= {MIN_TARGET_STEP:g}"
        )
    targets = []
    t = start
    while t <= stop + 1e-9:
        targets.append(round(t, 9))
        t += step
    return targets


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tenantcache",
        description="Multi-tenant slot-cache policy simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and emit a CSV time series")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="output CSV (default stdout)")

    p_cmp = sub.add_parser("compare", help="replay one trace through several policies")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--policies", required=True, help=f"comma list of {','.join(POLICIES)}")
    p_cmp.add_argument("--out", required=True, help="output directory, one CSV per policy")

    p_sweep = sub.add_parser("sweep", help="minimal capacity per target hit rate")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--targets", required=True, help="start:stop:step or comma list")
    p_sweep.add_argument("--policies", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--lower", type=int, default=50)
    p_sweep.add_argument("--upper", type=int, default=40_000)
    p_sweep.add_argument("--resolution", type=int, default=50)
    p_sweep.add_argument("--trials", type=int, default=3)

    p_dc = sub.add_parser("suggest-dc", help="recommended per-tenant dedicated size")
    p_dc.add_argument("--hard", type=float, required=True)
    p_dc.add_argument("--alpha", type=float, required=True)
    p_dc.add_argument("--universe", type=int, default=100_000)
    p_dc.add_argument("--resolution", type=int, default=50)
    p_dc.add_argument("--upper", type=int, default=40_000)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            scenario = scenario_from_json(args.config)
            if args.seed is not None:
                from dataclasses import replace

                scenario = replace(scenario, seed=args.seed)
            records = run_scenario(scenario)
            if args.out:
                write_records_csv(records, args.out)
            else:
                write_records_csv(records, sys.stdout)
        elif args.command == "compare":
            scenario = scenario_from_json(args.config)
            policies = args.policies.split(",")
            results = compare_policies(scenario, policies)
            os.makedirs(args.out, exist_ok=True)
            for policy, records in results.items():
                write_records_csv(records, os.path.join(args.out, f"{policy}.csv"))
        elif args.command == "sweep":
            scenario = scenario_from_json(args.config)
            results = capacity_sweep(
                list(scenario.tenants),
                _parse_targets(args.targets),
                args.policies.split(","),
                lower=args.lower,
                upper=args.upper,
                resolution=args.resolution,
                trials=args.trials,
                seed=scenario.seed,
                base=scenario,
            )
            write_sweep_csv(results, args.out)
        elif args.command == "suggest-dc":
            slots = suggest_dc_size(
                args.hard,
                args.alpha,
                universe=args.universe,
                resolution=args.resolution,
                upper=args.upper,
            )
            print(slots)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleTargetError as exc:
        print(f"infeasible target: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
