"""Command-line front end: run, compare, sweep, suggest-dc."""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

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

    A range is checked before it is listed: 0 <= start <= stop < 1 and a
    step of at least MIN_TARGET_STEP, so it lists at least one target and
    never more than a million.
    """
    try:
        if ":" not in spec:
            return [float(x) for x in spec.split(",")]
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ConfigurationError(
            "targets", f"{spec!r} is neither start:stop:step nor a comma-separated list"
        ) from exc
    if not (step >= MIN_TARGET_STEP and 0.0 <= start <= stop < 1.0):
        raise ConfigurationError(
            "targets", f"a range needs 0 <= start <= stop < 1 and a step >= {MIN_TARGET_STEP:g}"
        )
    targets = []
    t = start
    while t <= stop + 1e-9:
        targets.append(round(t, 9))
        t += step
    return targets


def _check_out(out: str, directory: bool = False) -> None:
    """Raise a ConfigurationError naming out unless out can take the output.

    A CSV file goes into an existing directory; compare's directory of CSVs
    is made with any missing parents, so its nearest existing ancestor must
    be a directory.  This runs before any simulation and writes nothing, so a
    run that fails later leaves no output behind.
    """
    path = os.path.abspath(out)
    if not directory and os.path.isdir(path):
        raise ConfigurationError("out", f"{out} is a directory")
    home = path if directory else os.path.dirname(path)
    while directory and not os.path.exists(home):
        home = os.path.dirname(home)
    if not os.path.isdir(home):
        raise ConfigurationError("out", f"{home} is not an existing directory")


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

    # sweep and suggest-dc hold only the options given; the library's defaults fill in the rest
    given_only = {"argument_default": argparse.SUPPRESS}
    p_sweep = sub.add_parser("sweep", help="minimal capacity per target hit rate", **given_only)
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--targets", required=True, help="start:stop:step or comma list")
    p_sweep.add_argument("--policies", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--lower", type=int)
    p_sweep.add_argument("--upper", type=int)
    p_sweep.add_argument("--resolution", type=int)
    p_sweep.add_argument("--trials", type=int)

    p_dc = sub.add_parser("suggest-dc", help="recommended per-tenant dedicated size", **given_only)
    p_dc.add_argument("--hard", type=float, required=True)
    p_dc.add_argument("--alpha", type=float, required=True)
    p_dc.add_argument("--universe", type=int)
    p_dc.add_argument("--resolution", type=int)
    p_dc.add_argument("--upper", type=int)

    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    try:
        if args.get("out") is not None:  # run's is optional; suggest-dc has none
            _check_out(args["out"], directory=command == "compare")
        if command == "run":
            scenario = scenario_from_json(args["config"])
            if args["seed"] is not None:
                scenario = replace(scenario, seed=args["seed"])
            write_records_csv(run_scenario(scenario), args["out"] or sys.stdout)
        elif command == "compare":
            scenario = scenario_from_json(args["config"])
            results = compare_policies(scenario, args["policies"].split(","))
            os.makedirs(args["out"], exist_ok=True)
            for policy, records in results.items():
                write_records_csv(records, os.path.join(args["out"], f"{policy}.csv"))
        elif command == "sweep":
            scenario = scenario_from_json(args.pop("config"))
            targets = _parse_targets(args.pop("targets"))
            policies = args.pop("policies").split(",")
            out = args.pop("out")
            # what is left is the search options given
            results = capacity_sweep(
                list(scenario.tenants), targets, policies, seed=scenario.seed, base=scenario, **args
            )
            write_sweep_csv(results, out)
        elif command == "suggest-dc":
            print(suggest_dc_size(args.pop("hard"), args.pop("alpha"), **args))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleTargetError as exc:
        print(f"infeasible target: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
