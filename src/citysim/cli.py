"""Command line interface.

  citysim validate <scenario>                 check a scenario file
  citysim run <scenario> [--variant N]...     run variants and export
  citysim compare <scenario> --all            baseline/risk/all mitigations
  citysim oracle sir|attack                   print independent oracle output

Exit codes: 0 success, 2 validation failure, 3 I/O failure, 4 runtime abort.
The environment variable CITYSIM_SEED overrides the scenario seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .export import export_report
from .hazards import HazardError
from .kernel import KernelError
from .runner import run_paired
from .scenario import RISK, parse_config, read_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_RUNTIME = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="citysim")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a scenario file")
    p_validate.add_argument("scenario")

    p_run = sub.add_parser("run", help="run one or more variants")
    p_run.add_argument("scenario")
    p_run.add_argument("--variant", action="append", default=None,
                       help="baseline, risk, or a declared mitigation (repeatable)")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--no-checks", action="store_true",
                       help="skip per-tick invariant monitoring")

    p_compare = sub.add_parser("compare", help="paired comparison of variants")
    p_compare.add_argument("scenario")
    p_compare.add_argument("--all", action="store_true",
                           help="baseline, risk and every declared mitigation")
    p_compare.add_argument("--variant", action="append", default=None)
    p_compare.add_argument("--out", default="out")
    p_compare.add_argument("--seed", type=int, default=None)
    p_compare.add_argument("--no-checks", action="store_true")

    p_oracle = sub.add_parser("oracle", help="run an independent oracle")
    p_oracle.add_argument("which", choices=["sir", "attack"])
    p_oracle.add_argument("--population", type=int, default=500)
    p_oracle.add_argument("--initial-infected", type=int, default=10)
    p_oracle.add_argument("--beta", type=float, default=0.004)
    p_oracle.add_argument("--contacts", type=int, default=4)
    p_oracle.add_argument("--duration", type=int, default=120)
    p_oracle.add_argument("--horizon", type=int, default=960)
    p_oracle.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _load(path: str, seed_flag: int | None):
    """Read a scenario, set a --seed or CITYSIM_SEED override and validate once,
    at that seed: household counts, and so the home ids, follow the seed."""
    raw, digest, errors = read_scenario(path)
    env_seed = os.environ.get("CITYSIM_SEED")
    if raw is not None and (seed_flag is not None or env_seed is not None):
        seed, source = seed_flag, "--seed"
        if seed is None:
            try:
                seed, source = int(env_seed), "CITYSIM_SEED"
            except ValueError:
                print(f"error: CITYSIM_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
                return None
        print(f"note: seed overridden to {seed} by {source}", file=sys.stderr)
        raw["seed"] = seed
    config, errors = (None, errors) if raw is None else parse_config(raw, digest, path)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    return config


def _run_and_export(config, variants: list[str], out: str, checks: bool) -> int:
    try:
        report = run_paired(config, variants, checks=checks)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (KernelError, HazardError) as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        digests = export_report(report, out)
    except OSError as exc:
        print(f"export failed: {exc}", file=sys.stderr)
        return EXIT_IO
    for name in sorted(digests):
        print(f"wrote {out}/{name}")
    deaths = report.summary["final_deaths"]
    print("final deaths: " + ", ".join(f"{v}={deaths[v]}" for v in report.order))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "validate":
        config = _load(args.scenario, None)
        if config is None:
            return EXIT_VALIDATION
        print(f"OK: {config.name} (seed {config.seed}, {config.horizon_days} days, "
              f"mitigations: {', '.join(config.mitigation_names) or 'none'})")
        return EXIT_OK

    if args.command in ("run", "compare"):
        config = _load(args.scenario, args.seed)
        if config is None:
            return EXIT_VALIDATION
        if args.command == "run":
            variants = args.variant or [RISK]
        else:
            if args.all or not args.variant:
                variants = config.variants
            else:
                variants = args.variant
        return _run_and_export(config, variants, args.out, not args.no_checks)

    if args.command == "oracle":
        from . import oracles
        if args.which == "sir":
            n = args.population
            bad = [(flag, v, lo, hi) for flag, v, lo, hi in (
                ("--population", n, 2, math.inf), ("--initial-infected", args.initial_infected, 0, n),
                ("--beta", args.beta, 0, 1), ("--contacts", args.contacts, 0, n - 1),
                ("--duration", args.duration, 1, math.inf), ("--horizon", args.horizon, 0, math.inf),
            ) if not lo <= v <= hi]
            for flag, v, lo, hi in bad:
                print(f"error: {flag} must be in [{lo}, {hi}], got {v}", file=sys.stderr)
            if bad:
                return EXIT_VALIDATION
            curve, susceptible = oracles.sir_prevalence(
                args.population, args.initial_infected, args.beta,
                args.contacts, args.duration, args.horizon,
            )
            peak = int(curve.argmax())
            if args.as_json:
                print(json.dumps({"prevalence": [round(float(v), 4) for v in curve]}))
            else:
                print(f"population {args.population}, beta {args.beta}, "
                      f"contacts {args.contacts}, duration {args.duration}h")
                print(f"peak prevalence {curve.max():.1f} at tick {peak} "
                      f"(day {peak // 24}); final susceptible share "
                      f"{susceptible[-1] / args.population:.3f}")
        else:
            chain = {"a": ["b"], "b": ["c"], "c": []}
            times = oracles.compromise_times(chain, "a", 1)
            star = {"hub": ["l1", "l2", "l3", "l4"]}
            star_times = oracles.compromise_times(star, "hub", 1)
            payload = {
                "chain_compromise_ticks": times,
                "star_compromise_ticks": star_times,
                "star_expected_mean_leaves_at_p_half": 2.0,
            }
            if args.as_json:
                print(json.dumps(payload, sort_keys=True))
            else:
                print("deterministic chain a<-b<-c, hit at tick 1:", times)
                print("4-leaf star, hit at tick 1:", star_times)
                print("expected compromised leaves at propagation 0.5: 2.0")
        return EXIT_OK

    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
