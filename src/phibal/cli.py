"""Command-line front end.

Verbs:
    run     train one config, print terminal metrics, optionally write a CSV
    sweep   run an ablation plan, emit per-run CSVs plus summary.md
    check   run the identity/property suites
    budget  compute-optimal size/token calculator

Exit codes: 0 success, 1 config or argument error, 2 numerical failure (a
non-finite loss or a potential map leaving its domain), 3 check failure.
Any other exception propagates.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .checks import GRAD_TOL, run_all_checks
from .config import ConfigError, parse_config, with_seed
from .experiments import (
    ExperimentPlan,
    _output_dir,
    config_digest,
    run_csv_path,
    run_plan,
    write_run_csv,
)
from .potentials import DomainError
from .training import NumericalError, TrainConfig, compute_token_budget, train

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK = 3


def _seed(text: str) -> int:
    """A seed for `numpy.random.default_rng`, which rejects negative ones."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _jobs(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {value}")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phibal")
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="train a single configuration")
    run_p.add_argument("--config", required=True, help="path to a run config")
    run_p.add_argument("--out", default=None, help="directory for the run CSV")
    run_p.add_argument("--seed", type=_seed, default=None, help="override the config seed")

    sweep_p = sub.add_parser("sweep", help="run an ablation plan")
    sweep_p.add_argument("--config", required=True, help="path to a sweep plan")
    sweep_p.add_argument("--out", required=True, help="output directory")
    sweep_p.add_argument("--jobs", type=_jobs, default=1, help="parallel runs")

    check_p = sub.add_parser("check", help="run the identity and gradient suites")
    check_p.add_argument(
        "--check-tolerance",
        type=_positive,
        default=GRAD_TOL,
        help="relative tolerance for the gradient suite",
    )

    budget_p = sub.add_parser("budget", help="compute-optimal token budget")
    budget_p.add_argument("compute", type=_positive, nargs="+", help="total training compute")

    return parser


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    if not isinstance(cfg, TrainConfig):
        raise ConfigError("`run` needs a run config, not a sweep plan (use `sweep`)")
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    out = None if args.out is None else _output_dir(args.out)
    record = train(cfg)
    metrics = " ".join(f"{name}={v:.4f}" for name, v in record.terminal().items())
    print(f"run {config_digest(cfg)}: steps={cfg.steps} {metrics}")
    if out is not None:
        path = run_csv_path(out, cfg)
        write_run_csv(path, cfg, record)
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    plan = parse_config(args.config)
    if not isinstance(plan, ExperimentPlan):
        raise ConfigError("`sweep` needs a sweep plan with a `sweep:` section")
    outcomes = run_plan(plan, args.out, jobs=args.jobs)
    failed = [oc for oc in outcomes if oc.error is not None]
    for oc in outcomes:
        status = "ok" if oc.error is None else f"ERROR {oc.error}"
        print(f"{oc.label} seed={oc.seed}: {status}")
    print(f"summary: {Path(args.out) / 'summary.md'}")
    return EXIT_NUMERICAL if failed else EXIT_OK


def _cmd_check(args) -> int:
    results = run_all_checks(grad_tol=args.check_tolerance)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} ({res.seconds:.2f}s): {res.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK


def _cmd_budget(args) -> int:
    for c in args.compute:
        budget = compute_token_budget(c)
        print(
            f"C={c:g}: compute_per_token={budget.compute_per_token:.6g} "
            f"train_tokens={budget.train_tokens:.6g} "
            f"tokens_per_param={budget.tokens_per_param:.4f}"
        )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "sweep":
            return _cmd_sweep(args)
        if args.verb == "check":
            return _cmd_check(args)
        if args.verb == "budget":
            return _cmd_budget(args)
        raise ConfigError(f"unknown verb {args.verb!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DomainError as exc:
        print(f"numerical failure: DomainError: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
