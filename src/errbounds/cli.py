"""Command-line batch driver.

Subcommands: verify-equality, verify-bounds, optimize-majorant, friedrichs,
suite.  The default output directory can be overridden with the
ERRBOUNDS_OUT environment variable.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import (ConfigError, EstimatorSpec, RunConfig,
                     default_suite_config, parse_config)
from .runner import ESTIMATORS, default_output_dir, emit, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="errbounds",
        description="Verify functional a posteriori error identities and "
                    "two-sided bounds on manufactured PDE cases.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("verify-equality", "run the error-equality estimators of a config"),
            ("verify-bounds", "run the two-sided bound estimators of a config"),
            ("optimize-majorant", "minimize the flux majorant over a basis"),
            ("friedrichs", "report Friedrichs constants and saturation margins"),
            ("suite", "run the default verification suite")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON run configuration (default: built-in suite)")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: $ERRBOUNDS_OUT or "
                            "./errbounds_out)")
        p.add_argument("--format", action="append", default=None,
                       choices=["json", "csv", "plotdata"],
                       help="output format; repeatable (default: json)")
        p.add_argument("--quad-order", type=int, default=None,
                       help="override both quadrature orders")
        p.add_argument("--seed", type=int, default=None,
                       help="override the base random seed")
    return parser


def _load_config(args) -> RunConfig:
    # the overrides bypass parse_config, so they are checked here
    if args.quad_order is not None and args.quad_order < 1:
        raise ConfigError(
            f"--quad-order must be at least 1, got {args.quad_order}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    if args.config is not None:
        config = parse_config(args.config.read_text())
    else:
        config = default_suite_config(base_seed=args.seed or 0)
    if args.quad_order is not None:
        config = dataclasses.replace(config, space_order=args.quad_order,
                                     time_order=args.quad_order)
    if args.seed is not None and args.config is not None:
        approxs = tuple(dataclasses.replace(a, seed=args.seed + i)
                        for i, a in enumerate(config.approximations))
        config = dataclasses.replace(config, approximations=approxs)
    if args.format:
        config = dataclasses.replace(config, formats=tuple(args.format))
    return config


def _filter_estimators(config: RunConfig, command: str) -> RunConfig:
    if command == "suite":
        return config
    allowed = [n for n, e in ESTIMATORS.items() if e.family == command]
    kept = tuple(e for e in config.estimators if e.name in allowed)
    if not kept and command in ("optimize-majorant", "friedrichs"):
        # these commands are meaningful even when the config lists neither
        kept = tuple(EstimatorSpec(name=n) for n in allowed)
    if not kept:
        raise ConfigError(
            f"config declares no estimator usable by {command!r} "
            f"(expected one of {sorted(allowed)})")
    return dataclasses.replace(config, estimators=kept)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _filter_estimators(_load_config(args), args.command)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run(config)
    outdir = args.out if args.out is not None else default_output_dir()
    written = emit(report, config.formats, outdir)
    n_fail = sum(1 for r in report.records if not r.get("passed", True))
    print(f"{len(report.records)} records, {n_fail} failing; "
          f"wrote {', '.join(str(p) for p in written)}")
    for rec in report.records:
        if not rec.get("passed", True):
            what = rec["error"] or (
                f"rel_residual={rec.get('rel_residual')!r} "
                f"true={rec.get('true_total')!r} "
                f"bounds=[{rec.get('lower_bound')!r}, "
                f"{rec.get('upper_bound')!r}]")
            print(f"FAIL {rec['case']} {rec['estimator']} "
                  f"eps={rec['epsilon']} seed={rec['seed']}: {what}",
                  file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
