"""Command-line interface: `charsum run` with a config file or direct flags."""

import argparse
import os
import sys

from .finite_field import FieldError
from .harness import (
    EXIT_CONFIG,
    EXIT_FIELD,
    EXIT_IO,
    SUITES,
    ConfigError,
    RunConfig,
    load_config,
    parse_q,
    run,
)
from .tolerance import TolerancePolicy


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charsum",
        description="Numerically verify character-sum identities over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run verification suites")
    p_run.add_argument("--config", help="flat key = value config file")
    p_run.add_argument(
        "--q", type=int, action="append",
        help="odd prime power to test (repeatable); defaults to the built-in CI set",
    )
    p_run.add_argument(
        "--suite", action="append", metavar="NAME",
        help=f"suite to run (repeatable): {', '.join(SUITES)}, or 'all'",
    )
    p_run.add_argument(
        "--a", default=None, metavar="POLICY",
        help="a-sweep policy: all, sample-N, or auto (default: all up to q=50)",
    )
    p_run.add_argument("--out", default=None, metavar="PATH", help="JSON report path")
    p_run.add_argument("--csv", default=None, metavar="PATH", help="CSV summary path")
    p_run.add_argument("--parallelism", type=int, default=None, metavar="N")
    p_run.add_argument(
        "--octic-variants", action="store_true", default=None,
        help="re-run octic-dependent suites with all four choices of M8",
    )
    p_run.add_argument("--tol-floor", type=float, default=None)
    p_run.add_argument("--tol-scale", type=float, default=None)
    return parser


def config_from_args(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.q is not None:
        cfg.fields = [parse_q(q) for q in args.q]
    if args.suite is not None:
        cfg.suites = args.suite
    if args.a is not None:
        cfg.a_policy = args.a
    if args.out is not None:
        cfg.out_json = args.out
    if args.csv is not None:
        cfg.out_csv = args.csv
    if args.parallelism is not None:
        cfg.parallelism = args.parallelism
    if args.octic_variants is not None:
        cfg.octic_variants = args.octic_variants
    if args.tol_floor is not None or args.tol_scale is not None:
        cfg.tolerance = TolerancePolicy(
            floor=args.tol_floor if args.tol_floor is not None else cfg.tolerance.floor,
            scale=args.tol_scale if args.tol_scale is not None else cfg.tolerance.scale,
        )
    return cfg


def _check_writable(path: str) -> None:
    """Raise OSError unless path can be opened for writing; a file that did
    not exist before is removed again."""
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        cfg.jobs()  # fail fast on load, before any field is built
    except ConfigError as e:
        print(f"charsum: config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        for path in (cfg.out_json, cfg.out_csv):
            if path:
                _check_writable(path)
    except OSError as e:
        print(f"charsum: i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    try:
        code, reports = run(cfg)
    except ConfigError as e:
        print(f"charsum: config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FieldError as e:
        print(f"charsum: field construction failed: {e}", file=sys.stderr)
        return EXIT_FIELD
    except OSError as e:
        print(f"charsum: i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    for rep in reports:
        print(rep.summary_line())
    n_checks = sum(len(r.records) for r in reports)
    n_failed = sum(r.n_failed for r in reports)
    overall = max((r.max_deviation for r in reports), default=0.0)
    status = "PASS" if code == 0 else "FAIL"
    print(f"total: {n_checks} checks, {n_failed} failed, max deviation {overall:.3g} -> {status}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
