"""Command-line interface: `charsum run` with a config file or direct flags."""

import argparse
import os
import sys

from .finite_field import FieldError
from .harness import (
    CONFIG_KEYS,
    EXIT_CONFIG,
    EXIT_FIELD,
    EXIT_IO,
    SUITES,
    ConfigError,
    RunConfig,
    load_config,
    run,
    set_option,
)
from .report import nan_max

# argparse settings of a config key's flag beyond the defaults; every flag
# value stays text for the key's parser, as in the config file
_FLAG_OPTIONS = {
    "q": dict(
        action="append",
        help="odd prime power to test (repeatable); defaults to the built-in CI set",
    ),
    "suites": dict(
        action="append", metavar="NAME",
        help=f"suite to run (repeatable): {', '.join(SUITES)}, or 'all'",
    ),
    "a_policy": dict(
        metavar="POLICY", help="a-sweep policy: all, sample-N, or auto (default: all up to q=50)"
    ),
    "out_json": dict(metavar="PATH", help="JSON report path"),
    "out_csv": dict(metavar="PATH", help="CSV summary path"),
    "parallelism": dict(metavar="N"),
    "octic_variants": dict(
        action="store_const", const="true",
        help="re-run octic-dependent suites with all four choices of M8",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charsum",
        description="Numerically verify character-sum identities over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run verification suites")
    p_run.add_argument("--config", help="flat key = value config file")
    for key, (flag, _, _) in CONFIG_KEYS.items():
        p_run.add_argument(flag, dest=key, **_FLAG_OPTIONS.get(key, {}))
    return parser


def config_from_args(args) -> RunConfig:
    """The config file, if any, with each given flag set over it; a repeated
    flag's values are joined, so flags read like config-file values."""
    cfg = load_config(args.config) if args.config else RunConfig()
    for key, (flag, _, _) in CONFIG_KEYS.items():
        text = getattr(args, key)
        if text is not None:
            set_option(cfg, key, " ".join(text) if isinstance(text, list) else text, flag)
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
    n_checks = sum(r.n_checks for r in reports)
    n_failed = sum(r.n_failed for r in reports)
    overall = nan_max(r.max_deviation for r in reports)
    status = "PASS" if code == 0 else "FAIL"
    print(f"total: {n_checks} checks, {n_failed} failed, max deviation {overall:.3g} -> {status}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
