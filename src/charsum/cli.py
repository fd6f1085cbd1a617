"""Command-line interface: `charsum run` with a config file or direct flags."""

import argparse
import os
import sys

from .finite_field import FieldError
from .harness import (
    CONFIG_KEYS,
    ENV_PARALLELISM,
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
from .report import Summary

# every flag appends to a list, so config_from_args can refuse a repeat; only
# these keys repeat, their values joined as in one config-file line
_REPEATABLE = ("q", "suites")

# argparse settings of a config key's flag beyond action="append"; every flag
# value stays text for the key's parser, as in the config file
_FLAG_OPTIONS = {
    "q": dict(help="odd prime power to test (repeatable); defaults to the built-in CI set"),
    "suites": dict(
        metavar="NAME", help=f"suite to run (repeatable): {', '.join(SUITES)}, or 'all'"
    ),
    "a_policy": dict(
        metavar="POLICY", help="a-sweep policy: all, sample-N, or auto (default: all up to q=50)"
    ),
    "out_json": dict(metavar="PATH", help="JSON report path"),
    "out_csv": dict(metavar="PATH", help="CSV summary path"),
    "parallelism": dict(
        metavar="N",
        help=f"worker processes (default 1); {ENV_PARALLELISM} overrides it, and it is "
        "capped at the CPU count and the number of tasks",
    ),
    "octic_variants": dict(
        action="append_const", const="true",
        help="re-run octic-dependent suites with all four choices of M8",
    ),
    "tol_floor": dict(
        metavar="TOL",
        help="tolerance floor (default 1e-6): a check passes when its deviation is at "
        "most max(floor, scale * n_terms * sqrt(q))",
    ),
    "tol_scale": dict(
        metavar="SCALE",
        help="tolerance scale in max(floor, scale * n_terms * sqrt(q)) (default 1e-12)",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charsum",
        description="Numerically verify character-sum identities over finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run verification suites")
    p_run.add_argument("--config", action="append", help="flat key = value config file")
    for key, (flag, _, _) in CONFIG_KEYS.items():
        p_run.add_argument(flag, dest=key, **{"action": "append", **_FLAG_OPTIONS.get(key, {})})
    return parser


def config_from_args(args) -> RunConfig:
    """The config file, if any, with each given flag set over it.  --q and
    --suite may repeat and their values are joined, so flags read like
    config-file values; any other flag given twice is a ConfigError, as a
    repeated config-file key is."""
    flags = {"config": "--config", **{key: flag for key, (flag, _, _) in CONFIG_KEYS.items()}}
    given = {key: getattr(args, key) for key in flags}
    for key, values in given.items():
        if values is not None and len(values) > 1 and key not in _REPEATABLE:
            raise ConfigError(
                f"{flags[key]} is given {len(values)} times; only --q and --suite repeat"
            )
    cfg = load_config(given["config"][0]) if given["config"] else RunConfig()
    for key in CONFIG_KEYS:
        if given[key] is not None:
            set_option(cfg, key, " ".join(given[key]), flags[key])
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
    summaries = [rep.summary() for rep in reports]
    for rep, summary in zip(reports, summaries):
        print(rep.summary_line(summary))
    n_checks, n_failed, worst, _ = Summary.fold(summaries)
    status = "PASS" if code == 0 else "FAIL"
    print(f"total: {n_checks} checks, {n_failed} failed, max deviation {worst:.3g} -> {status}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
