"""Command-line front end for running experiment sweeps.

Exit codes: 0 on success (infeasible rows included), 2 on configuration
errors, 3 when a runtime error aborts the whole run.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .harness import (
    PRESETS,
    ConfigError,
    emit_csv,
    load_config,
    preset_configs,
    run_sweep,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsmimo",
        description="Monte Carlo sum-rate experiments for layered double-sided massive MIMO transceivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a config file or a named preset and emit CSV")
    run.add_argument("--config", help="YAML experiment config file")
    run.add_argument("--preset", help="named figure preset (see list-presets)")
    run.add_argument("--seed", type=int, default=None, help="master seed (overrides the config)")
    run.add_argument("--out", help="output CSV path (default: stdout)")
    run.add_argument("--trials", type=int, default=None, help="override n_trials for all points")
    run.add_argument(
        "--workers", type=int, default=1,
        help="thread workers over drop groups (the grid points that share each trial's draws)",
    )

    sub.add_parser("list-presets", help="list the named figure presets")

    validate = sub.add_parser("validate", help="check a config file without running it")
    validate.add_argument("--config", required=True)
    return parser


def _resolve_configs(args) -> list:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("run needs exactly one of --config or --preset")
    configs = [load_config(args.config)] if args.config else preset_configs(args.preset)
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    overrides = {k: v for k, v in (("seed", args.seed), ("n_trials", args.trials)) if v is not None}
    configs = [replace(c, **overrides) for c in configs]
    for cfg in configs:
        cfg.validate()
    return configs


def _check_out_path(path: str) -> None:
    """Fail before any point runs if ``path`` names a directory or lies in a missing one."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"--out {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(f"--out {path}: directory {parent} does not exist")


def _cmd_run(args) -> int:
    try:
        configs = _resolve_configs(args)
        if args.out:
            _check_out_path(args.out)
        records = run_sweep(*configs, workers=args.workers)
        text = emit_csv(records)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


def _cmd_list_presets() -> int:
    width = max(len(name) for name in PRESETS)
    for name, (description, configs) in PRESETS.items():
        print(f"{name:<{width}}  {description} ({len(configs)} configs)")
    return 0


def _cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    print(f"ok: {len(cfg.grid())} grid point(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list-presets":
        return _cmd_list_presets()
    return _cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
