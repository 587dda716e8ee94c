"""Command-line front end for running experiment sweeps.

Exit codes: 0 on success (infeasible rows included), 2 on configuration
errors, 3 when a runtime error aborts the whole run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import yaml

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
    run.add_argument("--workers", type=int, default=1, help="thread workers over grid points")

    sub.add_parser("list-presets", help="list the named figure presets")

    validate = sub.add_parser("validate", help="check a config file without running it")
    validate.add_argument("--config", required=True)
    return parser


def _resolve_configs(args) -> list:
    if bool(args.config) == bool(args.preset):
        raise ConfigError("run needs exactly one of --config or --preset")
    if args.config:
        configs = [load_config(args.config)]
    else:
        configs = preset_configs(args.preset)
    if args.seed is not None and args.seed < 0:
        raise ConfigError("--seed must be >= 0")
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    if args.trials is not None:
        if args.trials < 1:
            raise ConfigError("--trials must be >= 1")
        configs = [replace(c, n_trials=args.trials) for c in configs]
    return configs


def _cmd_run(args) -> int:
    try:
        configs = _resolve_configs(args)
        for cfg in configs:
            cfg.validate()
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        records = []
        for cfg in configs:
            records.extend(run_sweep(cfg, seed=args.seed, workers=args.workers))
        text = emit_csv(records)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
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
    except (ConfigError, OSError, yaml.YAMLError) as exc:
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
