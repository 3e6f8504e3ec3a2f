"""Command-line interface: solve | search | sweep | simulate | bound | validate."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import ScenarioConfig
from .errors import ConfigurationError, EHPolicyError
from .harness import (
    run_bound,
    run_search,
    run_simulate,
    run_solve,
    run_sweep,
    run_validate,
    write_manifest,
)
from .presets import get_preset, preset_names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehpolicy",
        description="Transmission-policy optimization for energy-harvesting "
                    "devices with lossy batteries and coarse charge observation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("solve", "optimal per-state policy (perfect charge knowledge)"),
            ("search", "per-subset policy search (coarse observation): exhaustive, "
                       "or two-stage if |A|^N exceeds search.budget"),
            ("sweep", "evaluate policies and bounds over sweep axes"),
            ("simulate", "Monte Carlo cross-check of the analytic reward"),
            ("bound", "storage-aware throughput upper bound"),
            ("validate", "config checks and the recharge hypothesis")):
        cmd = sub.add_parser(name, help=help_text)
        source = cmd.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", help="path to a YAML scenario config")
        source.add_argument("--preset", choices=preset_names(),
                            help="named built-in scenario")
        if name == "validate":
            continue  # it writes and draws nothing
        cmd.add_argument("--out", default="out", help="output directory")
        cmd.add_argument("--seed", type=int, help="override the config seed")
        if name == "sweep":
            cmd.add_argument("--threads", type=int, default=1,
                             help="worker processes for sweep points (1 to the CPU count)")
    return parser


def _load_config(args) -> ScenarioConfig:
    cfg = get_preset(args.preset) if args.preset else ScenarioConfig.load(args.config)
    if getattr(args, "seed", None) is not None:  # validate takes no --seed
        cfg = dataclasses.replace(cfg, seed=args.seed)  # re-runs the config checks
    return cfg


def _check_out(out) -> None:
    """Refuse an output path that is, or lies under, something other than a
    directory, before any work is done."""
    path = Path(out)
    for at in (path, *path.parents):
        if at.exists():
            if not at.is_dir():
                raise ConfigurationError(f"--out {out}: {at} exists and is not a directory")
            return


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command != "validate":
            _check_out(args.out)
        cfg = _load_config(args)
        if args.command == "validate":
            ok, messages = run_validate(cfg)
            for msg in messages:
                print(msg)
            return 0 if ok else 1
        if args.command == "sweep":
            rows = run_sweep(cfg, args.out, threads=args.threads)
        else:  # argparse allows no other command
            rows = {"solve": run_solve, "search": run_search, "simulate": run_simulate,
                    "bound": run_bound}[args.command](cfg, args.out)
        write_manifest(cfg, args.out, args.command)  # only once the run has succeeded
        for row in rows:
            rec = row.as_record()
            status = rec["error"] or f"G={rec['g_analytic'] or 'n/a'}"
            print(f"{rec['scenario']} {rec['policy']} e_max={rec['e_max']} "
                  f"band={rec['band'] or '-'} {status}")
        print(f"results written to {args.out}")
        return 0
    except EHPolicyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
