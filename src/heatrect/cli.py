"""Command-line front end.

    heatrect run <config.json|scenario-name> [--out DIR] [--truncation N]
                 [--rate-mode physical|paper] [--plot]
    heatrect validate <config.json|scenario-name>
    heatrect scenarios

The default output directory is taken from --out, then the config file,
then the HEATRECT_OUT_DIR environment variable, then ./heatrect-out.
"""

from __future__ import annotations

import argparse
import json
import sys

from .scenarios import (
    SCENARIOS,
    ConfigError,
    load_config,
    run_scenario,
    validate_config,
)

_RATE_MODES = {"physical": "physical-modulated", "paper": "paper-literal"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatrect",
        description="Steady-state simulator for qutrit-diode heat-transport circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario config and write CSV output")
    run.add_argument("config", help="path to a JSON config, or a built-in scenario name")
    run.add_argument("--out", help="output directory")
    run.add_argument("--truncation", type=int, help="harmonic-oscillator truncation override")
    run.add_argument("--rate-mode", choices=sorted(_RATE_MODES),
                     help="rate form of the right-coupled bridge diode")
    run.add_argument("--plot", action="store_true", help="also write a quick-look SVG")

    val = sub.add_parser("validate", help="validate a config and print the resolved parameters")
    val.add_argument("config", help="path to a JSON config, or a built-in scenario name")

    sub.add_parser("scenarios", help="list built-in scenarios")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "scenarios":
        for name, scenario in SCENARIOS.items():
            print(f"{name:24s} {scenario.summary}")
        return 0

    if args.command == "validate":
        try:
            resolved = validate_config(load_config(args.config))
        except ConfigError as err:
            print(f"config error at {err.path}: {err}", file=sys.stderr)
            return 2
        summary = {
            "name": resolved.name,
            "circuit": resolved.circuit,
            "axes": {k: len(v) for k, v in resolved.axes.items()},
            "grid_points": len(SCENARIOS[resolved.name].points(resolved)),
            "biases": {k: [b.n_left, b.n_right] for k, b in resolved.biases.items()},
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
        print("config ok")
        return 0

    overrides = {}
    if args.truncation is not None:
        overrides["ho_truncation"] = args.truncation
    if args.rate_mode is not None:
        overrides["bridge_rate_mode"] = _RATE_MODES[args.rate_mode]
    try:
        result = run_scenario(
            args.config,
            out_dir=args.out,
            circuit_overrides=overrides or None,
            plot=True if args.plot else None,
        )
    except ConfigError as err:
        print(f"config error at {err.path}: {err}", file=sys.stderr)
        return 2
    print(f"{result.scenario}: {len(result.rows)} rows -> {result.out_dir}")
    for name in result.files:
        print(f"  {name}")
    if result.flagged_rows:
        print(
            f"WARNING: {len(result.flagged_rows)} grid point(s) did not meet the "
            f"convergence threshold (rows {result.flagged_rows})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
