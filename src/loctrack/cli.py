"""Command-line front end.

Subcommands
-----------
``loctrack run <spec.json>``
    Execute a campaign and write ``table.csv`` plus ``manifest.json`` to
    the spec's output directory.
``loctrack validate <scenario.json>``
    Semantic checks on a scenario file; violations go to stdout, one a
    line (every bad key of the file at once).
``loctrack stationary <constants.json>``
    Solve the constant-input fixed point for a JSON ``{"m": ..., "t": ...}``
    pair and print the closed-form solution with its residual.
``loctrack emit <table.csv> --figure <kind>``
    Re-shape a campaign table into one figure-panel CSV next to the table.

Exit codes: 0 success, 2 validation failure or malformed input, 3 campaign
abort (too many failed runs).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CampaignAborted, LocTrackError, SchemaMismatch
from .harness import (
    FIGURE_KINDS,
    ResultTable,
    emit_figure_data,
    load_experiment,
    run_experiment,
    write_outputs,
)
from .recursive import stationary_point
from .scenario import load_scenario, validate
from .schema import Field, read

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ABORT = 3


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_run(args) -> int:
    try:
        spec = load_experiment(args.spec)
    except (OSError, json.JSONDecodeError, LocTrackError) as exc:
        return _fail(f"cannot load experiment spec: {exc}", EXIT_VALIDATION)
    try:
        table = run_experiment(spec)
    except CampaignAborted as exc:
        return _fail(f"campaign aborted: {exc}", EXIT_ABORT)
    except (OSError, LocTrackError) as exc:
        return _fail(f"campaign setup failed: {exc}", EXIT_VALIDATION)
    table_path, manifest_path = write_outputs(table, spec.output_dir)
    print(table_path)
    print(manifest_path)
    for warning in table.manifest["trend-warnings"]:
        print(f"trend warning: {warning}")
    failures = table.manifest["failures"]
    if failures:
        print(f"{len(failures)} run(s) failed; details in the manifest")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        violations = validate(load_scenario(args.scenario)).violations
    except OSError as exc:
        return _fail(f"cannot load scenario: {exc}", EXIT_VALIDATION)
    except LocTrackError as exc:
        violations = str(exc).splitlines()
    if not violations:
        print("ok")
        return EXIT_OK
    for violation in violations:
        print(violation)
    return EXIT_VALIDATION


# The ``stationary`` constants: the matrices M and T of the fixed point.
STATIONARY = {"m": Field("array"), "t": Field("array")}


def _cmd_stationary(args) -> int:
    try:
        with open(args.constants, "r", encoding="utf-8") as fh:
            constants = read(STATIONARY, json.load(fh), "constants file")
    except (OSError, json.JSONDecodeError, SchemaMismatch) as exc:
        return _fail(f"cannot read constants file: {exc}", EXIT_VALIDATION)
    try:
        point = stationary_point(constants["m"], constants["t"])
    except LocTrackError as exc:
        return _fail(f"{exc}", EXIT_VALIDATION)
    print(json.dumps(point.to_json(), sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_emit(args) -> int:
    import os

    try:
        table = ResultTable.from_csv(args.table)
        paths = emit_figure_data(
            table, args.figure, os.path.dirname(os.path.abspath(args.table))
        )
    except (OSError, LocTrackError) as exc:
        return _fail(f"{exc}", EXIT_VALIDATION)
    for path in paths:
        print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loctrack",
        description="Estimation bounds and coupling efficiency for "
        "multi-surface localization and tracking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a campaign spec")
    p_run.add_argument("spec", help="experiment spec JSON file")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario", help="scenario JSON file")
    p_val.set_defaults(func=_cmd_validate)

    p_sta = sub.add_parser("stationary", help="solve the constant-input fixed point")
    p_sta.add_argument("constants", help="JSON file with SPD matrices 'm' and 't'")
    p_sta.set_defaults(func=_cmd_stationary)

    p_emit = sub.add_parser("emit", help="write figure-panel CSV from a table")
    p_emit.add_argument("table", help="campaign table.csv (manifest.json beside it)")
    p_emit.add_argument(
        "--figure",
        required=True,
        choices=sorted(FIGURE_KINDS),
        help="figure panel to emit",
    )
    p_emit.set_defaults(func=_cmd_emit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
