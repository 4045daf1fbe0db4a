"""Command line entry point.

Subcommands::

    cleanstream run --config exp.conf [--key=value ...]
    cleanstream matrix --config exp.conf [--key=value ...]
    cleanstream gen-synthetic --config exp.conf --out data.csv [--key=value ...]

Any config key can be overridden on the command line as ``--key=value``;
overrides are applied before the config is type-checked.

``run`` is a matrix of one cell and prints summary lines instead of the
comparison table; it rejects the ``matrix.*`` keys rather than ignore them.
Exit codes: 2 when no repetition completed (or on a config or IO error), 1
when some repetitions failed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .core import generate_synthetic, save_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cleanstream",
        description="Train classifiers on label-noisy batch streams by "
        "cleansing each arriving batch first.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "run one variant at one noise level"),
        ("matrix", "run a variants x noise-levels comparison"),
        ("gen-synthetic", "write a synthetic dataset CSV"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to a key=value config file")
        if name == "gen-synthetic":
            cmd.add_argument("--out", required=True, help="CSV path to write")
    return parser


def _parse_overrides(extras: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for raw in extras:
        if not raw.startswith("--") or "=" not in raw:
            raise harness.ConfigError(
                f"unrecognized argument {raw!r}; overrides look like --key=value"
            )
        key, _, value = raw[2:].partition("=")
        if not key:
            raise harness.ConfigError(f"override {raw!r} has no key")
        overrides[key] = value
    return overrides


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
    except SystemExit as exc:
        # argparse has printed its message, or the help; the caller gets the code
        return exc.code
    try:
        overrides = _parse_overrides(extras)
        mapping = {**harness.load_config_file(args.config), **overrides}

        if args.command == "gen-synthetic":
            config = harness.config_from_mapping(mapping)
            dataset = generate_synthetic(config.stream, separation=config.separation)
            save_csv(dataset, args.out)
            print(f"wrote {len(dataset)} instances to {args.out}")
            return 0

        if args.command == "run":
            matrix_keys = sorted(key for key in mapping if key.startswith("matrix."))
            if matrix_keys:
                raise harness.ConfigError(
                    f"{', '.join(matrix_keys)}: 'run' runs one variant at one noise "
                    "level; use 'cleanstream matrix' to run the matrix keys"
                )
        configs = harness.expand_matrix(mapping)
        outcomes = harness.run_matrix(configs)
        completed = any(o.results for o in outcomes)
        if completed:
            if args.command == "run":
                table = harness.summary_lines(outcomes)
            else:
                table = harness.comparison_lines(outcomes)
            for line in table:
                print(line)
            if configs[0].output_dir:
                print(f"results under {configs[0].output_dir}")
        errors = [(o.config, e) for o in outcomes for e in o.errors]
        for config, error in errors:
            print(f"error: {harness.format_cell(config)}: {error}", file=sys.stderr)
        if not completed:
            return 2
        return 1 if errors else 0
    except (harness.ConfigError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
