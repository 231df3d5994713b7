"""cpi-sim command line interface.

    cpi-sim run <config-file> [--out DIR] [--seed S]
    cpi-sim validate <config-file>
    cpi-sim demo <name>

Output directory precedence: --out flag, then the CPI_SIM_OUT environment
variable, then run.out_dir from the config.

Exit codes, by error type alone: 0 success, 2 a failed config rule (any
ConfigError), 3 a failed computation (any ComputationError, ValueError,
ArithmeticError or MemoryError), 4 I/O.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import DEMOS, parse_config
from .errors import ComputationError, ConfigError, ParseError
from .runner import run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpi-sim",
        description="Chaotic-light correlation plenoptic imaging simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured experiment")
    run.add_argument("config", help="path to a config file")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override run.seed")

    val = sub.add_parser("validate", help="parse and validate a config file")
    val.add_argument("config", help="path to a config file")

    demo = sub.add_parser("demo", help="print a bundled demo config")
    demo.add_argument("name", choices=sorted(DEMOS), help="demo name")
    return parser


def _load_config(path: str):
    """Parse a config file; a relative ``object.file`` is taken relative to
    the config file's directory, and the config (so the manifest) records
    the joined path that is read."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"config is not UTF-8 text: {exc}") from None
    config = parse_config(text)
    mask_file = config.get("object.file")
    if mask_file is not None and not os.path.isabs(mask_file):
        config = config.updated({"object.file": os.path.join(os.path.dirname(path), mask_file)})
    return config


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "demo":
            sys.stdout.write(DEMOS[args.name])
            return EXIT_OK

        if args.command == "validate":
            config = _load_config(args.config)
            config.resolve()
            sys.stdout.write(f"OK: {args.config} ({config.mode} mode)\n")
            return EXIT_OK

        config = _load_config(args.config)
        out_dir = args.out or os.environ.get("CPI_SIM_OUT") or None
        manifest = run_experiment(config, out_dir=out_dir, seed=args.seed)
        sys.stdout.write(
            f"wrote {len(manifest.files) + 1} files "
            f"({manifest.stage_seconds['total']:.2f} s)\n"
        )
        return EXIT_OK

    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except (ComputationError, ValueError, ArithmeticError, MemoryError) as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return EXIT_NUMERICAL
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
