"""Command-line entry point.

Pipeline stages map to subcommands; each runs the pipeline through its stage
and writes that stage's artifacts (plus everything upstream):

    gen-data, corrupt, train-base, train-lsnpc, correct, eval

plus the composite drivers:

    sweep          nu0 x nu sensitivity grid
    ablate         Student-vs-Normal paired comparison
    verify-theory  numerical bound checks
    run-all        eval + verify-theory

From a checkout without installing, the benchmark table, the sensitivity
grid, the proposal ablation and the bound checks run as:

    PYTHONPATH=src python -m lsnpc.cli eval --config configs/default.ini
    PYTHONPATH=src python -m lsnpc.cli sweep --config configs/default.ini
    PYTHONPATH=src python -m lsnpc.cli ablate --config configs/default.ini
    PYTHONPATH=src python -m lsnpc.cli verify-theory --config configs/theory.ini

each taking ``--out DIR``, ``--seed N`` and ``--quiet``.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config, override
from .experiment import STAGES, run_ablation, run_experiment, sweep_sensitivity, verify_all

COMMANDS = STAGES + ("sweep", "ablate", "verify-theory", "run-all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsnpc",
        description="Noisy-prediction correction experiments and bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} stage")
        cmd.add_argument("--config", required=True, help="INI config path")
        cmd.add_argument("--seed", type=int, default=None,
                         help="replace the config's seed list and [theory] seed with this seed")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--quiet", action="store_true",
                         help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = override(cfg, seeds=(args.seed,))
            cfg = override(cfg, theory=override(cfg.theory, seed=args.seed))
        if args.out is not None:
            cfg = override(cfg, out_dir=args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1

    try:
        if args.command in STAGES:
            run_experiment(cfg, stage=args.command, quiet=args.quiet)
        elif args.command == "sweep":
            sweep_sensitivity(cfg, quiet=args.quiet)
        elif args.command == "ablate":
            run_ablation(cfg, quiet=args.quiet)
        elif args.command == "verify-theory":
            verify_all(cfg, quiet=args.quiet)
        else:
            run_experiment(cfg, stage="eval", quiet=args.quiet)
            verify_all(cfg, quiet=args.quiet)
    except Exception as e:  # a failed stage, bound check or IO outside staged runs
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
