"""Experiment command line: ``lmm-adjoint <experiment> --config <path>``.

Exit codes: 0 success; 2 a ``ConfigError``, an invalid config file, key or
value (or a config file that cannot be read); 3 a ``SolverError`` or an
arithmetic failure, where the numerics failed on valid input.  Any other
exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import sys

from .config import (CONFIG_REFERENCE, Config, config_reference_text,
                     load_config)
from .experiments import (run_control, run_ode_convergence, run_relax_adjoint,
                          run_relax_forward)
from .tableaus import ConfigError, SolverError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmm-adjoint",
        description="Multistep adjoint experiments: convergence tables, "
                    "relaxation runs, and initial-data control loops.",
        epilog="Run 'lmm-adjoint config-reference' for all config keys.")
    parser.add_argument("experiment",
                        choices=list(CONFIG_REFERENCE) + ["config-reference"],
                        help="experiment kind (or config-reference to print "
                             "the key documentation)")
    parser.add_argument("--config", help="path to a flat key = value file")
    parser.add_argument("--out", default=".",
                        help="output directory for CSV artifacts (default .)")
    parser.add_argument("--route", choices=("dto", "otd", "both"),
                        help="adjoint route(s) of the prescribed ode-converge "
                             "studies (default both)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "config-reference":
        print(config_reference_text())
        return EXIT_OK
    try:
        try:
            cfg = load_config(args.config) if args.config else Config()
        except (OSError, UnicodeDecodeError) as exc:  # an unreadable file
            raise ConfigError(exc) from None
        if cfg.kind is not None and cfg.kind != args.experiment:
            raise ConfigError(
                f"config file is for {cfg.kind!r}, not {args.experiment!r}")
        if args.route is not None and args.experiment != "ode-converge":
            raise ConfigError(f"--route applies to ode-converge, not "
                              f"{args.experiment!r}")
        if args.experiment == "ode-converge":
            run_ode_convergence(cfg, args.out, route=args.route)
        elif args.experiment == "relax-forward":
            run_relax_forward(cfg, args.out)
        elif args.experiment == "relax-adjoint":
            run_relax_adjoint(cfg, args.out)
        else:
            run_control(cfg, args.out, args.experiment)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, ArithmeticError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
