"""Command-line front end.

Subcommands:

* ``curve``          tradeoff curves over a purity grid, written as CSV
* ``bounds``         subentropy / Holevo bounds of an ensemble file
* ``optimize-acc``   accessible-information optimizer on an ensemble file
* ``optimize-power`` informational-power optimizer on a POVM file
* ``mc-scrooge``     Monte Carlo check of the minimum-power curve

Exit codes: 0 success, 1 any ``OSError``, 2 a malformed flag (every
numeric flag is range-checked before any work starts), 3 a malformed
input file, 4 optimizer capability limit.  All output is deterministic
for identical arguments (CSV output is byte-identical).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import _checks
from .errors import DimensionTooLargeError, InfopurityError, ValidationError
from .fileio import _write_text, load_ensemble, load_povm, save_ensemble, save_povm
from .infomeasures import (
    OptimizerConfig,
    accessible_info_opt,
    holevo_upper,
    informational_power_opt,
    jrw_lower,
)
from .montecarlo import HaarSampler, mc_min_power_estimate
from .operators import purity
from .tradeoff import curve_csv_text, min_informational_power, purity_for_epsilon

EXIT_OK = 0
EXIT_IO = 1
EXIT_ARGS = 2
EXIT_VALIDATION = 3
EXIT_CAPABILITY = 4

# (lo, hi) of every integer flag; a flag a subcommand lacks is skipped
_INT_FLAGS = {
    "n": (2, 8), "points": (2, math.inf), "samples": (1000, math.inf),
    "seed": (0, _checks.SEED_MAX), "restarts": (1, math.inf), "threads": (1, math.inf),
}


def gnuplot_script(csv_path: str) -> str:
    name = Path(csv_path).name
    return (
        "set datafile separator ','\n"
        "set xlabel 'impurity 1-P'\n"
        "set ylabel 'information [nats]'\n"
        "set key left top\n"
        f"plot '{name}' using 3:4 with lines dashtype 2 title 'min power', \\\n"
        f"     '{name}' using 3:5 with lines title 'max accessible info'\n"
    )


def _check_flags(args) -> None:
    """Raise for the first numeric flag outside its range, with the base
    InfopurityError, which ``main`` maps to exit 2."""
    for flag, (lo, hi) in _INT_FLAGS.items():
        if hasattr(args, flag):
            _checks.integer(getattr(args, flag), f"--{flag}", lo, hi, InfopurityError)
    if hasattr(args, "epsilon"):
        _checks.real(args.epsilon, "--epsilon", 0.0, 1.0, InfopurityError)
    if hasattr(args, "tol"):
        _checks.real(args.tol, "--tol", 0.0, _checks.FLOAT_MAX, InfopurityError, lo_open=True)


def _cmd_curve(args) -> int:
    _write_text(args.out, curve_csv_text(args.n, args.points))
    if args.gnuplot:
        _write_text(Path(args.out).with_suffix(".gp"), gnuplot_script(args.out))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    ensemble = load_ensemble(args.ensemble, subnormalized=args.subnormalized)
    state_purities = [purity(s) for s in ensemble.states]
    report = {
        "dim": ensemble.dim,
        "states": len(ensemble),
        "state_purities": state_purities,
        "average_purity": purity(ensemble.average),
        "jrw_lower": jrw_lower(ensemble),
        "holevo_upper": holevo_upper(ensemble),
    }
    if args.json:
        print(json.dumps(report))
    else:
        print(f"dim: {report['dim']}")
        print(f"states: {report['states']}")
        print("state purities: " + ", ".join(f"{p:.12g}" for p in state_purities))
        print(f"average purity: {report['average_purity']:.12g}")
        print(f"jrw_lower: {report['jrw_lower']:.12g}")
        print(f"holevo_upper: {report['holevo_upper']:.12g}")
    return EXIT_OK


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(restarts=args.restarts, seed=args.seed, tol=args.tol)


def _print_result(result, kind: str, out_path: str) -> int:
    print(f"value: {result.value:.12g}")
    print(f"converged: {str(result.converged).lower()}")
    print(f"iterations: {result.iterations}")
    print(f"{kind} written: {out_path}")
    return EXIT_OK


def _cmd_optimize_acc(args) -> int:
    ensemble = load_ensemble(args.ensemble, subnormalized=args.subnormalized)
    result = accessible_info_opt(ensemble, _optimizer_config(args))
    out_path = str(Path(args.ensemble).with_suffix(".optimal-povm.json"))
    save_povm(out_path, result.argmax)
    return _print_result(result, "povm", out_path)


def _cmd_optimize_power(args) -> int:
    povm = load_povm(args.povm)
    result = informational_power_opt(povm, _optimizer_config(args))
    out_path = str(Path(args.povm).with_suffix(".optimal-ensemble.json"))
    save_ensemble(out_path, result.argmax)
    return _print_result(result, "ensemble", out_path)


def _cmd_mc(args) -> int:
    sampler = HaarSampler(args.n, args.seed)
    est = mc_min_power_estimate(args.n, args.epsilon, args.samples, sampler)
    analytic = min_informational_power(
        args.n, purity_for_epsilon(args.n, args.epsilon)
    ).value
    print(f"estimate: {est.mean:.12g}")
    print(f"std_error: {est.std_error:.12g}")
    print(f"analytic: {analytic:.12g}")
    if est.std_error < 1e-15:
        print("z: exact")
    else:
        print(f"z: {(est.mean - analytic) / est.std_error:.6g}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="infopurity",
        description="Information-purity tradeoff curves, bounds and optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="write both tradeoff curves as CSV")
    p.add_argument("--n", type=int, required=True, help="Hilbert space dimension")
    p.add_argument("--points", type=int, required=True, help="grid points over [1/n, 1]")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--gnuplot", action="store_true", help="also write a plot script")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("bounds", help="evaluate bounds on an ensemble file")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--subnormalized",
        action="store_true",
        help="states in the file are raw weight-carrying matrices",
    )
    p.set_defaults(func=_cmd_bounds)

    for name, setter in (
        ("optimize-acc", _cmd_optimize_acc),
        ("optimize-power", _cmd_optimize_power),
    ):
        p = sub.add_parser(name, help=f"run the {name.split('-')[1]} optimizer")
        if name == "optimize-acc":
            p.add_argument("--ensemble", required=True)
            p.add_argument("--subnormalized", action="store_true")
        else:
            p.add_argument("--povm", required=True)
        p.add_argument("--restarts", type=int, default=4)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-9)
        p.set_defaults(func=setter)

    p = sub.add_parser("mc-scrooge", help="Monte Carlo check of the min-power curve")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--threads", type=int, default=1, help="must be >= 1; no effect, runs in one thread"
    )
    p.set_defaults(func=_cmd_mc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DimensionTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except ValidationError as exc:
        print(f"error: validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfopurityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGS


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
