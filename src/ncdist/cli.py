"""Command-line front end: bound reports, figure sweeps, acceptance runs.

Exit codes: 0 success, 1 failed verification, 2 unreadable or invalid
state description, 3 truncation or dimension limits, 4 internal numerical
inconsistency.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .bounds import report
from .errors import (
    DimensionTooLarge,
    NumericalInconsistency,
    SchemaError,
    TruncationTooSmall,
)
from .figures import FIGURES, write_figure
from .fock import DEFAULT_TAIL_TOL, TruncationSpec
from .husimi import DEFAULT_SEED, q_sup
from .states import StateSpec, parse_state
from .verify import format_results, run_checks

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_SCHEMA = 2
EXIT_TRUNCATION = 3
EXIT_NUMERICAL = 4


def _load_spec(args) -> StateSpec:
    """The state, with ``--trunc`` and ``--tail-tol`` each replacing their
    own half of its truncation (the JSON ``trunc``, else the family
    default); ``TruncationSpec`` checks both.  A family default past the
    basis cap stays unset, as without the flags: a report may build no
    state (a coherent product)."""
    with open(args.state, "r", encoding="utf-8") as fh:
        spec = parse_state(fh.read())
    if args.trunc is None and args.tail_tol is None:
        return spec
    budget = DEFAULT_TAIL_TOL if spec.trunc is None else spec.trunc.tail_tol
    tail_tol = budget if args.tail_tol is None else args.tail_tol
    # the family default's cutoffs are resolved only when they are kept:
    # on a state that --trunc shrinks they may pass the basis cap
    if args.trunc is not None:
        cutoffs = (args.trunc,) * spec.nmodes
    else:
        try:
            cutoffs = spec.resolved_trunc().cutoffs
        except DimensionTooLarge:
            TruncationSpec((1,), tail_tol)  # the budget's range is checked all the same
            return spec
    return dataclasses.replace(spec, trunc=TruncationSpec(cutoffs, tail_tol))


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_report(args) -> int:
    rep = report(_load_spec(args), seed=args.seed)
    _emit(json.dumps(rep.to_dict(), indent=2, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_figure(args) -> int:
    out = args.out or f"{args.which}.csv"
    path = write_figure(args.which, out, steps=args.steps)
    print(f"wrote {path} and {path}.plot.py")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_checks(args.only)
    text, ok = format_results(results)
    _emit(text, args.out)
    return EXIT_OK if ok else EXIT_FAILED


def _cmd_qsup(args) -> int:
    sup = q_sup(_load_spec(args).build(), seed=args.seed, n_starts=args.steps)
    payload = {
        "value": sup.value,
        "argmax": [
            [[float(z.real), float(z.imag)] for z in np.atleast_1d(a)]
            for a in sup.argmax
        ],
        # strict JSON has no Infinity: an uncertified search prints null
        "certificate": sup.certificate if math.isfinite(sup.certificate) else None,
        "method": sup.method,
        "n_evaluations": sup.n_evaluations,
        "ties": sup.ties,
        "converged": sup.converged,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK


def _add_state_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("state", help="path to a JSON state description")
    p.add_argument("--trunc", type=int, default=None, help="uniform per-mode cutoff override")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="multistart seed")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tail-tol", type=float, default=None, help="truncation tail budget override")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncdist",
        description="Certified bounds on the distance from Fock-space states to the classical set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="print the certified bound report for a state")
    _add_state_flags(p)
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("figure", help="write a sweep CSV plus a plotting script")
    p.add_argument("which", choices=FIGURES)
    p.add_argument("--steps", type=int, default=None, help="grid size override")
    p.add_argument("--out", default=None, help="CSV path (default <which>.csv)")
    p.set_defaults(handler=_cmd_figure)

    p = sub.add_parser("verify", help="run the acceptance corpus")
    p.add_argument("--only", default=None, help="substring filter on check names")
    p.add_argument("--out", default=None, help="write the table to this path")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("qsup", help="print the Husimi supremum search result")
    _add_state_flags(p)
    p.add_argument("--steps", type=int, default=None, help="multistart count override")
    _add_common_flags(p)
    p.set_defaults(handler=_cmd_qsup)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser costs many parses; each parse fills a fresh
    # namespace from the defaults, so one parser serves every call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (TruncationTooSmall, DimensionTooLarge) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_TRUNCATION
    except NumericalInconsistency as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SchemaError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
