#!/usr/bin/env python3
"""Count the Husimi searches of one pass over the ``mixed-optics`` catalog.

    python3 tools/search_counts.py [--checkout DIR]

Runs every ``mixed-optics`` catalog input once, through
``perfbench/workloads.prepare`` with one BLAS thread, and prints per slot
the multistart searches (``husimi.q_sup`` calls), their batched rounds
(calls of the search's evaluator, the initial evaluation of the starts
included) and their evaluations (rows those calls evaluate, which sum to
the searches' ``n_evaluations``), then the totals.  The counts come from
wrapping ``husimi._BargmannTarget`` here, so the program keeps no counter.

DIR is the source tree whose ``src/`` and ``perfbench/`` are used
(default: the one holding this script), so two commits can be measured
from two checkouts.  Nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD = "mixed-optics"
INPUTS_PER_SLOT = None  # the first inputs of each slot to run; None runs all


class _Counts:
    """Searches, rounds and evaluations of ``_BargmannTarget`` while
    installed (as a context manager); an evaluation split into chunks
    counts as one round."""

    def __init__(self, target_class):
        self.searches = self.rounds = self.evaluations = 0
        self._class = target_class
        self._depth = 0

    def __enter__(self):
        init, evaluate = self._class.__init__, self._class.evaluate
        self._saved = init, evaluate

        def counted_init(target, state):
            self.searches += 1
            init(target, state)

        def counted_evaluate(target, x):
            if self._depth == 0:
                self.rounds += 1
                self.evaluations += len(x)
            self._depth += 1
            try:
                return evaluate(target, x)
            finally:
                self._depth -= 1

        self._class.__init__, self._class.evaluate = counted_init, counted_evaluate
        return self

    def __exit__(self, *exc):
        self._class.__init__, self._class.evaluate = self._saved

    def snapshot(self) -> tuple[int, int, int]:
        return self.searches, self.rounds, self.evaluations


def count(checkout: Path) -> list[tuple[str, int, int, int]]:
    """(slot, searches, rounds, evaluations) for each ``mixed-optics`` slot."""
    for v in THREAD_VARS:
        os.environ[v] = "1"
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads as wl
    from ncdist import husimi

    rows = []
    with tempfile.TemporaryDirectory() as workdir, _Counts(husimi._BargmannTarget) as counts:
        for slot in wl.WORKLOADS[WORKLOAD].slots:
            before = counts.snapshot()
            for inp in slot.entries[:INPUTS_PER_SLOT]:
                try:
                    wl.prepare(inp, workdir)()
                except Exception as err:  # a failed op still counts its searches
                    failure = f"{type(err).__name__}: {err}"
                    print(f"{slot.name}: {failure}: {wl.key(inp)}", file=sys.stderr)
            after = counts.snapshot()
            rows.append((slot.name,) + tuple(b - a for a, b in zip(before, after)))
    return rows


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    args = ap.parse_args(argv)
    rows = count(args.checkout.resolve())
    print(f"{'slot':16s} {'searches':>9s} {'rounds':>7s} {'evaluations':>12s}")
    for name, searches, rounds, evaluations in rows:
        print(f"{name:16s} {searches:9d} {rounds:7d} {evaluations:12d}")
    totals = [sum(r[i] for r in rows) for i in (1, 2, 3)]
    print(f"{'total':16s} {totals[0]:9d} {totals[1]:7d} {totals[2]:12d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
