#!/usr/bin/env python3
"""Count the Standing draws whose peak the default Husimi search misses.

    python3 tools/standing_misses.py [SEED ...] [--checkout DIR]

Builds the draws s = 0..149 of the ROADMAP's Standing
multistart recipe: ``rng = default_rng(s)``, one unused
``rng.integers(2, 6)``, then a 6x6x6 complex Gaussian array kept where
``rng.random`` < 0.4, normalized, on the truncation (5, 5, 5).  Each
draw's reference peak is the best of ``q_sup(psi, n_starts=400, seed=k)``
for k = 7, 8, 9.  For each SEED (default: 1729, the default seed, and
1..23) it prints how many draws ``q_sup`` with its default starts misses
by more than 1e-9, without hints and with the report's mode-energy hint
(``sqrt(mode_energies(psi))``), then the mean counts over the seeds.

DIR is the source tree whose ``src/`` is used (default: the one holding
this script), so two commits can be measured from two checkouts.  One BLAS
thread is used.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

DRAWS = 150
MISS_TOL = 1e-9
REFERENCE_SEEDS = (7, 8, 9)
REFERENCE_STARTS = 400
DEFAULT_SEEDS = (1729,) + tuple(range(1, 24))


def standing_draw(seed: int):
    import numpy as np
    from ncdist.fock import FockVector, TruncationSpec

    rng = np.random.default_rng(seed)
    rng.integers(2, 6)
    amps = (rng.normal(size=(6, 6, 6)) + 1j * rng.normal(size=(6, 6, 6))) * (
        rng.random((6, 6, 6)) < 0.4
    )
    return FockVector(TruncationSpec((5, 5, 5)), amps / np.linalg.norm(amps))


def misses(draws, peaks, seed: int) -> tuple[list[int], list[int]]:
    """The draws (by index) the default search misses at ``seed``, without
    and with the mode-energy hint."""
    import numpy as np
    from ncdist.fock import mode_energies
    from ncdist.husimi import q_sup

    plain, hinted = [], []
    for s, (psi, peak) in enumerate(zip(draws, peaks)):
        if q_sup(psi, seed=seed).value < peak - MISS_TOL:
            plain.append(s)
        hint = [np.sqrt(mode_energies(psi)).astype(np.complex128)]
        if q_sup(psi, hint, seed=seed).value < peak - MISS_TOL:
            hinted.append(s)
    return plain, hinted


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("seeds", nargs="*", type=int, default=list(DEFAULT_SEEDS))
    ap.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    args = ap.parse_args(argv)
    for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[v] = "1"
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    sys.path.insert(0, str(args.checkout / "src"))
    from ncdist.husimi import q_sup

    draws = [standing_draw(s) for s in range(DRAWS)]
    peaks = [
        max(q_sup(psi, n_starts=REFERENCE_STARTS, seed=k).value for k in REFERENCE_SEEDS)
        for psi in draws
    ]
    totals = [0, 0]
    for seed in args.seeds:
        plain, hinted = misses(draws, peaks, seed)
        totals[0] += len(plain)
        totals[1] += len(hinted)
        print(f"seed {seed}: {len(plain)} missed {plain}; with hint {len(hinted)} missed {hinted}")
    n = len(args.seeds)
    print(f"mean over {n} seeds: {totals[0] / n:.2f} missed; with hint {totals[1] / n:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
