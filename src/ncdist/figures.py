"""Reproducible CSV sweeps over the cat-state and mixture families.

Each sweep evaluates one state per grid point and writes a plain CSV
(header row, comma separated, LF endings, 17 significant digits) plus a
small standalone plotting script next to it. A cat row is one ``report``
on that cat, read off by bound name, so the figures show exactly what
``ncdist report`` prints. Nothing in a sweep is random and rows are
assembled in grid order whatever the thread pool does, so repeated runs
are byte-identical.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .bounds import report
from .husimi import gamma_n
from .states import StateSpec

FIG1_COLUMNS = (
    "beta",
    "alpha_star",
    "lb_q",
    "ub_q",
    "d_sigma_beta",
    "d_sigma_alphastar",
)
FIG2_COLUMNS = FIG1_COLUMNS + ("d_phase_randomized",)
FIG3_COLUMNS = ("eta",) + tuple(
    f"{kind}_{n}" for n in range(1, 5) for kind in ("lb", "ub")
)

FIGURES = ("fig1", "fig2", "fig3")


def default_grid(which: str, steps: int | None = None):
    if steps is not None and steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if which == "fig1":
        return np.linspace(0.05, 3.0, steps or 60)
    if which == "fig2":
        return np.linspace(0.001, 3.0, steps or 60)
    if which == "fig3":
        return np.linspace(0.0, 1.0, steps or 101)
    raise ValueError(f"unknown figure {which!r} (expected one of {FIGURES})")


def _cat_row(parity, beta, with_ring):
    rep = report(StateSpec("cat", {"parity": parity, "beta": float(beta)}))
    named = {b.name: b for b in rep.lowers + rep.uppers}
    alpha_star = abs(complex(*named["best-point"].witness["alpha"][0]))
    row = [float(beta), alpha_star] + [
        named[n].value
        for n in ("pure-overlap", "best-point", "sigma-beta", "sigma-alpha-star")
    ]
    if with_ring:
        row.append(named["dephased-ring"].value)
    return row


def _map_rows(row, betas, max_workers):
    # one worker or one row: run in the calling thread, since handing a
    # millisecond row to a pool thread costs as much as the row on a busy host
    if max_workers == 1 or len(betas) < 2:
        return np.array([row(b) for b in betas])
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return np.array(list(pool.map(row, betas)))


def fig1_rows(betas=None, *, max_workers=None):
    """Even-cat sweep: Q-based bracket plus the two coherent-pair witnesses."""
    betas = default_grid("fig1") if betas is None else np.asarray(betas, dtype=float)
    return _map_rows(lambda b: _cat_row("even", b, False), betas, max_workers)


def fig2_rows(betas=None, *, max_workers=None):
    """Odd-cat sweep; adds the distance to the ring at the Q-peak energy."""
    betas = default_grid("fig2") if betas is None else np.asarray(betas, dtype=float)
    return _map_rows(lambda b: _cat_row("odd", b, True), betas, max_workers)


def fig3_rows(etas=None):
    """Vacuum-number mixture bracket, closed form for n = 1..4."""
    etas = default_grid("fig3") if etas is None else np.asarray(etas, dtype=float)
    cols = [etas]
    for n in range(1, 5):
        g = float(gamma_n(n))
        cols.append(np.maximum(0.0, etas - g))
        cols.append(etas * (1.0 - g))
    return np.column_stack(cols)


def compute_rows(which, *, steps=None):
    grid = default_grid(which, steps)
    if which == "fig1":
        return FIG1_COLUMNS, fig1_rows(grid)
    if which == "fig2":
        return FIG2_COLUMNS, fig2_rows(grid)
    return FIG3_COLUMNS, fig3_rows(grid)


def format_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in np.asarray(rows):
        lines.append(",".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


_PLOT_TEMPLATE = '''"""Plot {csv_name} (generated alongside the CSV)."""
import numpy as np
import matplotlib.pyplot as plt

data = np.genfromtxt("{csv_name}", delimiter=",", names=True)
x = data["{xcol}"]
fig, ax = plt.subplots(figsize=(6.0, 4.0))
for col in {ycols!r}:
    ax.plot(x, data[col], label=col.replace("_", " "))
ax.set_xlabel("{xcol}")
ax.set_ylabel("trace distance")
ax.set_ylim(bottom=0.0)
ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig("{png_name}", dpi=160)
print("wrote {png_name}")
'''


def write_figure(which, out_path, *, steps=None) -> str:
    """Write the sweep CSV and a companion plotting script; returns the CSV path."""
    columns, rows = compute_rows(which, steps=steps)
    text = format_csv(columns, rows)
    with open(out_path, "w", newline="\n") as fh:
        fh.write(text)
    csv_name = os.path.basename(str(out_path))
    stem = csv_name[:-4] if csv_name.endswith(".csv") else csv_name
    script = _PLOT_TEMPLATE.format(
        csv_name=csv_name,
        xcol=columns[0],
        ycols=list(columns[1:]),
        png_name=stem + ".png",
    )
    with open(str(out_path) + ".plot.py", "w", newline="\n") as fh:
        fh.write(script)
    return str(out_path)


__all__ = [
    "FIG1_COLUMNS",
    "FIG2_COLUMNS",
    "FIG3_COLUMNS",
    "FIGURES",
    "compute_rows",
    "default_grid",
    "fig1_rows",
    "fig2_rows",
    "fig3_rows",
    "format_csv",
    "write_figure",
]
