import math
import os

import numpy as np
import pytest

from ncdist import figures
from ncdist.bounds import report
from ncdist.figures import (
    FIG1_COLUMNS,
    FIG2_COLUMNS,
    FIG3_COLUMNS,
    compute_rows,
    default_grid,
    fig1_rows,
    fig2_rows,
    fig3_rows,
    format_csv,
    write_figure,
)
from ncdist.states import StateSpec


def test_default_grids():
    g1 = default_grid("fig1")
    assert len(g1) == 60 and g1[0] == 0.05 and g1[-1] == 3.0
    g2 = default_grid("fig2")
    assert len(g2) == 60 and g2[0] == 0.001
    g3 = default_grid("fig3")
    assert len(g3) == 101 and g3[0] == 0.0 and g3[-1] == 1.0
    assert len(default_grid("fig1", 7)) == 7
    with pytest.raises(ValueError):
        default_grid("fig9")


def test_fig3_closed_form():
    rows = fig3_rows(np.array([0.0, 0.5, 1.0]))
    assert rows.shape == (3, len(FIG3_COLUMNS))
    g1 = math.exp(-1.0)
    # eta = 0.5, n = 1: lower max(0, .5 - gamma), upper .5 (1 - gamma)
    assert rows[1, 1] == pytest.approx(0.5 - g1, abs=1e-15)
    assert rows[1, 2] == pytest.approx(0.5 * (1.0 - g1), abs=1e-15)
    g3 = 4.5 * math.exp(-3.0)
    assert rows[1, 5] == pytest.approx(0.5 - g3, abs=1e-15)
    assert np.all(rows[0, 1:] == 0.0)
    # brackets close at eta = 1
    assert np.allclose(rows[2, 1::2], rows[2, 2::2], atol=1e-15)


def test_fig1_sweep_rows():
    cols, rows = compute_rows("fig1", steps=5)
    assert cols == FIG1_COLUMNS
    assert rows.shape == (5, 6)
    beta = rows[:, 0]
    # the coherent-pair witness agrees with its closed form
    analytic = 0.5 * (1.0 - np.exp(-2.0 * beta**2))
    assert np.max(np.abs(rows[:, 4] - analytic)) < 1e-9
    # every row is a consistent bracket
    assert np.all(rows[:, 2] <= rows[:, 3:6].min(axis=1) + 1e-8)
    assert np.all(rows[:, 1] >= 0.0)


def test_fig2_sweep_rows():
    cols, rows = compute_rows("fig2", steps=4)
    assert cols == FIG2_COLUMNS
    assert rows.shape == (4, 7)
    # odd cats approach the single photon: ring distance tends to 1 - 1/e
    assert abs(rows[0, 6] - (1.0 - math.exp(-1.0))) < 1e-3
    assert np.all(rows[:, 2] <= rows[:, 3:7].min(axis=1) + 1e-8)


@pytest.mark.parametrize(
    "parity, rows_of, betas",
    [("even", fig1_rows, (0.3, 1.0, 2.2)), ("odd", fig2_rows, (0.001, 0.8, 2.5))],
)
def test_cat_rows_are_the_named_bounds_of_report(parity, rows_of, betas):
    rows = rows_of(betas)
    for beta, row in zip(betas, rows):
        rep = report(StateSpec("cat", {"parity": parity, "beta": beta}))
        named = {b.name: b for b in rep.lowers + rep.uppers}
        alpha = named["best-point"].witness["alpha"][0]
        expected = [
            beta,
            math.hypot(*alpha),
            named["pure-overlap"].value,
            named["best-point"].value,
            named["sigma-beta"].value,
            named["sigma-alpha-star"].value,
        ]
        if parity == "odd":
            expected.append(named["dephased-ring"].value)
        assert list(row) == expected


def test_fig1_even_cat_at_beta_one_peaks_at_the_vacuum():
    # for beta <= 1 the even cat's Q peaks at the origin, so sigma_alpha* is
    # the vacuum and its distance is the pure-state value sqrt(1 - m)
    row = dict(zip(FIG1_COLUMNS, fig1_rows([1.0])[0]))
    assert row["alpha_star"] == 0.0
    assert abs(row["d_sigma_alphastar"] - row["ub_q"]) <= 1e-15


def test_one_worker_or_one_row_runs_in_the_calling_thread(monkeypatch):
    betas = (0.3, 1.0, 2.2)
    pooled = fig1_rows(betas, max_workers=2)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(figures, "ThreadPoolExecutor", no_pool)
    assert np.array_equal(fig1_rows(betas, max_workers=1), pooled)
    assert np.array_equal(fig1_rows([1.0]), pooled[1:2])


def test_format_csv_layout():
    text = format_csv(("a", "b"), [[0.1, 2.0], [1.0 / 3.0, 4.5]])
    lines = text.split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == "0.10000000000000001,2"
    assert lines[2] == "0.33333333333333331,4.5"
    assert text.endswith("\n") and "\r" not in text


def test_write_figure_artifacts(tmp_path):
    out = str(tmp_path / "sweep3.csv")
    path = write_figure("fig3", out)
    assert path == out
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(FIG3_COLUMNS)
    assert len(lines) == 102
    script = out + ".plot.py"
    assert os.path.exists(script)
    with open(script) as fh:
        body = fh.read()
    assert "sweep3.csv" in body and "matplotlib" in body

    # a second run writes the same bytes
    out2 = str(tmp_path / "sweep3b.csv")
    write_figure("fig3", out2)
    with open(out, "rb") as fh:
        first = fh.read()
    with open(out2, "rb") as fh:
        second = fh.read()
    assert first == second
