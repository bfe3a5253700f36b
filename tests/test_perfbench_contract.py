"""The benchmark under ``perfbench/`` wraps ncdist functions and calls the
figure sweeps by name; these tests fail when a name it needs is gone."""

import importlib.util
import inspect
from pathlib import Path

from ncdist import bounds, figures

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_tracer_wraps_every_layer():
    report = bounds.report
    tracer = _tracer_module().Tracer()
    # install raises on a layer name that no ncdist module defines
    tracer.install()
    try:
        assert bounds.report is not report
    finally:
        tracer.uninstall()
    assert bounds.report is report


def test_figure_rows_take_the_benchmark_arguments():
    # perfbench/workloads.py runs one sweep row as fig*_rows([beta], max_workers=1)
    for rows in (figures.fig1_rows, figures.fig2_rows):
        inspect.signature(rows).bind([1.0], max_workers=1)
