"""The benchmark under ``perfbench/`` wraps ncdist functions and calls the
figure sweeps by name; these tests fail when a name it needs is gone."""

import ast
import importlib
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


def _submodule(module: str, name: str):
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def _ncdist_reads(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every name a benchmark file imports from an ncdist
    module, and every attribute it reads off a name bound to one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ncdist":
                    local = alias.asname or alias.name.split(".")[0]
                    modules[local] = alias.name if alias.asname else "ncdist"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ncdist":
            for alias in node.names:
                reads.append((node.module, alias.name))
                if _submodule(node.module, alias.name) is not None:
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            reads.append((modules[node.value.id], node.attr))
    return reads


def test_every_ncdist_name_the_benchmark_reads_resolves():
    for name in ("workloads.py", "run.py"):
        reads = _ncdist_reads(PERFBENCH / name)
        assert reads, name
        missing = [
            f"{mod}.{attr}"
            for mod, attr in reads
            if not hasattr(importlib.import_module(mod), attr) and _submodule(mod, attr) is None
        ]
        assert not missing, f"perfbench/{name} reads {missing}"


def test_report_binds_one_positional_state():
    # perfbench/workloads.py calls bounds.report(image) and, in its
    # checker, report(StateSpec(...))
    inspect.signature(bounds.report).bind(object())
