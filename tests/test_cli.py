import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncdist
from ncdist.cli import main


def write_state(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_number_state(tmp_path, capsys):
    path = write_state(tmp_path, "one.json", {"kind": "number", "ns": [1]})
    code, out, err = run_cli(capsys, "report", path)
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["exact"] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)
    assert rep["best_lower"] <= rep["best_upper"] + 1e-8
    assert list(rep) == sorted(rep)
    assert {"state_id", "lowers", "uppers", "exact"} <= set(rep)


def test_import_and_reports_load_no_scipy(tmp_path):
    # importing scipy's submodules costs a large part of a second; the
    # Poisson tails, log n!, the displacement exponential and the ring LP
    # are computed in-house, so reports, qsup, figures, verify and the
    # optics load no scipy module at all
    one = write_state(tmp_path, "one.json", {"kind": "number", "ns": [1]})
    mix = write_state(tmp_path, "mix.json", {"kind": "vacuum_number_mixture", "n": 2, "eta": 0.5})
    searched = write_state(tmp_path, "searched.json", {"kind": "mixture", "terms": [
        {"w": 0.5, "state": {"kind": "number", "ns": [1]}},
        {"w": 0.5, "state": {"kind": "coherent", "alpha": [[1, 0]]}},
    ]})
    ring = write_state(tmp_path, "ring.json", {"kind": "phase_randomized", "energy": 1.5})
    fig = str(tmp_path / "fig1.csv")
    code = (
        "import contextlib, io, sys, numpy as np, ncdist, ncdist.cli\n"
        "from ncdist import channels, fock, states\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert ncdist.cli.main(['report', {one!r}]) == 0\n"
        f"    assert ncdist.cli.main(['report', {mix!r}]) == 0\n"
        f"    assert ncdist.cli.main(['report', {searched!r}]) == 0\n"
        f"    assert ncdist.cli.main(['qsup', {searched!r}]) == 0\n"
        f"    assert ncdist.cli.main(['qsup', {ring!r}]) == 0\n"
        f"    assert ncdist.cli.main(['figure', 'fig1', '--steps', '3', '--out', {fig!r}]) == 0\n"
        "    assert ncdist.cli.main(['verify', '--only', 'cat-figures']) == 0\n"
        "psi = fock.coherent_amps([0.3, 0.2j], fock.TruncationSpec((12, 12)))\n"
        "optics = channels.AffineOptics([[0.6, 0.8], [-0.8, 0.6]], [0.2, 0.1j])\n"
        "assert channels.apply_affine(optics, psi).norm_defect() < 1e-9\n"
        "photon = states.StateSpec('single_photon', {'c': (0.6, 0.48j, 0.64)}).build()\n"
        "joint = fock.tensor(photon, fock.coherent_amps([0.5], fock.TruncationSpec((12,))))\n"
        "(wit,) = [b for b in ncdist.report(joint).uppers if b.name == 'factor-witness']\n"
        "assert wit.candidate.rotation is not None\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(ncdist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
    assert Path(fig).exists()


def test_no_module_of_the_package_imports_scipy():
    # scipy is a test dependency only, an oracle for the in-house routines
    found = []
    for path in sorted(Path(ncdist.__file__).resolve().parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []


def test_qsup_on_a_phase_randomized_state(tmp_path, capsys):
    # the ring is searched as its density realized at the default truncation
    ring = write_state(tmp_path, "ring.json", {"kind": "phase_randomized", "energy": 1.5})
    code, out, err = run_cli(capsys, "qsup", ring)
    assert code == 0 and err == ""
    # reference: Q(r) = e^{-E - r^2} I0(2 sqrt(E) r) on a fine grid of radii
    from scipy.special import i0e

    r = np.linspace(0.0, 4.0, 400_001)
    q = i0e(2.0 * math.sqrt(1.5) * r) * np.exp(-((math.sqrt(1.5) - r) ** 2))
    assert json.loads(out)["value"] == pytest.approx(q.max(), abs=1e-9)


def test_qsup_on_a_density_with_no_eigenvalue_above_the_rank_cut(tmp_path, capsys, monkeypatch):
    # no input builds such a density today; the search still names the
    # cause and exits 2
    zero = ncdist.DensityMatrix(ncdist.TruncationSpec((3,)), np.zeros((4, 4)))
    monkeypatch.setattr(ncdist.StateSpec, "build", lambda spec: zero)
    path = write_state(tmp_path, "one.json", {"kind": "number", "ns": [1]})
    code, out, err = run_cli(capsys, "qsup", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: density has no eigenvalue above the rank cut")


def test_qsup_on_a_ring_checks_its_truncation(tmp_path, capsys):
    ring = {"kind": "phase_randomized", "energy": 2.0}
    short = write_state(tmp_path, "short.json", dict(ring, trunc={"cutoffs": [4]}))
    code, out, err = run_cli(capsys, "qsup", short)
    assert code == 3 and out == ""
    assert re.search(r"sufficient cutoffs: \[(\d+)\]", err).group(1) == "18"
    path = write_state(tmp_path, "ring.json", ring)
    code, out, _ = run_cli(capsys, "qsup", path)
    assert code == 0
    code, wide, _ = run_cli(capsys, "qsup", path, "--trunc", "40")
    assert code == 0
    assert json.loads(wide)["value"] == pytest.approx(json.loads(out)["value"], abs=1e-15)


def test_report_cat_has_open_interval(tmp_path, capsys):
    path = write_state(tmp_path, "cat.json", {"kind": "cat", "parity": "even", "beta": 2.0})
    code, out, _ = run_cli(capsys, "report", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["exact"] is None
    assert rep["best_lower"] < rep["best_upper"]


def test_report_coherent_is_classical(tmp_path, capsys):
    path = write_state(tmp_path, "coh.json", {"kind": "coherent", "alpha": [[0.7, -0.2]]})
    code, out, _ = run_cli(capsys, "report", path)
    assert code == 0
    rep = json.loads(out)
    assert rep["best_upper"] < 1e-9
    assert rep["exact"] is not None and rep["exact"] < 1e-9


def test_report_out_flag_writes_file(tmp_path, capsys):
    path = write_state(tmp_path, "one.json", {"kind": "number", "ns": [2]})
    target = tmp_path / "rep.json"
    code, out, _ = run_cli(capsys, "report", path, "--out", str(target))
    assert code == 0
    rep = json.loads(target.read_text())
    assert rep["exact"] == pytest.approx(1.0 - 2.0 * math.exp(-2.0), abs=1e-10)


def test_missing_file_is_schema_error(capsys):
    code, _, err = run_cli(capsys, "report", "/no/such/state.json")
    assert code == 2
    assert err.startswith("error:")


def test_invalid_json_is_schema_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "report", str(path))
    assert code == 2 and "error:" in err


def test_unknown_kind_is_schema_error(tmp_path, capsys):
    path = write_state(tmp_path, "odd.json", {"kind": "squeezed", "r": 1.0})
    code, _, err = run_cli(capsys, "report", str(path))
    assert code == 2 and "/kind" in err


def test_small_cutoff_exits_three(tmp_path, capsys):
    path = write_state(tmp_path, "hot.json", {"kind": "cat", "parity": "even", "beta": 5.0})
    code, _, err = run_cli(capsys, "report", str(path), "--trunc", "4")
    assert code == 3
    assert "cutoff" in err or "trunc" in err.lower()


def test_wide_cat_reports_its_default_bracket(tmp_path, capsys):
    # the coherent-pair witnesses are evaluated on their coherent span, so
    # a 4201-level truncation of the cat realizes no dense witness
    path = write_state(tmp_path, "cat.json", {"kind": "cat", "parity": "even", "beta": 1.0})
    reps = []
    for extra in ((), ("--trunc", "4200")):
        code, out, _ = run_cli(capsys, "report", path, *extra)
        assert code == 0
        reps.append(json.loads(out))
    for key in ("best_lower", "best_upper"):
        assert abs(reps[1][key] - reps[0][key]) <= 1e-12
    assert reps[1]["exact"] is None


@pytest.mark.parametrize(
    "parity, beta, trunc, tail_tol",
    [
        ("odd", 2.0, "10", "0.01"),
        ("odd", 2.0, "12", "1e-3"),
        ("even", 1.3, "8", "1e-3"),
        ("odd", 0.4, "4", "1e-3"),
    ],
)
def test_coarse_cat_truncation_exits_three(tmp_path, capsys, parity, beta, trunc, tail_tol):
    # the cut-off tail moves the peak overlap past 1e-8 but within what
    # its mass allows: a truncation limit, retried at the suggested cutoffs
    path = write_state(tmp_path, "cat.json", {"kind": "cat", "parity": parity, "beta": beta})
    code, out, err = run_cli(capsys, "report", path, "--trunc", trunc, "--tail-tol", tail_tol)
    assert code == 3 and out == ""
    assert "claimed peak overlap" in err
    suggested = re.search(r"sufficient cutoffs: \[(\d+)\]", err).group(1)
    code, default, _ = run_cli(capsys, "report", path)
    assert code == 0
    code, retried, _ = run_cli(capsys, "report", path, "--trunc", suggested, "--tail-tol", tail_tol)
    assert code == 0 and retried == default


def test_oversized_dense_state_exits_three(tmp_path, capsys):
    # a two-mode mixture of number states is reported densely: at 71 levels
    # per mode its density matrix would be 5041 x 5041
    terms = [{"w": 0.5, "state": {"kind": "number", "ns": ns}} for ns in ([1, 0], [0, 2])]
    path = write_state(tmp_path, "wide.json", {"kind": "mixture", "terms": terms})
    code, _, err = run_cli(capsys, "report", path, "--trunc", "70")
    assert code == 3
    assert "5041x5041 dense" in err


def test_sixty_four_two_level_modes(tmp_path, capsys):
    # 2^64 basis states: qsup builds the photon's vector and stops at the
    # basis cap, while the reports build no Fock vector
    photon = write_state(tmp_path, "photon.json", {"kind": "single_photon", "c": [[0.125, 0]] * 64})
    code, out, err = run_cli(capsys, "qsup", photon)
    assert code == 3 and out == ""
    assert "exceeds the cap" in err
    code, out, _ = run_cli(capsys, "report", photon)
    assert code == 0 and abs(json.loads(out)["exact"] - (1.0 - math.exp(-1.0))) <= 1e-12
    number = write_state(tmp_path, "number.json", {"kind": "number", "ns": [1] * 64})
    code, out, _ = run_cli(capsys, "report", number)
    assert code == 0 and json.loads(out)["exact"] is not None


def test_trunc_flag_on_a_wide_noon_state_changes_nothing(tmp_path, capsys):
    # a N00N report reads its support and ignores the truncation, so --trunc
    # is checked for its range only: (2 + 1)^64 basis states are never built
    noon = write_state(tmp_path, "noon.json", {"kind": "noon", "n": 2, "c": [[0.125, 0]] * 64})
    code, plain, _ = run_cli(capsys, "report", noon)
    assert code == 0
    code, flagged, err = run_cli(capsys, "report", noon, "--trunc", "2")
    assert code == 0 and err == "" and flagged == plain
    code, _, err = run_cli(capsys, "report", noon, "--trunc", "0")
    assert code == 2 and "cutoff" in err


def test_wide_entangled_coherent_reports_as_its_cat(tmp_path, capsys):
    # the state is evaluated as the single-mode cat, so no two-mode
    # realization caps it
    ecs = {"kind": "entangled_coherent", "parity": "even", "beta": 6.0, "eta": 0.5}
    cat = {"kind": "cat", "parity": "even", "beta": 6.0}
    reps = []
    for name, state in (("ecs.json", ecs), ("cat.json", cat)):
        code, out, _ = run_cli(capsys, "report", write_state(tmp_path, name, state))
        assert code == 0
        reps.append(json.loads(out))
    for key in ("best_lower", "best_upper", "exact"):
        assert reps[0][key] == reps[1][key]


@pytest.mark.parametrize(
    "text, pointer",
    [
        ('{"kind": "cat", "parity": "even", "beta": Infinity}', "/beta"),
        ('{"kind": "phase_randomized", "energy": Infinity}', "/energy"),
        ('{"kind": "coherent", "alpha": [[NaN, 0]]}', "/alpha/0"),
        ('{"kind": "coherent", "alpha": [[Infinity, 0]]}', "/alpha/0"),
        ('{"kind": "single_photon", "c": [[NaN, 0]]}', "/c/0"),
        (
            '{"kind": "mixture", "terms": '
            '[{"w": NaN, "state": {"kind": "number", "ns": [1]}}]}',
            "/terms/0/w",
        ),
    ],
)
def test_non_finite_number_is_schema_error(tmp_path, capsys, text, pointer):
    path = tmp_path / "nan.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "report", str(path))
    assert code == 2
    assert err.startswith(f"error: {pointer}:")


@pytest.mark.parametrize("tail_tol", ["-1", "0", "1.5", "nan"])
@pytest.mark.parametrize(
    "state",
    [
        {"kind": "number", "ns": [1, 1]},
        {"kind": "cat", "parity": "odd", "beta": 1.0},
        # its family default cutoffs pass the basis cap
        {"kind": "coherent", "alpha": [[1, 0]] * 6},
    ],
)
def test_tail_tol_outside_the_unit_interval_is_schema_error(tmp_path, capsys, state, tail_tol):
    path = write_state(tmp_path, "state.json", state)
    code, _, err = run_cli(capsys, "report", path, "--tail-tol", tail_tol)
    assert code == 2
    assert err.startswith("error: tail_tol must lie in (0, 1)")


@pytest.mark.parametrize(
    "state, trunc",
    [
        # 11 levels just hold this cat to 1e-12, so a witness padded to the
        # budget would have moved with it
        ({"kind": "cat", "parity": "odd", "beta": 0.7}, ("--trunc", "11")),
        ({"kind": "cat", "parity": "even", "beta": 3.0}, ()),
        ({"kind": "entangled_coherent", "parity": "even", "beta": 1.5, "eta": 0.3}, ()),
    ],
)
def test_cat_reports_do_not_depend_on_tail_tol(tmp_path, capsys, state, trunc):
    # every cat witness is exact with no truncation, so no tail budget enters
    path = write_state(tmp_path, "state.json", state)
    outs = []
    for extra in ((), ("--tail-tol", "1e-6")):
        code, out, _ = run_cli(capsys, "report", path, *trunc, *extra)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_tail_tol_leaves_an_unbuilt_coherent_product_alone(tmp_path, capsys):
    # six modes at the family default cutoffs pass the basis cap, but the
    # report of a coherent product builds no state
    path = write_state(tmp_path, "coherent.json", {"kind": "coherent", "alpha": [[1, 0]] * 6})
    outs = []
    for extra in ((), ("--tail-tol", "1e-10")):
        code, out, _ = run_cli(capsys, "report", path, *extra)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_tail_tol_binds_the_state_truncation_without_trunc(tmp_path, capsys):
    # 11 levels hold this cat to 1e-12 but not to 1e-15
    state = {"kind": "cat", "parity": "odd", "beta": 0.7, "trunc": {"cutoffs": [11]}}
    path = write_state(tmp_path, "cat.json", state)
    code, out, err = run_cli(capsys, "report", path, "--tail-tol", "1e-15")
    assert code == 3 and out == ""
    assert "exceeds tail_tol 1.0e-15" in err
    assert re.search(r"sufficient cutoffs: \[(\d+)\]", err).group(1) == "13"
    code, out, _ = run_cli(capsys, "report", path, "--tail-tol", "1e-15", "--trunc", "13")
    assert code == 0 and json.loads(out)["best_lower"] > 0.5


def test_tail_tol_flag_and_json_budget_give_one_factor_witness(tmp_path, capsys):
    # (an even mixture of the even cat at 0.5 and the odd cat at 0.4) x
    # |0><0|, as entangled-coherent states at eta = 1: 8 levels per mode
    # hold the state to 1e-6 but not to 1e-12 (a mixture of coherent states
    # alone is its own witness and builds nothing)
    terms = [
        {"w": 0.5, "state": {"kind": "entangled_coherent", "parity": p, "beta": b, "eta": 1.0}}
        for p, b in (("even", 0.5), ("odd", 0.4))
    ]
    flag = write_state(tmp_path, "flag.json",
                       {"kind": "mixture", "terms": terms, "trunc": {"cutoffs": [8, 8]}})
    budget = write_state(tmp_path, "budget.json", {
        "kind": "mixture", "terms": terms, "trunc": {"cutoffs": [8, 8], "tail_tol": 1e-6},
    })
    code, _, _ = run_cli(capsys, "report", flag)
    assert code == 3
    code, by_flag, _ = run_cli(capsys, "report", flag, "--tail-tol", "1e-6")
    assert code == 0
    code, by_json, _ = run_cli(capsys, "report", budget)
    assert code == 0 and by_flag == by_json
    (wit,) = [u for u in json.loads(by_flag)["uppers"] if u["name"] == "factor-witness"]
    factors = wit["witness"]["components"][0]["factors"]
    assert [f["type"] for f in factors] == ["ring", "ring"]


@pytest.mark.parametrize("tail_tol", ["-1", "0", "1.5", "nan"])
def test_qsup_checks_tail_tol_without_trunc(tmp_path, capsys, tail_tol):
    path = write_state(tmp_path, "one.json", {"kind": "number", "ns": [1]})
    code, out, err = run_cli(capsys, "qsup", path, "--tail-tol", tail_tol)
    assert code == 2 and out == ""
    assert err.startswith("error: tail_tol must lie in (0, 1)")


def test_figure_fig3(tmp_path, capsys):
    out = tmp_path / "f3.csv"
    code, stdout, _ = run_cli(capsys, "figure", "fig3", "--out", str(out))
    assert code == 0
    assert str(out) in stdout
    lines = out.read_text().splitlines()
    assert lines[0].startswith("eta,lb_1,ub_1")
    assert len(lines) == 102
    assert os.path.exists(str(out) + ".plot.py")
    body = np.genfromtxt(str(out), delimiter=",", skip_header=1)
    for n in range(1, 5):
        assert np.all(body[:, 2 * n - 1] <= body[:, 2 * n] + 1e-8)


def test_figure_repeat_is_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(capsys, "figure", "fig1", "--steps", "4", "--out", str(a))[0] == 0
    assert run_cli(capsys, "figure", "fig1", "--steps", "4", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_figure_takes_no_seed(tmp_path):
    # the sweeps run no random search and every row uses the default tail
    # budget; --seed and --tail-tol belong to report and qsup
    for flag, value in (("--seed", "3"), ("--tail-tol", "1e-10")):
        with pytest.raises(SystemExit):
            main(["figure", "fig3", flag, value, "--out", str(tmp_path / "f.csv")])


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_figure_steps_below_one_is_schema_error(tmp_path, capsys, steps):
    out = tmp_path / "f3.csv"
    code, stdout, err = run_cli(capsys, "figure", "fig3", "--steps", steps, "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: steps must be at least 1")
    assert not out.exists()


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_qsup_steps_below_one_is_schema_error(tmp_path, capsys, steps):
    path = write_state(tmp_path, "one.json", {"kind": "number", "ns": [1]})
    code, out, err = run_cli(capsys, "qsup", path, "--steps", steps)
    assert code == 2 and out == ""
    assert err.startswith("error: n_starts must be at least 1")


def test_qsup_number_state(tmp_path, capsys):
    path = write_state(tmp_path, "two.json", {"kind": "number", "ns": [2]})
    code, out, _ = run_cli(capsys, "qsup", path, "--trunc", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.27067056647322557, abs=1e-7)
    assert payload["converged"] is True
    # the optimum of a number state sits on a whole ring of amplitudes
    assert payload["ties"] is True
    top = payload["argmax"][0]
    assert len(top) == 1
    assert math.hypot(*top[0]) == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_qsup_prints_strict_json_for_an_uncertified_search(tmp_path, capsys):
    path = write_state(tmp_path, "two.json", {"kind": "number", "ns": [2]})
    code, out, _ = run_cli(capsys, "qsup", path, "--steps", "1")
    assert code == 0

    def reject(token):
        raise AssertionError(f"{token} is not a JSON value")

    payload = json.loads(out, parse_constant=reject)
    assert payload["certificate"] is None and payload["converged"] is False


def test_verify_only_filter(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "eigen")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert lines and all(ln.startswith("[PASS]") for ln in lines)
    assert "checks passed" in out


def test_verify_stdout_holds_only_the_table(capsys):
    # the determinism check writes figures; nothing of that may reach stdout
    code, out, _ = run_cli(capsys, "verify", "--only", "determinism")
    assert code == 0
    *rows, summary = out.splitlines()
    assert rows and all(ln.startswith(("[PASS]", "[FAIL]")) for ln in rows)
    assert re.fullmatch(r"\d+/\d+ checks passed", summary)


def test_verify_unknown_filter(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "nonesuch")
    assert code == 2
    assert "nonesuch" in err


def test_consecutive_calls_do_not_share_flags(tmp_path, capsys, monkeypatch):
    # main reuses one parser: a flag given to one call must not reach the next
    from ncdist import cli

    seen = []
    load = cli._load_spec

    def spy(args):
        seen.append((args.trunc, args.tail_tol, args.seed, args.out))
        return load(args)

    monkeypatch.setattr(cli, "_load_spec", spy)
    path = write_state(tmp_path, "one.json", {"kind": "number", "ns": [1]})
    out = str(tmp_path / "rep.json")
    code, plain, _ = run_cli(capsys, "report", path)
    assert code == 0
    code, _, _ = run_cli(capsys, "report", path, "--trunc", "4", "--tail-tol", "0.5",
                         "--seed", "3", "--out", out)
    assert code == 0
    code, again, _ = run_cli(capsys, "report", path)
    assert code == 0 and again == plain
    assert seen[0] == seen[2] == (None, None, cli.DEFAULT_SEED, None)
    assert seen[1] == (4, 0.5, 3, out)
