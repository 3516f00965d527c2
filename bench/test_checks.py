"""The benchmark's checkers accept the program's real output and reject a
deliberately wrong one, so that a check which passes everything shows up.

    python3 -m pytest -q bench/test_checks.py
"""

import contextlib
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from boltzkit import cli, equilibrium  # noqa: E402
from boltzkit.core import ProbabilityVector  # noqa: E402
from checks import CheckFailed  # noqa: E402

SEED = 7


# -- oracle-enum ---------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle_case():
    w = workloads.OracleEnum(SEED, None)
    return w, w.run(0)


def test_oracle_accepts_program_output(oracle_case):
    w, result = oracle_case
    w.check(0, result)


def test_oracle_rejects_argmax_moved_by_one_particle(oracle_case):
    w, (norm, mode, _) = oracle_case
    argmax = json.loads(mode.exact_value)
    moves = [(i, j) for i in range(4) for j in range(4) if i != j and argmax[i] > 0]
    assert moves
    for i, j in moves:
        moved = list(argmax)
        moved[i] -= 1
        moved[j] += 1
        weight = math.factorial(30)
        for x in moved:
            weight //= math.factorial(x)
        # the ratio matches the moved state, so only the argmax check can fail
        ratio = float(Fraction(weight, 4 ** 30))
        bad = dataclasses.replace(mode, exact_value=str(moved))
        with pytest.raises(CheckFailed, match="improves"):
            w.check(0, (norm, bad, ratio))


def test_oracle_rejects_inexact_normalization(oracle_case):
    w, (norm, mode, ratio) = oracle_case
    bad = [dataclasses.replace(norm[0], exact_value="0.99999999999999999999")] + norm[1:]
    with pytest.raises(CheckFailed, match="normalization"):
        w.check(0, (bad, mode, ratio))


def test_oracle_rejects_wrong_mean(oracle_case):
    w, (norm, mode, ratio) = oracle_case
    wrong = str(Fraction(norm[2].exact_value) + Fraction(1, 2 ** 60))
    bad = norm[:2] + [dataclasses.replace(norm[2], exact_value=wrong)] + norm[3:]
    with pytest.raises(CheckFailed, match="mean of level 2"):
        w.check(0, (bad, mode, ratio))


def test_oracle_rejects_wrong_weight_ratio(oracle_case):
    w, (norm, mode, ratio) = oracle_case
    with pytest.raises(CheckFailed, match="weight ratio"):
        w.check(0, (norm, mode, ratio * (1 + 1e-11)))


# -- equilibrium-solve ---------------------------------------------------------

@pytest.fixture(scope="module")
def solve_case():
    w = workloads.EquilibriumSolve(SEED, None)
    return w, w.run(0)


def test_solve_accepts_program_output(solve_case):
    w, result = solve_case
    w.check(0, result)


def test_solve_rejects_p_perturbed_by_1e_9(solve_case):
    w, (sol, forms, cross) = solve_case
    p = list(sol.distribution.entries)
    p[0] += 1e-9
    p[1] -= 1e-9
    bad = dataclasses.replace(sol, distribution=ProbabilityVector(p))
    with pytest.raises(CheckFailed, match="log-sum-exp"):
        w.check(0, (bad, forms, cross))


def test_solve_rejects_a_beta_that_misses_the_target(solve_case):
    w, (sol, forms, cross) = solve_case
    spectrum, prior = w.inputs[0]
    levels = spectrum.levels
    off = equilibrium.generalized_distribution(
        spectrum, prior, sol.beta + 1e-3 / (max(levels) - min(levels)))
    with pytest.raises(CheckFailed, match="misses target"):
        w.check(0, (off, forms, cross))


@pytest.mark.parametrize("which", [0, 1])
def test_solve_rejects_wrong_entropy_form(solve_case, which):
    w, (sol, forms, cross) = solve_case
    bad = list(forms)
    bad[which] += 1e-6
    with pytest.raises(CheckFailed, match="entropy"):
        w.check(0, (sol, tuple(bad), cross))


def test_solve_rejects_a_failed_inequality_flag(solve_case):
    w, (sol, forms, cross) = solve_case
    with pytest.raises(CheckFailed, match="inequality"):
        w.check(0, (sol, (forms[0], forms[1], False), cross))


@pytest.mark.parametrize("factor", [-1.0, 1.0 + 1e-6])
def test_solve_rejects_wrong_divergence(solve_case, factor):
    w, (sol, forms, cross) = solve_case
    with pytest.raises(CheckFailed, match="D\\(p"):
        w.check(0, (sol, forms, cross * factor))


# -- cli-session ---------------------------------------------------------------

@pytest.fixture(scope="module")
def session_case(tmp_path_factory):
    session = workloads.CliSession(SEED, tmp_path_factory.mktemp("cli"))
    outputs = {}
    for name in session.COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(session.argv[name])
        outputs[name] = (code, out.getvalue().encode())
    return session, outputs


def _edit(outputs, name, fn):
    code, out = outputs[name]
    return {**outputs, name: (code, fn(out.decode()).encode())}


def test_session_accepts_in_process_output(session_case):
    session, outputs = session_case
    session.check(0, outputs)


def test_session_accepts_real_processes_and_compares_runs(session_case):
    session, outputs = session_case
    first = session.run(0)
    session.check(0, first)
    assert first == outputs  # the in-process bytes equal the processes' bytes


def test_session_rejects_a_missing_csv_row(session_case):
    session, outputs = session_case
    bad = _edit(outputs, "sweep", lambda t: "".join(t.splitlines(True)[:-1]))
    with pytest.raises(CheckFailed, match="sweep: 199 rows"):
        session.check(0, bad)


def test_session_rejects_a_perturbed_printed_value(session_case):
    session, outputs = session_case

    def perturb(text):
        lines = text.splitlines(True)
        cells = lines[3].split(",")
        cells[3] = f"{float(cells[3]) * (1 + 1e-9):.12g}"
        lines[3] = ",".join(cells)
        return "".join(lines)

    with pytest.raises(CheckFailed, match="solve row 2 probability"):
        session.check(0, _edit(outputs, "solve", perturb))


def test_session_rejects_a_failing_verify_line(session_case):
    session, outputs = session_case
    bad = _edit(outputs, "verify", lambda t: t.replace("PASS", "FAIL", 1))
    with pytest.raises(CheckFailed, match="not PASS"):
        session.check(0, bad)


def test_session_rejects_a_wrong_closed_form(session_case):
    session, outputs = session_case

    def perturb(text):
        rows = [json.loads(line) for line in text.splitlines()]
        rows[0]["closed_form_energy"] *= 1 + 1e-9
        return "".join(json.dumps(r) + "\n" for r in rows)

    with pytest.raises(CheckFailed, match="closed form"):
        session.check(0, _edit(outputs, "oscillator", perturb))


def test_session_rejects_a_nonzero_exit(session_case):
    session, outputs = session_case
    with pytest.raises(CheckFailed, match="exited 1"):
        session.check(0, {**outputs, "verify": (1, outputs["verify"][1])})


def test_session_rejects_a_real_process_that_exits_non_zero(tmp_path):
    session = workloads.CliSession(SEED, tmp_path)
    (tmp_path / "system.json").unlink()  # distribution, sweep and solve now exit 2
    outputs = session.run(0)
    assert outputs["distribution"][0] == 2
    with pytest.raises(CheckFailed, match="distribution exited 2"):
        session.check(0, outputs)


def test_session_rejects_stdout_that_changes_between_operations(session_case):
    session, outputs = session_case
    first = _edit(outputs, "distribution", lambda t: t.replace("0", "1", 1))
    with pytest.raises(CheckFailed, match="distribution stdout changed"):
        checks.check_session(session, outputs, first)
