"""Bad inputs that each end in their documented family, at raise sites that
no other test reaches."""

import json
import subprocess
import sys

import pytest

from boltzkit import (EnergySpectrum, Macrostate, occupation_cross_entropy,
                      solve_beta, stirling_entropy, uniform_prior, validate_spec)
from boltzkit.core import load_spec
from boltzkit.errors import NumericError, ValidationError
from boltzkit.oracle import default_suite


def _spec_file(tmp_path, text):
    path = tmp_path / "spec.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return str(path)


#: Spec files that json.load cannot decode, each a "malformed JSON" error.
UNDECODABLE = {
    "not-utf8": b'{"levels": [0, 1], "priors": [0.5, 0.5], "N": 2, "\xff": 0}',
    "nested-200000-deep": b"[" * 200_000 + b"]" * 200_000,
    "N-of-4301-digits": b'{"levels": [0, 1], "priors": [0.5, 0.5], "N": 1'
                        + b"0" * 4300 + b"}",
    "level-of-4301-digits": b'{"levels": [0, 1' + b"0" * 4300
                            + b'], "priors": [0.5, 0.5], "N": 2}',
}

#: A spec whose priors float() would take as 1.0 and 0.0: a point mass.
BOOLEAN_PRIORS = '{"levels": [0, 1], "priors": [true, false], "N": 2}'

CASES = {
    "solve_beta-unresolvable-target": (
        lambda tmp: solve_beta(EnergySpectrum([0.0, 1e308]), uniform_prior(2), 1e-320),
        NumericError, "target 1e-320 is not resolvable"),
    "Macrostate-no-levels": (
        lambda tmp: Macrostate([]), ValidationError, "at least one level"),
    "stirling_entropy-no-particles": (
        lambda tmp: stirling_entropy(Macrostate([0, 0])),
        ValidationError, "at least one particle"),
    "mean-occupation-not-finite": (
        lambda tmp: occupation_cross_entropy(Macrostate([1, 1]), [float("inf"), 1.0]),
        ValidationError, "mean occupation inf is not a nonnegative real"),
    "mean-occupation-sum-overflows": (
        lambda tmp: occupation_cross_entropy(Macrostate([1, 1]), [1e308, 1e308]),
        ValidationError, "mean occupations sum to inf, macrostate has 2"),
    "mean-occupation-a-string": (
        lambda tmp: occupation_cross_entropy(Macrostate([1, 1]), ["a", 1.0]),
        ValidationError, "mean occupations must be real numbers: could not convert"),
    "mean-occupation-null": (
        lambda tmp: occupation_cross_entropy(Macrostate([1, 1]), [None, 1.0]),
        ValidationError, "mean occupations must be real numbers: float"),
    "load_spec-missing-file": (
        lambda tmp: load_spec(str(tmp / "absent.json")),
        ValidationError, "cannot read spec file"),
    "load_spec-json-array": (
        lambda tmp: load_spec(_spec_file(tmp, json.dumps([[0, 1], [0.5, 0.5], 2]))),
        ValidationError, "must contain a JSON object"),
    **{f"load_spec-{name}": (
        lambda tmp, data=data: load_spec(_spec_file(tmp, data)),
        ValidationError, "malformed JSON in") for name, data in UNDECODABLE.items()},
    "load_spec-boolean-priors": (
        lambda tmp: load_spec(_spec_file(tmp, BOOLEAN_PRIORS)),
        ValidationError, "priors must be real numbers: a boolean is not a number"),
    "validate_spec-levels-not-an-array": (
        lambda tmp: validate_spec({"levels": "0 1", "priors": [0.5, 0.5], "N": 2}),
        ValidationError, "must be arrays"),
    "default_suite-unknown-scale": (
        lambda tmp: default_suite("medium"),
        ValidationError, "scale must be 'quick' or 'full', got 'medium'"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rejected_input(tmp_path, case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message):
        call(tmp_path)


@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_undecodable_spec_file_exits_2(tmp_path, name):
    proc = subprocess.run(
        [sys.executable, "-m", "boltzkit", "distribution",
         "--spec", _spec_file(tmp_path, UNDECODABLE[name]), "--beta", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "\nerror: malformed JSON in " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_boolean_priors_exit_2(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "boltzkit", "distribution",
         "--spec", _spec_file(tmp_path, BOOLEAN_PRIORS), "--beta", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "\nerror: priors must be real numbers: a boolean" in proc.stderr
    assert "Traceback" not in proc.stderr
