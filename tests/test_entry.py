"""The package's lazy namespace and the CLI entry point.

``import boltzkit`` must not import numpy, and the entry point behind
``python -m boltzkit`` and the installed ``boltzkit`` command runs numpy
with one BLAS thread unless the caller set the count. The children here
run that entry point through ``runpy``, as ``python -m boltzkit`` does.
"""

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import boltzkit
from boltzkit import cli

SRC = str(Path(boltzkit.__file__).resolve().parent.parent)

#: The public names, by defining module.
PUBLIC = {
    "combinatorics": [
        "CompositionSet", "StatWeight", "log_macrostate_probability",
        "macrostate_probability_exact", "statistical_weight",
        "weight_ratio_probability",
    ],
    "core": [
        "EnergySpectrum", "Macrostate", "ProbabilityVector", "SystemSpec",
        "load_spec", "uniform_prior", "validate_spec",
    ],
    "entropy": [
        "EntropyValue", "boltzmann_shannon_entropy", "einstein_probability",
        "exact_boltzmann_entropy", "kl_cross_entropy", "kl_divergence",
        "negentropy_relation", "occupation_cross_entropy", "shannon_entropy",
        "stirling_entropy",
    ],
    "equilibrium": [
        "EquilibriumSolution", "boltzmann_distribution",
        "entropy_inequality_check", "equilibrium_entropy_prior",
        "equilibrium_entropy_uniform", "generalized_distribution", "solve_beta",
    ],
    "oracle": [
        "OracleReport", "check_einstein_convergence",
        "check_most_probable_state", "check_normalization_and_means",
        "check_weight_dominance", "default_suite", "reports_to_json",
        "round_to_macrostate",
    ],
    "oscillators": [
        "Dimensionality", "OscillatorModel", "auto_truncation",
        "mean_energy_closed", "mean_energy_series", "oscillator_as_system",
    ],
}

#: Runs the entry point with the given CLI arguments, then writes what the
#: process looked like afterwards to the file named first.
PROBE = """
import json, os, runpy, sys
report, sys.argv = sys.argv[1], ["boltzkit", *sys.argv[2:]]
code = None
try:
    runpy.run_module("boltzkit", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
threads = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
with open(report, "w") as out:
    json.dump({"code": code, "numpy": "numpy" in sys.modules, "threads": threads,
               "openblas": os.environ.get("OPENBLAS_NUM_THREADS")}, out)
"""

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(**preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(preset)
    return env


def probe(tmp_path, *args, **preset) -> dict:
    report = tmp_path / "probe.json"
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(report), *args],
        env=child_env(**preset), capture_output=True, timeout=120,
    )
    assert report.exists(), proc.stderr.decode()
    return json.loads(report.read_text())


@pytest.fixture
def spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"levels": [0.0, 1.0], "priors": [0.25, 0.75], "N": 4}')
    return str(path)


class TestLazyNamespace:
    def test_import_loads_no_numpy(self):
        # submodules stay reachable as attributes; only equilibrium's
        # kernel needs numpy, and entropy imports it inside kl_divergence
        script = "; ".join([
            "import sys, boltzkit",
            "print('numpy' in sys.modules)",
            "boltzkit.core, boltzkit.errors, boltzkit.oscillators",
            "boltzkit.entropy, boltzkit.combinatorics",
            "print('numpy' in sys.modules)",
            "boltzkit.equilibrium.solve_beta",
            "print('numpy' in sys.modules)",
        ])
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().split() == ["False", "False", "True"]

    def test_all_holds_the_public_names(self):
        want = [name for names in PUBLIC.values() for name in names]
        assert len(want) == 44
        assert sorted(boltzkit.__all__) == sorted(want)
        assert set(want) <= set(dir(boltzkit))

    def test_each_name_is_its_submodule_attribute(self):
        for module, names in PUBLIC.items():
            submodule = importlib.import_module(f"boltzkit.{module}")
            assert getattr(boltzkit, module) is submodule
            for name in names:
                assert getattr(boltzkit, name) is getattr(submodule, name)

    def test_star_import(self):
        namespace = {}
        exec("from boltzkit import *", namespace)
        assert {k for k in namespace if k != "__builtins__"} == set(boltzkit.__all__)

    def test_unknown_name_is_an_attribute_error(self):
        assert not hasattr(boltzkit, "no_such_name")
        with pytest.raises(ImportError):
            exec("from boltzkit import no_such_name", {})


class TestEntryPoint:
    @pytest.mark.parametrize("args", [
        ["--help"],
        ["oscillator", "--dim", "1d", "--from", "0.5", "--to", "2", "--points", "3"],
        ["oscillator", "--dim", "3d", "--from", "0.5", "--to", "2", "--points", "3"],
    ], ids=["help", "oscillator", "usage-error"])
    def test_loads_no_numpy(self, tmp_path, args):
        result = probe(tmp_path, *args)
        assert result["code"] == (2 if "3d" in args else 0)
        assert result["numpy"] is False

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc/self/status")
    def test_runs_numpy_with_one_thread(self, tmp_path, spec):
        result = probe(tmp_path, "distribution", "--spec", spec, "--beta", "1")
        assert result["code"] == 0
        assert result["numpy"] is True
        assert result["openblas"] == "1"
        assert result["threads"] == 1

    def test_a_preset_thread_count_is_kept(self, tmp_path, spec):
        result = probe(tmp_path, "distribution", "--spec", spec, "--beta", "1",
                       OPENBLAS_NUM_THREADS="2")
        assert result["code"] == 0
        assert result["openblas"] == "2"

    def test_cli_main_in_process_leaves_the_environment_alone(
        self, spec, monkeypatch
    ):
        for name in BLAS_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        before = dict(os.environ)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["distribution", "--spec", spec, "--beta", "1"]) == 0
        assert dict(os.environ) == before

    def test_installed_command_uses_the_entry_point(self):
        pyproject = Path(SRC).parent / "pyproject.toml"
        if not pyproject.is_file():
            pytest.skip("not a source checkout")
        assert 'boltzkit = "boltzkit.__main__:main"' in pyproject.read_text()
