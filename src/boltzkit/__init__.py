"""boltzkit: exact macrostate combinatorics, entropy functionals, and
prior-weighted equilibrium distributions for finite energy-level systems,
with a brute-force oracle that verifies the asymptotic formulas at small
scale.

Submodules load on first use (PEP 562), so ``import boltzkit`` imports no
numpy; ``equilibrium`` (and ``oracle``, which uses it) does.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "combinatorics": (
        "CompositionSet", "StatWeight", "log_macrostate_probability",
        "macrostate_probability_exact", "statistical_weight",
        "weight_ratio_probability",
    ),
    "core": (
        "EnergySpectrum", "Macrostate", "ProbabilityVector", "SystemSpec",
        "load_spec", "uniform_prior", "validate_spec",
    ),
    "entropy": (
        "EntropyValue", "boltzmann_shannon_entropy", "einstein_probability",
        "exact_boltzmann_entropy", "kl_cross_entropy", "kl_divergence",
        "negentropy_relation", "occupation_cross_entropy", "shannon_entropy",
        "stirling_entropy",
    ),
    "equilibrium": (
        "EquilibriumSolution", "boltzmann_distribution",
        "entropy_inequality_check", "equilibrium_entropy_prior",
        "equilibrium_entropy_uniform", "generalized_distribution", "solve_beta",
    ),
    "oracle": (
        "OracleReport", "check_einstein_convergence",
        "check_most_probable_state", "check_normalization_and_means",
        "check_weight_dominance", "default_suite", "reports_to_json",
        "round_to_macrostate",
    ),
    "oscillators": (
        "Dimensionality", "OscillatorModel", "auto_truncation",
        "mean_energy_closed", "mean_energy_series", "oscillator_as_system",
    ),
}

#: public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """A public name, imported from its submodule and cached here; or a
    library submodule such as ``core``, imported on first use."""
    if name in _MODULE_OF:
        module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
        globals()[name] = value = getattr(module, name)
        return value
    if name in _PUBLIC or name == "errors":
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
