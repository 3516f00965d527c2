"""Shared domain types: energy spectra, probability vectors, macrostates.

All types are frozen dataclasses backed by tuples, so instances are
immutable and safe to share across threads or processes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .errors import (
    LengthMismatch,
    NegativePrior,
    NonFiniteEnergy,
    NonPositiveN,
    PriorSumMismatch,
    ValidationError,
    ZeroLevels,
)

#: |sum(p) - 1| accepted at ProbabilityVector construction.
PROB_SUM_TOL = 1e-12

#: |sum(p) - 1| up to which validate_spec renormalizes instead of rejecting.
PRIOR_RENORM_TOL = 1e-9


def _reals(values: Iterable, what: str) -> tuple[float, ...]:
    """``float()`` of each value; what it refuses is a ValidationError."""
    try:
        return tuple(float(x) for x in values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be real numbers: {exc}") from None


@dataclass(frozen=True)
class EnergySpectrum:
    """Ordered energy levels E_1..E_n, in arbitrary (consistent) energy units.

    Levels need not be sorted or distinct; degenerate spectra are legal.
    """

    levels: tuple[float, ...]

    def __init__(self, levels: Iterable[float]):
        values = _reals(levels, "energy levels")
        if len(values) == 0:
            raise ZeroLevels("spectrum needs at least one energy level")
        for x in values:
            if not math.isfinite(x):
                raise NonFiniteEnergy(f"non-finite energy level {x!r}")
        object.__setattr__(self, "levels", values)

    @property
    def count(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class ProbabilityVector:
    """Nonnegative entries summing to 1 within ``PROB_SUM_TOL``.

    Entries of exactly 0 are allowed; operations that divide by an entry
    state their own support preconditions.
    """

    entries: tuple[float, ...]

    def __init__(self, entries: Iterable[float]):
        values = _reals(entries, "probability entries")
        if len(values) == 0:
            raise ZeroLevels("probability vector needs at least one entry")
        for x in values:
            if not (x >= 0.0):  # catches negatives and NaN
                raise NegativePrior(f"probability entry {x!r} is not >= 0")
        total = math.fsum(values)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise PriorSumMismatch(
                f"probabilities sum to {total!r}, not 1 within {PROB_SUM_TOL}"
            )
        object.__setattr__(self, "entries", values)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> float:
        return self.entries[i]


def uniform_prior(n: int) -> ProbabilityVector:
    """The maximally noncommittal prior: every level gets weight 1/n."""
    if n < 1:
        raise ZeroLevels(f"need n >= 1 levels, got {n}")
    return ProbabilityVector((1.0 / n,) * n)


@dataclass(frozen=True)
class Macrostate:
    """Occupation numbers [N_1..N_n]; ``total`` is their (checked) sum."""

    occupations: tuple[int, ...]
    total: int = field(default=-1)

    def __init__(self, occupations: Iterable[int], total: int | None = None):
        values = []
        for x in occupations:
            try:
                integral = not isinstance(x, bool) and int(x) == x
            except (TypeError, ValueError, OverflowError):
                integral = False
            if not integral:
                raise ValidationError(f"occupation {x!r} is not an integer")
            if x < 0:
                raise ValidationError(f"occupation {x!r} is negative")
            values.append(int(x))
        values = tuple(values)
        if len(values) == 0:
            raise ZeroLevels("macrostate needs at least one level")
        s = sum(values)
        if total is not None and total != s:
            raise ValidationError(f"declared total {total} != sum {s}")
        object.__setattr__(self, "occupations", values)
        object.__setattr__(self, "total", s)

    def __len__(self) -> int:
        return len(self.occupations)


@dataclass(frozen=True)
class SystemSpec:
    """Full problem statement: spectrum, per-level priors, particle count, k."""

    spectrum: EnergySpectrum
    prior: ProbabilityVector
    particles: int
    boltzmann_k: float = 1.0

    def __post_init__(self):
        if len(self.prior) != self.spectrum.count:
            raise LengthMismatch(
                f"{len(self.prior)} priors for {self.spectrum.count} levels"
            )
        if isinstance(self.particles, bool) or self.particles != int(self.particles):
            raise NonPositiveN(f"particle count {self.particles!r} is not an integer")
        if self.particles < 1:
            raise NonPositiveN(f"particle count {self.particles} < 1")
        if not (self.boltzmann_k > 0.0 and math.isfinite(self.boltzmann_k)):
            raise ValidationError(f"boltzmann_k {self.boltzmann_k!r} must be positive")


_SPEC_FIELDS = {"levels", "priors", "N", "k"}


def validate_spec(raw: Mapping[str, Any] | SystemSpec) -> SystemSpec:
    """Validate a raw system description into a SystemSpec.

    Accepts either an already-built SystemSpec (returned as-is, which makes
    validation idempotent) or a mapping with keys ``levels``, ``priors``,
    ``N`` and optionally ``k``. Unknown keys are rejected. Priors are
    renormalized when their sum is within ``PRIOR_RENORM_TOL`` of 1 and
    rejected otherwise.
    """
    if isinstance(raw, SystemSpec):
        return raw
    unknown = set(raw) - _SPEC_FIELDS
    if unknown:
        raise ValidationError(f"unknown spec fields: {sorted(unknown)}")
    missing = {"levels", "priors", "N"} - set(raw)
    if missing:
        raise ValidationError(f"missing spec fields: {sorted(missing)}")

    levels = raw["levels"]
    priors = raw["priors"]
    if not isinstance(levels, (list, tuple)) or not isinstance(priors, (list, tuple)):
        raise ValidationError("'levels' and 'priors' must be arrays")
    spectrum = EnergySpectrum(levels)
    if len(priors) != spectrum.count:
        raise LengthMismatch(f"{len(priors)} priors for {spectrum.count} levels")

    p = _reals(priors, "priors")
    for x in p:
        if not (x >= 0.0):
            raise NegativePrior(f"prior entry {x!r} is not >= 0")
    total = math.fsum(p)
    if abs(total - 1.0) > PRIOR_RENORM_TOL:
        raise PriorSumMismatch(
            f"priors sum to {total!r}; beyond renormalization tolerance "
            f"{PRIOR_RENORM_TOL}"
        )
    prior = ProbabilityVector(x / total for x in p)

    n_raw = raw["N"]
    if isinstance(n_raw, bool) or not isinstance(n_raw, int):
        raise NonPositiveN(f"N must be an integer, got {n_raw!r}")

    k = raw.get("k", 1.0)
    if not isinstance(k, (int, float)) or isinstance(k, bool):
        raise ValidationError(f"k must be a number, got {k!r}")

    return SystemSpec(spectrum=spectrum, prior=prior, particles=n_raw,
                      boltzmann_k=_reals([k], "k")[0])


def load_spec(path: str) -> SystemSpec:
    """Read and validate a system-spec JSON file.

    Format: ``{"levels": [...], "priors": [...], "N": int, "k": float?}``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read spec file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("spec file must contain a JSON object")
    return validate_spec(raw)
