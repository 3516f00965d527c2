"""Shared domain types: energy spectra, probability vectors, macrostates.

All types are frozen dataclasses backed by tuples, so instances are
immutable and safe to share across threads or processes.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping

from .errors import ValidationError

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


#: Entries from which _fsum extracts in numpy instead of calling math.fsum.
_FSUM_ARRAY_MIN = 450


def _fsum(a) -> float:
    """math.fsum(a.tolist()) for a float64 array: the same bits, sign of zero
    and errors. By error-free extraction (Rump, Ogita and Oishi 2008): with
    max|a| < 2**e and sigma = 2**(e + bit_length(n) + 1), q = (a + sigma) -
    sigma, a - q and q.sum() are exact; fsum rounds the sums of q once."""
    n = len(a)
    if n < _FSUM_ARRAY_MIN:
        return math.fsum(a.tolist())
    import numpy as np
    limit, parts = math.ldexp(1.0, 1022 - n.bit_length()), []
    while top := float(np.maximum.reduce(np.abs(a), initial=0.0)):
        if not top < limit:  # sigma would overflow, or a holds inf or nan
            return math.fsum(parts + a.tolist())
        sigma = math.ldexp(1.0, math.frexp(top)[1] + n.bit_length() + 1)
        q = (a + sigma) - sigma
        parts.append(float(np.add.reduce(q)))
        a = a - q
    return math.fsum(parts or a.tolist())  # all zeros: fsum's sign of zero


def _total(values) -> float:
    """Exact sum of a tuple or an array; beyond float range, inf (never 1)."""
    try:
        return math.fsum(values) if isinstance(values, tuple) else _fsum(values)
    except OverflowError:
        return math.inf


def _check_probabilities(values, known_nonnegative=False, tol=PROB_SUM_TOL) -> float:
    """The sum of the entries, after ProbabilityVector's checks. A caller that
    tested every entry >= 0 on its array skips that check, passing the array."""
    _some_levels(values, "probability vector needs at least one entry")
    if not known_nonnegative:
        for x in values:
            if not (x >= 0.0):  # catches negatives and NaN
                raise ValidationError(f"probability entry {x!r} is not >= 0")
    total = _total(values)
    if abs(total - 1.0) > tol:
        raise ValidationError(f"probabilities sum to {total!r}, not 1 within {tol}")
    return total


def _some_levels(values, message: str) -> None:
    """The rule that a vector, spectrum or macrostate has an entry."""
    if len(values) == 0:
        raise ValidationError(message)


def _same_length(size: int, levels: int, what: str) -> None:
    """One entry per level: the rule behind every pair of per-level inputs."""
    if size != levels:
        raise ValidationError(f"length mismatch: {size} {what} for {levels} levels")


def _size(n, what: str, least: int = 1) -> int:
    """A particle, level, part or truncation count (or, with least=0, a
    composition's total or occupation) as an int; a bool, a float or a value
    < least is refused."""
    try:
        size = None if isinstance(n, bool) else operator.index(n)
    except TypeError:
        size = None
    if size is None or size < least:
        raise ValidationError(f"{what} {n!r} is not an integer >= {least}")
    return size


def _boltzmann_k(k) -> float:
    """Boltzmann's constant as a float: a finite real > 0, not a bool."""
    try:
        real = isinstance(k, numbers.Real) and not isinstance(k, bool)
        value = float(k) if real else math.nan
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValidationError(f"boltzmann_k {k!r} must be a finite real > 0")
    return value


class _Floats:
    """Base of a value type over the tuple of floats named by ``_FIELD``: its
    read-only float64 copy, built on first use (numpy loads then), not pickled."""

    @cached_property
    def _array(self):
        import numpy as np
        array = np.array(getattr(self, self._FIELD), dtype=float)
        array.flags.writeable = False
        return array

    def __getstate__(self) -> dict:
        return {self._FIELD: getattr(self, self._FIELD)}


@dataclass(frozen=True)
class EnergySpectrum(_Floats):
    """Ordered energy levels E_1..E_n, in arbitrary (consistent) energy units.

    Levels need not be sorted or distinct; degenerate spectra are legal.
    """

    levels: tuple[float, ...]
    _FIELD = "levels"

    def __init__(self, levels: Iterable[float]):
        values = _reals(levels, "energy levels")
        _some_levels(values, "spectrum needs at least one energy level")
        for x in values:
            if not math.isfinite(x):
                raise ValidationError(f"non-finite energy level {x!r}")
        object.__setattr__(self, "levels", values)

    @property
    def count(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class ProbabilityVector(_Floats):
    """Nonnegative entries summing to 1 within ``PROB_SUM_TOL``.

    Entries of exactly 0 are allowed; operations that divide by an entry
    state their own support preconditions.
    """

    # a kernel-built vector keeps only its array; the tuple is built on first read
    entries: tuple[float, ...] = cached_property(
        lambda self: tuple(self._array.tolist()))
    _FIELD = "entries"

    def __init__(self, entries: Iterable[float]):
        values = _reals(entries, "probability entries")
        _check_probabilities(values)
        object.__setattr__(self, "entries", values)

    @classmethod
    def _adopt(cls, array) -> ProbabilityVector:
        """A vector over a float64 array that it keeps, made read-only: the
        constructor's checks as array operations, for kernel-built arrays.

        n entries in [0, 1] have a float sum s within gamma_(n-1) of their
        exact sum, in any order (Higham 2002, section 4.2), so within n
        2**-53 s; 2**-52 more covers the rounding of the exact sum. Where
        that bound puts the sum within ``PROB_SUM_TOL`` of 1, no exact sum
        is taken; otherwise, and on every array from 9,006 entries on,
        the exact sum decides, with the constructor's message.
        """
        import numpy as np
        n = len(array)
        if not (n and np.minimum.reduce(array) >= 0.0
                and np.maximum.reduce(array) <= 1.0):
            _check_probabilities(tuple(array.tolist()))  # the constructor's checks
        else:
            total = float(np.add.reduce(array))
            if abs(total - 1.0) + n * 2.0**-53 * total + 2.0**-52 > PROB_SUM_TOL:
                _check_probabilities(array, known_nonnegative=True)
        vector = object.__new__(cls)
        array.flags.writeable = False
        vector.__dict__["_array"] = array
        return vector

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> float:
        return self.entries[i]


def uniform_prior(n: int) -> ProbabilityVector:
    """The maximally noncommittal prior: every level gets weight 1/n."""
    n = _size(n, "level count")
    return ProbabilityVector((1.0 / n,) * n)


@dataclass(frozen=True)
class Macrostate:
    """Occupation numbers [N_1..N_n], counts >= 0; ``total`` is their sum."""

    occupations: tuple[int, ...]
    total: int = field(default=-1)

    def __init__(self, occupations: Iterable[int]):
        values = tuple(_size(x, "occupation", 0) for x in occupations)
        _some_levels(values, "macrostate needs at least one level")
        object.__setattr__(self, "occupations", values)
        object.__setattr__(self, "total", sum(values))

    def __len__(self) -> int:
        return len(self.occupations)


@dataclass(frozen=True)
class SystemSpec:
    """Full problem statement: spectrum, per-level priors, particle count, k.
    It checks them, and stores ``particles`` as an int, ``boltzmann_k`` as a float."""

    spectrum: EnergySpectrum
    prior: ProbabilityVector
    particles: int
    boltzmann_k: float = 1.0

    def __post_init__(self):
        _same_length(len(self.prior), self.spectrum.count, "priors")
        object.__setattr__(self, "particles", _size(self.particles, "particle count"))
        object.__setattr__(self, "boltzmann_k", _boltzmann_k(self.boltzmann_k))


_SPEC_FIELDS = {"levels", "priors", "N", "k"}


def validate_spec(raw: Mapping[str, Any] | SystemSpec) -> SystemSpec:
    """Validate a raw system description into a SystemSpec.

    Accepts either an already-built SystemSpec (returned as-is, which makes
    validation idempotent) or a mapping with keys ``levels``, ``priors``,
    ``N`` and optionally ``k``. Unknown keys are rejected. Priors are
    renormalized when their sum is within ``PRIOR_RENORM_TOL`` of 1 and
    rejected otherwise; ``SystemSpec`` checks the rest.
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
    p = _reals(priors, "priors")
    total = _check_probabilities(p, tol=PRIOR_RENORM_TOL)
    prior = ProbabilityVector(x / total for x in p)
    return SystemSpec(spectrum=spectrum, prior=prior, particles=raw["N"],
                      boltzmann_k=raw.get("k", 1.0))


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
