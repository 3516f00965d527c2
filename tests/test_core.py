"""Domain-type validation and the spec-file contract."""

import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boltzkit import (
    EnergySpectrum,
    Macrostate,
    ProbabilityVector,
    SystemSpec,
    generalized_distribution,
    uniform_prior,
    validate_spec,
)
from boltzkit import core
from boltzkit.core import load_spec
from boltzkit.errors import ValidationError


class TestEnergySpectrum:
    def test_accepts_unsorted_and_degenerate(self):
        s = EnergySpectrum([2.0, 0.0, 2.0, -1.0])
        assert s.levels == (2.0, 0.0, 2.0, -1.0)
        assert s.count == 4

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="needs at least one"):
            EnergySpectrum([])

    @pytest.mark.parametrize(
        "bad", ["a", None, [1], 10**400], ids=["str", "null", "list", "huge"]
    )
    def test_rejects_non_numbers_as_validation_errors(self, bad):
        with pytest.raises(ValidationError):
            EnergySpectrum([bad, 1.0])

    @pytest.mark.parametrize(
        "bad", [[True, False], [0.5, True], np.array([True, False])],
        ids=["bools", "one-bool", "numpy-bools"])
    def test_rejects_booleans(self, bad):
        for build in (EnergySpectrum, ProbabilityVector):
            with pytest.raises(ValidationError, match="a boolean is not a number"):
                build(bad)

    def test_still_coerces_numeric_strings(self):
        assert EnergySpectrum(["1.5", 2]).levels == (1.5, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValidationError, match="non-finite energy level"):
            EnergySpectrum([0.0, bad])


class TestProbabilityVector:
    def test_accepts_zero_entries(self):
        p = ProbabilityVector([1.0, 0.0])
        assert p.entries == (1.0, 0.0)

    def test_indexing_and_iteration_follow_the_entries(self):
        p = ProbabilityVector([0.25, 0.5, 0.25])
        assert len(p) == 3
        assert [p[0], p[1], p[-1]] == [0.25, 0.5, 0.25]
        assert p[1:] == (0.5, 0.25)
        assert list(p) == [0.25, 0.5, 0.25]
        assert all(type(x) is float for x in p)
        with pytest.raises(IndexError):
            p[3]

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="is not >= 0"):
            ProbabilityVector([1.1, -0.1])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="is not >= 0"):
            ProbabilityVector([math.nan, 1.0])

    def test_rejects_sum_off_by_more_than_tolerance(self):
        with pytest.raises(ValidationError, match="probabilities sum to"):
            ProbabilityVector([0.5, 0.5 + 2e-12])

    def test_sum_beyond_float_range_is_a_sum_mismatch(self):
        # math.fsum overflows on these; the sum cannot be 1 either way
        with pytest.raises(ValidationError, match="probabilities sum to"):
            ProbabilityVector([1e308, 1e308])

    def test_accepts_sum_within_tolerance(self):
        p = ProbabilityVector([0.5, 0.5 + 5e-13])
        assert abs(math.fsum(p.entries) - 1.0) <= 1e-12

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_every_construction_is_normalized_and_nonnegative(self, raw):
        total = math.fsum(raw)
        if total <= 0.0:
            return
        p = ProbabilityVector(x / total for x in raw)
        assert abs(math.fsum(p.entries) - 1.0) <= 1e-12
        assert min(p.entries) >= 0.0


#: The public constructor's rejections, each with its rule's message.
REJECTED_ENTRIES = [
    ([1.1, -0.1], "is not >= 0"),
    ([math.nan, 1.0], "is not >= 0"),
    ([0.5, -math.inf, 0.5], "is not >= 0"),
    ([0.5, 0.5 + 2e-12], "probabilities sum to"),
    ([1e308, 1e308], "probabilities sum to"),
    ([0.25, 0.25], "probabilities sum to"),
    ([], "needs at least one"),
]


class TestKernelBuiltVector:
    """``ProbabilityVector._adopt``: the constructor's checks as array
    operations, for arrays that boltzkit's kernel built."""

    @pytest.mark.parametrize("entries, message", REJECTED_ENTRIES,
                             ids=[str(e) for e, _ in REJECTED_ENTRIES])
    def test_rejects_what_the_constructor_rejects(self, entries, message):
        with pytest.raises(ValidationError, match=message) as public:
            ProbabilityVector(entries)
        with pytest.raises(ValidationError, match=message) as internal:
            ProbabilityVector._adopt(np.array(entries, dtype=float))
        assert str(internal.value) == str(public.value)

    def test_accepts_sum_within_tolerance(self):
        entries = [0.5, 0.5 + 5e-13]
        v = ProbabilityVector._adopt(np.array(entries))
        assert v == ProbabilityVector(entries)

    def test_keeps_the_array_read_only(self):
        array = np.array([0.125, 0.0, 0.875])
        v = ProbabilityVector._adopt(array)
        assert v._array is array
        assert not array.flags.writeable
        assert v.entries == (0.125, 0.0, 0.875)
        assert all(type(x) is float for x in v.entries)
        assert v == ProbabilityVector([0.125, 0.0, 0.875])
        assert hash(v) == hash(ProbabilityVector([0.125, 0.0, 0.875]))

    def test_sum_beyond_float_range_on_the_array_branch(self):
        # 2,000 entries: _fsum's extraction hands an overflow back to fsum
        entries = [1e308] * 2000
        with pytest.raises(ValidationError, match="probabilities sum to") as public:
            ProbabilityVector(entries)
        with pytest.raises(ValidationError, match="probabilities sum to") as internal:
            ProbabilityVector._adopt(np.array(entries))
        assert str(internal.value) == str(public.value) == (
            "probabilities sum to inf, not 1 within 1e-12")


    @staticmethod
    def _fresh():
        """An adopted vector whose entries are not read yet, and the
        constructor's vector over the same values."""
        array = np.array([0.125, 0.0, 0.5, 0.375])
        return ProbabilityVector._adopt(array), ProbabilityVector(array.tolist())

    @pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
    def test_entries_are_built_on_first_read(self, read_first):
        # equality, hash, repr, pickle, len and indexing, each first on a
        # vector that holds only its array, and once the tuple is built
        for check in (
            lambda v, ref: v == ref and ref == v,
            lambda v, ref: hash(v) == hash(ref),
            lambda v, ref: repr(v) == repr(ref),
            lambda v, ref: pickle.dumps(v) == pickle.dumps(ref),
            lambda v, ref: len(v) == len(ref) == 4,
            lambda v, ref: (v[1], v[-1], v[1:]) == (0.0, 0.375, (0.0, 0.5, 0.375)),
        ):
            v, ref = self._fresh()
            assert "entries" not in vars(v)
            if read_first:
                v.entries
            assert check(v, ref)
            assert v.entries == ref.entries
            assert type(v.entries) is tuple
            assert all(type(x) is float for x in v.entries)

    def test_len_reads_the_kept_array(self):
        # len of a kernel-built vector builds no tuple, so a solved
        # distribution passed back as a prior is not copied; a constructed
        # vector's len builds no array
        v, ref = self._fresh()
        assert len(v) == len(ref) == 4
        assert "entries" not in vars(v) and "_array" not in vars(ref)
        spectrum = EnergySpectrum([0.0, 1.0, 2.0, 3.0])
        prior = ProbabilityVector([0.4, 0.3, 0.2, 0.1])
        solved = generalized_distribution(spectrum, prior, 1.0).distribution
        assert len(solved) == 4 and "entries" not in vars(solved)
        again = generalized_distribution(spectrum, solved, 0.5).distribution
        assert "entries" not in vars(solved) and "entries" not in vars(again)
        assert len(solved) == len(solved.entries) == 4
        assert len(again) == len(again.entries) == 4

    def test_pickle_of_a_never_read_vector(self):
        v, ref = self._fresh()
        back = pickle.loads(pickle.dumps(v))
        assert back == ref and back.entries == ref.entries
        assert "_array" not in vars(back)
        assert back._array.tolist() == v._array.tolist()

    @pytest.mark.parametrize("n", [2, 2000, 10_000])
    @pytest.mark.parametrize("edge", [1.0 - 1e-12, 1.0 + 1e-12])
    def test_sum_check_at_the_tolerance(self, n, edge):
        # sums within a few ulp of 1 +- 1e-12, by 2**-53 steps: the same
        # decision and message as the constructor's exact sum, on both sides
        # of the ~9,000 entries beyond which the float sum's bound never decides
        outcomes = set()
        for k in range(-6, 7):
            entries = _summing_to(n, edge, k)
            try:
                want = ProbabilityVector(entries.tolist())
            except ValidationError as public:
                with pytest.raises(ValidationError) as internal:
                    ProbabilityVector._adopt(entries)
                assert str(internal.value) == str(public)
                outcomes.add("rejected")
            else:
                assert ProbabilityVector._adopt(entries) == want
                outcomes.add("accepted")
        assert outcomes == {"accepted", "rejected"}

    @pytest.mark.parametrize("n, exact_sums", [(2, 0), (2000, 0), (10_000, 1)])
    @pytest.mark.parametrize("off", [-5e-13, 0.0, 5e-13])
    def test_exact_sum_only_where_the_bound_cannot_decide(
        self, monkeypatch, n, exact_sums, off
    ):
        # n 2**-53 is 2.2e-13 at 2,000 entries, so 1 +- 5e-13 is decided by
        # the float sum; at 10,000 entries (1.1e-12) only the exact sum can
        totals = []
        monkeypatch.setattr(core, "_total",
                            lambda values, total=core._total:
                            totals.append(len(values)) or total(values))
        entries = _summing_to(n, 1.0 + off, 0)
        assert ProbabilityVector._adopt(entries) == ProbabilityVector(entries.tolist())
        assert len(totals) == exact_sums + 1  # the constructor's own sum


def _summing_to(n, total, k):
    """n seeded entries in [0, 1] whose exact sum is within an ulp of the
    float nearest ``total``, plus k 2**-53 (the last entry takes the steps
    exactly)."""
    rng = np.random.default_rng(n)
    head = rng.uniform(0.05, 1.0, n - 1)
    head *= 0.5 / head.sum()
    rest = total - math.fsum(head.tolist())  # exact: both near 0.5 and 1
    return np.append(head, rest + k * 2.0**-53)


def _fsum_result(f, values):
    """f(values) as (value, sign bit), or as the error it raises."""
    try:
        x = f(values)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)
    return ("nan", 0) if math.isnan(x) else (x, math.copysign(1.0, x))


def _fsum_cases():
    """Seeded float64 arrays, by class, from empty to 2,000 entries."""
    rng = np.random.default_rng(1717)
    sizes = [0, 1, 2, 449, 450, 2000]
    for n in sizes:
        p = rng.uniform(0.05, 1.0, n)
        p /= max(p.sum(), 1.0)
        near = p * (1.0 + 1e-9 * rng.standard_normal(n))
        half = rng.standard_normal(n // 2)
        big = rng.uniform(-1.0, 1.0, n)
        big[:min(n, 3)] = 1e307
        yield from {
            "uniform": rng.uniform(0.0, 1.0, n),
            "wide": rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n),
            "subnormal": rng.integers(-1000, 1000, n) * 5e-324,
            "cancelling": rng.permutation(np.concatenate([half, -half, [1e-300] * (n % 2)])),
            "negative zero": np.full(n, -0.0),
            "near 1e307": rng.permutation(big),
            "kl terms": p * np.log(p / near),
        }.items()


class TestExactSum:
    """``core._fsum``: math.fsum over a float64 array, bit for bit."""

    @given(st.lists(st.floats(width=64), max_size=40), st.integers(1, 60))
    def test_equals_fsum_in_both_branches(self, xs, copies):
        # the list and a copy repeated to up to 40 x 60 entries: the same
        # sign of zero, the same error, short or long
        for values in (xs, xs * copies):
            want = _fsum_result(math.fsum, values)
            assert _fsum_result(core._fsum, np.array(values, dtype=float)) == want

    def test_seeded_classes(self):
        cases = list(_fsum_cases())
        off = 0
        for kind, a in cases:
            want = _fsum_result(math.fsum, a.tolist())
            assert _fsum_result(core._fsum, a) == want, (kind, len(a))
            off += want[0] != float(np.sum(a))
        assert off >= 5  # a pairwise numpy sum fails on these arrays

    @pytest.mark.parametrize("copies", [1, 1000])
    def test_overflow_is_fsums(self, copies):
        values = [1e308, 1e308, -1e308] * copies
        with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
            math.fsum(values)
        with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
            core._fsum(np.array(values))

    def test_empty_and_one_entry(self):
        assert _fsum_result(core._fsum, np.array([])) == (0.0, 1.0)
        assert _fsum_result(core._fsum, np.array([-0.0])) == _fsum_result(math.fsum, [-0.0])
        assert core._fsum(np.array([5e-324])) == 5e-324


def _values(x):
    return x.levels if isinstance(x, EnergySpectrum) else x.entries


VALUE_TYPES = [
    pytest.param(lambda: EnergySpectrum([2.0, -1.0, 0.5]), id="spectrum"),
    pytest.param(lambda: ProbabilityVector([0.25, 0.0, 0.75]), id="vector"),
]


class TestFloatArrays:
    """The read-only float64 array behind a spectrum and a vector."""

    @pytest.mark.parametrize("make", VALUE_TYPES)
    def test_built_once_as_float64(self, make):
        x = make()
        assert x._array is x._array
        assert x._array.dtype == np.float64
        assert x._array.tolist() == list(_values(x))

    @pytest.mark.parametrize("make", VALUE_TYPES)
    def test_is_read_only(self, make):
        x = make()
        with pytest.raises(ValueError):
            x._array[0] = 1.0
        with pytest.raises(ValueError):
            x._array += 1.0
        assert x._array.tolist() == list(_values(x))

    @pytest.mark.parametrize("make", VALUE_TYPES)
    def test_equality_hash_repr_and_pickle_ignore_it(self, make):
        read, unread = make(), make()
        read._array
        assert read == unread
        assert hash(read) == hash(unread)
        assert repr(read) == repr(unread)
        assert pickle.dumps(read) == pickle.dumps(unread)
        back = pickle.loads(pickle.dumps(read))
        assert back == read
        assert "_array" not in vars(back)
        assert not back._array.flags.writeable
        assert back._array.tolist() == read._array.tolist()

    def test_caller_array_is_copied(self):
        raw = np.array([0.25, 0.75])
        before = ProbabilityVector(raw)
        before._array
        after = ProbabilityVector(raw)
        raw[:] = [0.75, 0.25]
        for v in (before, after):
            assert v.entries == (0.25, 0.75)
            assert v._array.tolist() == [0.25, 0.75]
            assert v._array is not raw

    def test_core_imports_numpy_only_on_first_read(self):
        src = str(Path(sys.modules["boltzkit.core"].__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        script = "; ".join([
            "import sys, boltzkit.core as core",
            "s = core.EnergySpectrum([0, 1]); p = core.ProbabilityVector([1, 0])",
            "core.validate_spec({'levels': [0, 1], 'priors': [0.5, 0.5], 'N': 2})",
            "print('numpy' in sys.modules)",
            "p._array",
            "print('numpy' in sys.modules)",
        ])
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().split() == ["False", "True"]


class TestMacrostate:
    def test_total_is_derived_and_checked(self):
        m = Macrostate([3, 0, 2])
        assert m.total == 5
        assert len(m) == 3
        with pytest.raises(TypeError):
            Macrostate([3, 0, 2], total=5)  # the total is always the sum

    def test_rejects_negative_and_fractional(self):
        with pytest.raises(ValidationError):
            Macrostate([1, -1])
        with pytest.raises(ValidationError):
            Macrostate([1.5, 0.5])

    @pytest.mark.parametrize(
        "bad", ["a", None, [1], math.inf, math.nan],
        ids=["str", "null", "list", "inf", "nan"],
    )
    def test_rejects_non_numbers_as_validation_errors(self, bad):
        with pytest.raises(ValidationError):
            Macrostate([bad])

    @pytest.mark.parametrize(
        "occupations",
        [[1.0, 2.0], [np.float64(2), 1], [1, -1], [True, 1]],
        ids=["floats", "numpy-float", "negative", "bool"],
    )
    def test_occupations_and_total_follow_the_count_rule(self, occupations):
        with pytest.raises(ValidationError, match="is not an integer >= 0"):
            Macrostate(occupations)

    def test_integer_types_are_stored_as_ints(self):
        m = Macrostate([np.int64(2), 1])
        assert m.occupations == (2, 1) and m.total == 3
        assert all(type(x) is int for x in m.occupations)


class TestUniformPrior:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, (1.0,)), (2, (0.5, 0.5)), (4, (0.25, 0.25, 0.25, 0.25))],
    )
    def test_values(self, n, expected):
        assert uniform_prior(n).entries == expected

    def test_zero_levels(self):
        with pytest.raises(ValidationError, match="is not an integer >="):
            uniform_prior(0)


class TestValidateSpec:
    def test_well_formed(self):
        spec = validate_spec({"levels": [0, 1], "priors": [0.5, 0.5], "N": 10})
        assert spec.particles == 10
        assert spec.boltzmann_k == 1.0
        assert spec.prior.entries == (0.5, 0.5)

    def test_idempotent(self):
        raw = {"levels": [0, 1], "priors": [0.5, 0.5], "N": 10, "k": 2.0}
        once = validate_spec(raw)
        assert validate_spec(once) == once

    def test_sum_violation_rejected(self):
        with pytest.raises(ValidationError, match="probabilities sum to"):
            validate_spec({"levels": [0, 1], "priors": [0.5, 0.6], "N": 10})

    def test_renormalizes_small_drift(self):
        spec = validate_spec(
            {"levels": [0, 1], "priors": [0.5, 0.5 + 5e-10], "N": 3}
        )
        assert abs(math.fsum(spec.prior.entries) - 1.0) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="length mismatch"):
            validate_spec({"levels": [0, 1, 2], "priors": [0.5, 0.5], "N": 5})

    def test_non_positive_n(self):
        for n, shown in ((0, "0"), (2.5, r"2\.5")):
            with pytest.raises(ValidationError,
                               match=rf"^particle count {shown} is not an integer >= 1$"):
                validate_spec({"levels": [0, 1], "priors": [0.5, 0.5], "N": n})

    @pytest.mark.parametrize(
        "bad", [None, "a", [0.5]], ids=["null", "str", "list"]
    )
    def test_non_number_prior_is_a_validation_error(self, bad):
        with pytest.raises(ValidationError):
            validate_spec({"levels": [0.0, 1.0], "priors": [bad, 0.5], "N": 2})

    def test_k_beyond_float_range_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            validate_spec({"levels": [0.0], "priors": [1.0], "N": 1, "k": 10**400})

    def test_prior_sum_beyond_float_range_is_a_sum_mismatch(self):
        with pytest.raises(ValidationError, match="probabilities sum to"):
            validate_spec({"levels": [0, 1], "priors": [1e308, 1e308], "N": 2})

    def test_negative_prior(self):
        with pytest.raises(ValidationError, match="is not >= 0"):
            validate_spec({"levels": [0, 1], "priors": [1.5, -0.5], "N": 2})

    def test_non_finite_energy(self):
        with pytest.raises(ValidationError, match="non-finite energy level"):
            validate_spec(
                {"levels": [0, math.inf], "priors": [0.5, 0.5], "N": 2}
            )

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError):
            validate_spec(
                {"levels": [0, 1], "priors": [0.5, 0.5], "N": 2, "extra": 1}
            )

    def test_load_spec_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"levels": [0, 1], "priors": [0.25, 0.75], "N": 4, "k": 2.0}')
        spec = load_spec(str(path))
        assert spec == SystemSpec(
            spectrum=EnergySpectrum([0.0, 1.0]),
            prior=ProbabilityVector([0.25, 0.75]),
            particles=4,
            boltzmann_k=2.0,
        )

    def test_sequences_become_value_types(self):
        spec = SystemSpec([0, 1], [0.5, 0.5], 2)
        assert spec == validate_spec({"levels": [0, 1], "priors": [0.5, 0.5], "N": 2})
        assert isinstance(spec.spectrum, EnergySpectrum)
        assert isinstance(spec.prior, ProbabilityVector)

    def test_list_prior_is_checked(self):
        with pytest.raises(ValidationError, match=r"^probabilities sum to 1\.1,"):
            SystemSpec(EnergySpectrum([0, 1]), [0.5, 0.6], 2)

    def test_list_spectrum_of_the_wrong_length(self):
        with pytest.raises(ValidationError,
                           match=r"^length mismatch: 2 priors for 3 levels$"):
            SystemSpec([0, 1, 2], [0.5, 0.5], 2)

    def test_load_spec_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError):
            load_spec(str(path))


TWO = EnergySpectrum([0.0, 1.0])
HALVES = ProbabilityVector([0.5, 0.5])
JUNK_N = [None, "3", 2.5, 3.0, True, math.nan, 0, -1]
JUNK_K = [None, "3", True, math.nan, math.inf, 10**400, 0, -1]
JUNK_COUNT = [None, "3", 2.5, 3.0, True, math.nan, -1]


def _n_routes():
    """Every entry point that takes a particle count, as N -> call."""
    from boltzkit import (check_einstein_convergence, check_weight_dominance,
                          equilibrium_entropy_prior, equilibrium_entropy_uniform,
                          kl_cross_entropy)
    return {
        "SystemSpec": lambda n: SystemSpec(TWO, HALVES, n),
        "validate_spec": lambda n: validate_spec(
            {"levels": [0, 1], "priors": [0.5, 0.5], "N": n}),
        "kl_cross_entropy": lambda n: kl_cross_entropy(HALVES, HALVES, N=n),
        "entropy_uniform": lambda n: equilibrium_entropy_uniform(TWO, 1.0, n),
        "entropy_prior": lambda n: equilibrium_entropy_prior(TWO, HALVES, 1.0, n),
        "weight_dominance": lambda n: check_weight_dominance(2, (n,)),
        "einstein": lambda n: check_einstein_convergence(HALVES, HALVES, (n,)),
    }


def _k_routes():
    """Every entry point that takes Boltzmann's constant, as k -> call."""
    from boltzkit import (EntropyValue, boltzmann_shannon_entropy,
                          equilibrium_entropy_prior, equilibrium_entropy_uniform,
                          exact_boltzmann_entropy, kl_cross_entropy,
                          negentropy_relation, occupation_cross_entropy,
                          shannon_entropy, stirling_entropy)
    state = Macrostate([1, 2])
    return {
        "EntropyValue": lambda k: EntropyValue(0.5, k),
        "shannon_entropy": lambda k: shannon_entropy(HALVES, k),
        "boltzmann_shannon_entropy": lambda k: boltzmann_shannon_entropy(state, k),
        "stirling_entropy": lambda k: stirling_entropy(state, k),
        "exact_boltzmann_entropy": lambda k: exact_boltzmann_entropy(state, k),
        "occupation_cross_entropy": lambda k: occupation_cross_entropy(
            state, [1.5, 1.5], k),
        "negentropy_relation": lambda k: negentropy_relation(state, [1.5, 1.5], k),
        "SystemSpec": lambda k: SystemSpec(TWO, HALVES, 2, k),
        "validate_spec": lambda k: validate_spec(
            {"levels": [0, 1], "priors": [0.5, 0.5], "N": 2, "k": k}),
        "kl_cross_entropy": lambda k: kl_cross_entropy(HALVES, HALVES, k),
        "entropy_uniform": lambda k: equilibrium_entropy_uniform(TWO, 1.0, 1, k),
        "entropy_prior": lambda k: equilibrium_entropy_prior(TWO, HALVES, 1.0, 1, k),
    }


def _count_routes():
    """Every entry point that takes a level, part or truncation count, or a
    composition's total, as (count -> call, least valid count)."""
    from boltzkit import CompositionSet, OscillatorModel, check_weight_dominance
    from boltzkit.oscillators import Dimensionality
    return {
        "uniform_prior": (uniform_prior, 1),
        "CompositionSet.parts": (lambda n: CompositionSet(3, n), 1),
        "CompositionSet.total": (lambda n: CompositionSet(n, 2), 0),
        "weight_dominance": (lambda n: check_weight_dominance(n, (4,)), 1),
        "OscillatorModel.truncation": (
            lambda n: OscillatorModel(1.0, Dimensionality.LINEAR_1D, n), 1),
    }


def _length_routes():
    """The entry points that pair per-level inputs, each given 3 for 2."""
    from fractions import Fraction

    from boltzkit import (check_einstein_convergence, generalized_distribution,
                          kl_divergence, log_macrostate_probability,
                          macrostate_probability_exact, occupation_cross_entropy,
                          solve_beta)
    thirds = ProbabilityVector([1 / 3] * 3)
    return {
        "SystemSpec": lambda: SystemSpec(EnergySpectrum([0, 1, 2]), HALVES, 2),
        "validate_spec": lambda: validate_spec(
            {"levels": [0, 1, 2], "priors": [0.5, 0.5], "N": 2}),
        "generalized_distribution": lambda: generalized_distribution(TWO, thirds, 1.0),
        "solve_beta": lambda: solve_beta(TWO, thirds, 0.5),
        "kl_divergence": lambda: kl_divergence(HALVES, thirds),
        "occupation_cross_entropy": lambda: occupation_cross_entropy(
            Macrostate([1, 1]), [1.0, 0.5, 0.5]),
        "log_macrostate_probability": lambda: log_macrostate_probability(
            Macrostate([1, 1]), thirds),
        "macrostate_probability_exact": lambda: macrostate_probability_exact(
            Macrostate([1, 1]), [Fraction(1, 3)] * 3),
        "check_einstein_convergence": lambda: check_einstein_convergence(
            HALVES, thirds, (4,)),
    }


class TestOneOwnerPerRule:
    """Each input rule is checked in ``core`` and raises a ValidationError
    with its one message, at every entry point, whatever the junk; never a
    TypeError."""

    @pytest.mark.parametrize("route", sorted(_n_routes()))
    @pytest.mark.parametrize("n", JUNK_N, ids=repr)
    def test_junk_particle_count(self, route, n):
        with pytest.raises(ValidationError,
                           match=r"^particle count .* is not an integer >= 1$"):
            _n_routes()[route](n)

    @pytest.mark.parametrize("route", sorted(_k_routes()))
    @pytest.mark.parametrize("k", JUNK_K, ids=lambda k: repr(k)[:12])
    def test_junk_boltzmann_k(self, route, k):
        with pytest.raises(ValidationError, match="boltzmann_k"):
            _k_routes()[route](k)

    @pytest.mark.parametrize("h_nu", JUNK_K, ids=lambda k: repr(k)[:12])
    def test_junk_h_nu_follows_the_k_rule(self, h_nu):
        from boltzkit import OscillatorModel
        from boltzkit.oscillators import Dimensionality
        with pytest.raises(ValidationError, match=r"^h_nu .* must be a finite real > 0$"):
            OscillatorModel(h_nu, Dimensionality.LINEAR_1D)

    @pytest.mark.parametrize("route", sorted(_count_routes()))
    @pytest.mark.parametrize("n", JUNK_COUNT, ids=repr)
    def test_junk_count(self, route, n):
        with pytest.raises(ValidationError, match="is not an integer >="):
            _count_routes()[route][0](n)

    @pytest.mark.parametrize("route", sorted(_count_routes()))
    def test_count_below_its_least_value(self, route):
        call, least = _count_routes()[route]
        with pytest.raises(ValidationError, match=f"is not an integer >= {least}"):
            call(least - 1)
        call(least)

    def test_counts_are_stored_as_ints(self):
        from boltzkit import CompositionSet, OscillatorModel
        from boltzkit.oscillators import Dimensionality
        comps = CompositionSet(np.int64(3), np.int64(2))
        assert type(comps.total) is int and type(comps.parts) is int
        model = OscillatorModel(1.0, Dimensionality.LINEAR_1D, np.int64(4))
        assert type(model.truncation) is int
        assert len(uniform_prior(np.int64(4))) == 4

    def test_h_nu_is_stored_as_a_float(self):
        from boltzkit import OscillatorModel
        from boltzkit.oscillators import Dimensionality
        for h_nu in (2, np.float32(2.0), np.int64(2)):
            model = OscillatorModel(h_nu, Dimensionality.PLANAR_2D)
            assert type(model.h_nu) is float and model.h_nu == 2.0

    def test_entropy_value_stores_k_as_a_float(self):
        from boltzkit import shannon_entropy
        s = shannon_entropy(HALVES, k=2)
        assert type(s.k_used) is float and s.k_used == 2.0

    @pytest.mark.parametrize("route", sorted(_length_routes()))
    def test_length_mismatch(self, route):
        with pytest.raises(ValidationError, match="length mismatch"):
            _length_routes()[route]()

    def test_spec_stores_an_int_count_and_a_float_k(self):
        spec = SystemSpec(TWO, HALVES, np.int64(3), 2)
        assert type(spec.particles) is int and spec.particles == 3
        assert type(spec.boltzmann_k) is float and spec.boltzmann_k == 2.0
        assert spec == SystemSpec(TWO, HALVES, 3, 2.0)
        assert SystemSpec(TWO, HALVES, 10**400).particles == 10**400

    def test_prior_checks_come_before_the_length_check(self):
        # validate_spec renormalizes the priors first; SystemSpec then
        # compares the lengths
        with pytest.raises(ValidationError, match="probabilities sum to"):
            validate_spec({"levels": [0, 1, 2], "priors": [0.5, 0.6], "N": 2})
        with pytest.raises(ValidationError, match="is not >= 0"):
            validate_spec({"levels": [0, 1, 2], "priors": [1.5, -0.5], "N": 2})
