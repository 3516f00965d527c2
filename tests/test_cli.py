"""End-to-end CLI contract: output schemas, determinism, exit codes."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boltzkit import cli, equilibrium

SPEC_UNIFORM = '{"levels": [0.0, 1.0], "priors": [0.5, 0.5], "N": 10}'
SPEC_WEIGHTED = '{"levels": [0.0, 1.0], "priors": [0.25, 0.75], "N": 4}'
SPEC_FLAT = '{"levels": [1.0, 1.0], "priors": [0.5, 0.5], "N": 2}'
SPEC_CI = '{"levels": [0, 1, 2, 3], "priors": [0.4, 0.3, 0.2, 0.1], "N": 100}'


def run_cli(*args):
    """``python -m boltzkit`` in a child process, through the entry point."""
    return subprocess.run(
        [sys.executable, "-m", "boltzkit", *args],
        capture_output=True,
    )


def run_main(*args, stderr=None):
    """cli.main in process: (exit code, stdout text). Diagnostics go to
    ``stderr`` when a stream is given, and are dropped otherwise."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(stderr or io.StringIO()):
        code = cli.main(list(args))
    return code, out.getvalue()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def parse_csv(data: bytes):
    rows = list(csv.reader(io.StringIO(data.decode())))
    header, body = rows[0], rows[1:]
    return header, body


@pytest.fixture
def uniform_spec(tmp_path):
    path = tmp_path / "uniform.json"
    path.write_text(SPEC_UNIFORM)
    return str(path)


class TestDistribution:
    def test_beta_zero_returns_prior(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(SPEC_WEIGHTED)
        proc = run_cli("distribution", "--spec", str(path), "--beta", "0")
        assert proc.returncode == 0
        header, body = parse_csv(proc.stdout)
        assert header == [
            "i", "energy", "prior", "probability",
            "log_partition", "mean_energy", "gibbs_entropy",
        ]
        assert [row[3] for row in body] == [row[2] for row in body]

    @pytest.mark.parametrize("spec, beta", [
        ('{"levels": [0.0], "priors": [1.0], "N": 10}', "1"),
        (SPEC_CI, "1e308"),
    ], ids=["one-level", "beta-1e308"])
    def test_point_mass_gibbs_entropy_is_zero(self, tmp_path, spec, beta):
        path = tmp_path / "spec.json"
        path.write_text(spec)
        args = ("distribution", "--spec", str(path), "--beta", beta)
        _, out = run_main(*args)
        assert {row[6] for row in parse_csv(out.encode())[1]} == {"0"}
        _, out = run_main(*args, "--format", "json")
        assert '"gibbs_entropy": 0.0}' in out and "-0.0" not in out

    def test_unit_beta_values(self, uniform_spec):
        code, out = run_main("distribution", "--spec", uniform_spec, "--beta", "1")
        assert code == 0
        header, body = parse_csv(out.encode())
        assert float(body[0][3]) == pytest.approx(0.7310585786300049, abs=1e-11)
        assert float(body[1][3]) == pytest.approx(0.2689414213699951, abs=1e-11)
        assert float(body[0][5]) == pytest.approx(0.2689414213699951, abs=1e-11)

    @pytest.mark.parametrize("spec", [
        '{"levels": ["a", 1], "priors": [0.5, 0.5], "N": 2}',
        '{"levels": [0, 1], "priors": [null, 0.5], "N": 2}',
    ], ids=["string-level", "null-prior"])
    def test_non_number_in_spec_exits_2(self, tmp_path, spec):
        path = tmp_path / "bad.json"
        path.write_text(spec)
        err = io.StringIO()
        code, out = run_main("distribution", "--spec", str(path), "--beta", "1",
                             stderr=err)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err.getvalue()

    def test_malformed_spec_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        err = io.StringIO()
        code, _ = run_main("distribution", "--spec", str(path), "--beta", "1",
                           stderr=err)
        assert code == 2
        assert "error" in err.getvalue()

    def test_prior_sum_beyond_float_range_exits_2(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"levels": [0, 1], "priors": [1e308, 1e308], "N": 2}')
        code, out = run_main("distribution", "--spec", str(path), "--beta", "1")
        assert code == 2
        assert out == ""

    def test_log_partition_beyond_float_range_exits_3(self, tmp_path):
        path = tmp_path / "far.json"
        path.write_text('{"levels": [1e308, 1e308], "priors": [0.5, 0.5], "N": 1}')
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["distribution", "--spec", str(path), "--beta", "10"])
        assert code == 3
        assert out.getvalue() == ""
        errors = [l for l in err.getvalue().splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and "ln Z_w" in errors[0]

    def test_unknown_field_exits_2(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text('{"levels": [0, 1], "priors": [0.5, 0.5], "N": 2, "x": 1}')
        code, _ = run_main("distribution", "--spec", str(path), "--beta", "1")
        assert code == 2

    def test_json_format(self, uniform_spec):
        code, out = run_main("distribution", "--spec", uniform_spec, "--beta",
                             "1", "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 2
        assert records[0]["probability"] == pytest.approx(0.73105857863)


class TestSweep:
    def test_rows_match_single_point_command(self, uniform_spec):
        code, sweep = run_main("sweep", "--spec", uniform_spec, "--from", "0",
                               "--to", "1", "--points", "2")
        assert code == 0
        header, body = parse_csv(sweep.encode())
        assert header == [
            "beta", "temperature", "log_partition", "mean_energy",
            "gibbs_entropy", "equilibrium_entropy", "kl_to_prior",
        ]
        assert len(body) == 2
        assert body[0][1] == ""  # no temperature at beta = 0
        _, dist = run_main("distribution", "--spec", uniform_spec, "--beta", "1")
        _, dist_body = parse_csv(dist.encode())
        assert body[1][2] == dist_body[0][4]  # log_partition agrees
        assert body[1][3] == dist_body[0][5]  # mean_energy agrees
        assert body[1][4] == dist_body[0][6]  # gibbs_entropy agrees

    def test_kl_to_prior_at_beta_zero_is_zero(self, tmp_path):
        # p at beta = 0 is the prior up to rounding; the divergence is not < 0
        path = tmp_path / "spec.json"
        path.write_text(SPEC_CI)
        _, out = run_main("sweep", "--spec", str(path), "--from", "0",
                          "--to", "2", "--points", "21")
        header, body = parse_csv(out.encode())
        assert body[0][0] == "0" and body[0][header.index("kl_to_prior")] == "0"
        assert all(float(row[-1]) > 0.0 for row in body[1:])

    def test_zero_prior_leaves_only_equilibrium_entropy_empty(self, tmp_path):
        # the closed form needs ln p0 on every level; the other columns,
        # like distribution's, do not
        path = tmp_path / "spec.json"
        path.write_text('{"levels": [0, 1], "priors": [1, 0], "N": 3}')
        grid = ("--spec", str(path), "--from", "0", "--to", "2", "--points", "3")
        code, out = run_main("sweep", *grid)
        assert code == 0
        header, body = parse_csv(out.encode())
        column = header.index("equilibrium_entropy")
        assert [row[column] for row in body] == ["", "", ""]
        assert [row[:column] + row[column + 1:] for row in body] == [
            ["0", "", "0", "0", "0", "0"],
            ["1", "1", "0", "0", "0", "0"],
            ["2", "0.5", "0", "0", "0", "0"],
        ]
        _, dist = run_main("distribution", "--spec", str(path), "--beta", "2")
        assert parse_csv(dist.encode())[1][0][4:] == body[2][2:5]
        code, lines = run_main("sweep", *grid, "--format", "json")
        assert code == 0
        rows = [strict_json(line) for line in lines.splitlines()]
        assert [row["equilibrium_entropy"] for row in rows] == [None] * 3
        assert rows[1]["temperature"] == 1.0 and rows[0]["temperature"] is None

    def test_kl_to_prior_where_a_ratio_overflows(self, tmp_path):
        # at beta = -737 the upper level holds mass far above its 1e-320 prior
        path = tmp_path / "spec.json"
        path.write_text('{"levels": [0, 1], "priors": [1.0, 1e-320], "N": 10}')
        code, out = run_main("sweep", "--spec", str(path), "--from", "-737",
                             "--to", "-736", "--points", "2")
        assert code == 0
        header, body = parse_csv(out.encode())
        column = header.index("kl_to_prior")
        assert [row[column] for row in body] == ["399.468680692", "223.549651474"]

    def test_log_spacing_from_zero_exits_2(self, uniform_spec):
        code, out = run_main("sweep", "--spec", uniform_spec, "--from", "0",
                             "--to", "1", "--points", "3", "--spacing", "log")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("grid, betas", [
        (["--from=-1e308", "--to=1e308"], [-1e308, 0.0, 1e308]),
        (["--from=1e300", "--to=1.7976931348623157e308", "--spacing", "log"],
         [1e300, 1.34078079299e304, 1.79769313486e308]),
    ], ids=["linear-width-overflows", "log-last-power-overflows"])
    def test_grid_reaching_the_float_limit(self, uniform_spec, grid, betas):
        code, out = run_main("sweep", "--spec", uniform_spec, *grid,
                             "--points", "3")
        assert code == 0
        _, body = parse_csv(out.encode())
        assert [float(row[0]) for row in body] == pytest.approx(betas, rel=1e-11)

    def test_width_beyond_float_range_on_many_levels_exits_3(self, tmp_path):
        path = tmp_path / "many.json"
        path.write_text(json.dumps(
            {"levels": list(range(1000)), "priors": [0.001] * 1000, "N": 1}
        ))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["sweep", "--spec", str(path), "--from=-1e308",
                             "--to=1e308", "--points", "3"])
        assert code == 3
        assert out.getvalue() == ""
        assert "ln Z_w = inf" in err.getvalue()

    @pytest.mark.parametrize("start, stop, points", [
        (0.0, 4.0, 41), (-2.0, 2.0, 17), (-1e308, 7e307, 5),
        (1e-300, 1.7976931348623157e308, 9),
        (0.0, 4.0, 200), (-0.0, 0.1, 7), (0.3, 0.7, 1000),
        # the step underflows to 0: (i/div)*delta + start
        (0.0, 5e-324, 1001), (-1e-322, 1e-322, 1001), (0.0, 1e-320, 301),
    ])
    def test_finite_width_grid_is_linspace(self, start, stop, points):
        args = cli.build_parser().parse_args([
            "sweep", "--spec", "unused.json", f"--from={start!r}",
            f"--to={stop!r}", "--points", str(points),
        ])
        want = [float(v) for v in np.linspace(start, stop, points)]
        assert list(map(repr, cli._grid(args))) == list(map(repr, want))

    def test_linear_grid_is_linspace_on_random_ranges(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            start, stop = sorted(
                float(v) * 10.0 ** int(e) for v, e in
                zip(rng.uniform(-1, 1, 2), rng.choice([-322, -310, -3, 0, 5, 300], 2))
            )
            points = int(rng.integers(2, 400))
            if start == stop:
                continue
            want = [float(v) for v in np.linspace(start, stop, points)]
            got = cli._linspace(start, stop, points)
            assert list(map(repr, got)) == list(map(repr, want)), (start, stop)

    def test_temperature_sweep(self, uniform_spec):
        proc = run_cli("sweep", "--spec", uniform_spec, "--variable",
                       "temperature", "--from", "0.5", "--to", "2",
                       "--points", "2")
        assert proc.returncode == 0
        _, body = parse_csv(proc.stdout)
        assert float(body[0][0]) == pytest.approx(2.0)  # beta = 1/(k T)
        assert float(body[1][0]) == pytest.approx(0.5)

    def test_k_times_beta_rounding_to_zero(self, tmp_path):
        """1/(k x) where k x rounds to 0 is beyond float range: a temperature
        column of inf, and a beta of inf, which the kernel refuses."""
        path = tmp_path / "half_k.json"
        path.write_text('{"levels": [0, 1], "priors": [0.5, 0.5], "N": 2, "k": 0.5}')
        code, out = run_main("sweep", "--spec", str(path), "--from", "0",
                             "--to", "1e-323", "--points", "3")
        assert code == 0
        _, body = parse_csv(out.encode())
        assert [row[1] for row in body] == ["", "inf", "inf"]
        code, out = run_main("sweep", "--spec", str(path), "--variable",
                             "temperature", "--from", "5e-324", "--to", "1",
                             "--points", "3")
        assert (code, out) == (2, "")

    def test_byte_identical_reruns(self, uniform_spec):
        args = ("sweep", "--spec", uniform_spec, "--from", "-2", "--to", "2",
                "--points", "17")
        assert run_main(*args) == run_main(*args)

    def test_truncated_oscillator_spec_tracks_closed_form(self, tmp_path):
        """A 200-level planar-oscillator system written as a spec file must
        sweep to mean energies within 1e-6 of the closed form."""
        from boltzkit import Dimensionality, OscillatorModel, \
            mean_energy_closed, oscillator_as_system

        model = OscillatorModel(1.0, Dimensionality.PLANAR_2D, 200)
        spectrum, prior = oscillator_as_system(model)
        path = tmp_path / "osc.json"
        path.write_text(json.dumps({
            "levels": list(spectrum.levels),
            "priors": list(prior.entries),
            "N": 1,
        }))
        code, out = run_main("sweep", "--spec", str(path), "--from", "0.5",
                             "--to", "2", "--points", "4")
        assert code == 0
        header, body = parse_csv(out.encode())
        col = header.index("mean_energy")
        for row in body:
            closed = mean_energy_closed(model, float(row[0]))
            assert abs(float(row[col]) - closed) <= 1e-6


class TestSolve:
    def test_symmetric_target(self, uniform_spec):
        code, out = run_main("solve", "--spec", uniform_spec,
                             "--target-energy", "0.5")
        assert code == 0
        header, body = parse_csv(out.encode())
        beta = float(body[0][header.index("beta")])
        assert abs(beta) <= 1e-10

    def test_symmetric_target_is_exactly_beta_zero(self, uniform_spec):
        code, out = run_main("solve", "--spec", uniform_spec,
                             "--target-energy", "0.5")
        assert code == 0
        header, body = parse_csv(out.encode())
        for row in body:
            assert row[header.index("beta")] == "0"
            assert row[header.index("temperature")] == ""

    def test_known_inverse(self, uniform_spec):
        proc = run_cli("solve", "--spec", uniform_spec,
                       "--target-energy", "0.268941")
        header, body = parse_csv(proc.stdout)
        beta = float(body[0][header.index("beta")])
        assert beta == pytest.approx(1.0, abs=1e-4)  # target given to 6 digits
        achieved = float(body[0][header.index("mean_energy")])
        assert achieved == pytest.approx(0.268941, abs=1e-9)

    def test_out_of_range_exits_4(self, uniform_spec):
        code, out = run_main("solve", "--spec", uniform_spec,
                             "--target-energy", "1.5")
        assert code == 4
        assert out == ""

    @pytest.mark.parametrize("levels, target, message", [
        ([0.0, 1e-310, 1.0], "1e-315", "needs a beta beyond float range"),
        ([0.0, 1e-310, 1e-3], "4.5e-315", "needs a beta beyond float range"),
        ([0.0, 1e308], "1e-320", "is not resolvable"),
    ])
    def test_unreachable_root_exits_3(self, tmp_path, levels, target, message):
        path = tmp_path / "tail.json"
        path.write_text(json.dumps(
            {"levels": levels, "priors": [1 / len(levels)] * len(levels), "N": 1}))
        err = io.StringIO()
        code, out = run_main("solve", "--spec", str(path), "--target-energy",
                             target, stderr=err)
        assert code == 3
        assert out == ""
        errors = [l for l in err.getvalue().splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and message in errors[0]
        assert "Warning" not in err.getvalue()

    def test_root_near_the_float_limit(self, tmp_path):
        path = tmp_path / "tail.json"
        path.write_text(json.dumps({"levels": [0.0, 1e-310, 1.0],
                                    "priors": [1 / 3] * 3, "N": 1}))
        code, out = run_main("solve", "--spec", str(path), "--target-energy",
                             "4.96e-311")
        assert code == 0
        header, body = parse_csv(out.encode())
        assert {row[header.index("beta")] for row in body} == {"1.60003413346e+308"}

    def test_step_budget_exhausted_exits_3(self, uniform_spec, monkeypatch):
        """A solve that runs out of steps before it converges is a numeric
        failure: one step does not reach beta = 1."""
        monkeypatch.setattr(equilibrium, "_MAX_STEPS", 1)
        err = io.StringIO()
        assert run_main("solve", "--spec", uniform_spec, "--target-energy",
                        "0.268941", stderr=err) == (3, "")
        assert err.getvalue() == (f"boltzkit {cli.__version__}\n"
                                  "error: solver did not converge in 1 steps\n")

    def test_degenerate_support_exits_4(self, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(SPEC_FLAT)
        code, out = run_main("solve", "--spec", str(path), "--target-energy", "1.2")
        assert code == 4
        assert out == ""


class TestVerify:
    def test_quick_scale_passes(self):
        code, out = run_main("verify", "--scale", "quick")
        assert code == 0
        lines = out.splitlines()
        assert all(l.startswith("PASS") for l in lines[:-1])
        assert lines[-1].startswith("# oracle checks passed:")

    def test_json_reports(self):
        proc = run_cli("verify", "--scale", "quick", "--format", "json")
        assert proc.returncode == 0
        reports = json.loads(proc.stdout.decode())
        assert all(r["passed"] for r in reports)
        assert b"# oracle checks passed" in proc.stderr

    @pytest.mark.parametrize("scale", ["quick", "full"])
    def test_json_reports_parse_strictly(self, scale):
        code, out = run_main("verify", "--scale", scale, "--format", "json")
        assert code == 0
        assert all(r["passed"] for r in strict_json(out))


class TestOscillator:
    def test_log_two_rows(self):
        import math

        beta = repr(math.log(2))
        for dim, expected in (("1d", 1.5), ("2d", 3.0)):
            code, out = run_main("oscillator", "--dim", dim, "--from", beta,
                                 "--to", "1", "--points", "2")
            assert code == 0
            header, body = parse_csv(out.encode())
            assert header == [
                "beta", "closed_form_energy", "series_energy",
                "tail_bound", "difference", "exceeds_bound",
            ]
            assert float(body[0][1]) == pytest.approx(expected, abs=1e-10)
            assert body[0][5] == "false"

    def test_beta_where_exp_rounds_to_one_exits_0(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["oscillator", "--dim", "1d", "--from", "1e-18",
                             "--to", "1e-17", "--points", "2"])
        assert code == 0
        _, body = parse_csv(out.getvalue().encode())
        assert all(math.isfinite(float(row[3])) for row in body)
        assert [row[5] for row in body] == ["false", "false"]

    @pytest.mark.parametrize("dim, start, stop", [
        ("1d", "1e-160", "1e-159"), ("2d", "1e-110", "1e-109"),
    ])
    def test_beta_where_tail_power_underflows_exits_0(self, dim, start, stop):
        code, out = run_main("oscillator", "--dim", dim, "--from", start,
                             "--to", stop, "--points", "2")
        assert code == 0
        _, body = parse_csv(out.encode())
        assert [row[3] for row in body] == ["inf", "inf"]
        assert [row[5] for row in body] == ["false", "false"]

    def test_json_carries_an_infinite_bound_as_text(self):
        code, out = run_main("oscillator", "--dim", "2d", "--from", "1e-110",
                             "--to", "1e-109", "--points", "2", "--format", "json")
        assert code == 0
        records = [strict_json(line) for line in out.splitlines()]
        assert [r["tail_bound"] for r in records] == ["inf", "inf"]
        assert [r["beta"] for r in records] == [1e-110, 1e-109]

    def test_beta_h_nu_underflowing_to_zero_exits_0(self):
        for dim, modes in (("1d", 1.0), ("2d", 2.0)):
            code, out = run_main("oscillator", "--dim", dim, "--h-nu", "1e-200",
                                 "--from", "1e-200", "--to", "2e-200",
                                 "--points", "2")
            assert code == 0
            _, body = parse_csv(out.encode())
            assert [float(row[1]) for row in body] == pytest.approx(
                [modes * 1e200, modes * 5e199], rel=1e-11
            )

    def test_zero_beta_in_range_exits_2(self):
        code, out = run_main("oscillator", "--dim", "1d", "--from", "0",
                             "--to", "1", "--points", "2")
        assert code == 2
        assert out == ""

    def test_series_column_tracks_closed_form(self):
        proc = run_cli("oscillator", "--dim", "2d", "--levels", "400",
                       "--from", "0.5", "--to", "2", "--points", "4")
        _, body = parse_csv(proc.stdout)
        for row in body:
            assert float(row[4]) <= float(row[3]) + 1e-12


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


#: Any float, weighted toward the edges of the float range.
EXTREME_FLOATS = st.floats() | st.floats(-10.0, 10.0) | st.sampled_from([
    0.0, -0.0, 5e-324, 1e-310, 1e-200, 1e-18, 1e300, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan,
])


@st.composite
def spec_objects(draw, wild=True):
    """A valid spec with up to two fields replaced by arbitrary JSON or by
    out-of-range numbers, and at most one field left out; with ``wild``
    false, the valid spec itself."""
    n = draw(st.integers(min_value=1, max_value=4))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    spec = {
        "levels": draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)),
        "priors": [w / sum(weights) for w in weights],
        "N": draw(st.integers(1, 100)),
        "k": draw(st.floats(0.1, 10.0)),
    }
    if not wild:
        return spec
    wild = {
        "levels": st.lists(st.floats() | JSON_VALUES, min_size=n, max_size=n),
        "priors": st.lists(st.floats(min_value=0.0) | JSON_VALUES,
                           min_size=n, max_size=n),
        "N": st.integers(),
        "k": st.floats(),
    }
    for key in draw(st.sets(st.sampled_from(sorted(spec)), max_size=2)):
        spec[key] = draw(wild[key] | JSON_VALUES)
    for key in draw(st.sets(st.sampled_from(sorted(spec)), max_size=1)):
        del spec[key]
    return spec


class TestArbitraryInput:
    """In-process fuzzing of the exit-code contract: whatever the spec file
    and the float flag hold, main returns a documented code, raises nothing,
    and writes no data when it fails."""

    @settings(max_examples=60, deadline=None)
    @given(
        spec=spec_objects(),
        command=st.sampled_from(
            [("distribution", "--beta"), ("solve", "--target-energy")]
        ),
        value=st.floats(-10.0, 10.0) | st.floats()
        | st.sampled_from([math.nan, math.inf, -math.inf]),
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_exit_code_contract(self, tmp_path_factory, spec, command, value, fmt):
        path = tmp_path_factory.getbasetemp() / "fuzz_spec.json"
        path.write_text(json.dumps(spec))
        name, flag = command
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([name, "--spec", str(path), f"{flag}={value!r}",
                             "--format", fmt])
        assert code in (0, 2, 3, 4)
        if code != 0:
            assert out.getvalue() == ""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.sampled_from(["1d", "2d"]),
        h_nu=EXTREME_FLOATS,
        start=EXTREME_FLOATS,
        stop=EXTREME_FLOATS,
        points=st.integers(-1, 8),
        levels=st.integers(-1, 300),
        spacing=st.sampled_from(["linear", "log"]),
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_oscillator_exit_code_contract(
        self, dim, h_nu, start, stop, points, levels, spacing, fmt
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([
                "oscillator", "--dim", dim, f"--h-nu={h_nu!r}",
                f"--from={start!r}", f"--to={stop!r}", f"--points={points}",
                f"--levels={levels}", "--spacing", spacing, "--format", fmt,
            ])
        assert code in (0, 2, 3, 4)
        if code != 0:
            assert out.getvalue() == ""

    @settings(max_examples=60, deadline=None)
    @given(
        spec=spec_objects(wild=False) | spec_objects(),
        variable=st.sampled_from(["beta", "temperature"]),
        start=st.sampled_from([-1e308, 1e308]) | EXTREME_FLOATS,
        stop=st.sampled_from([-1e308, 1e308]) | EXTREME_FLOATS,
        points=st.integers(-1, 8),
        spacing=st.sampled_from(["linear", "log"]),
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_sweep_exit_code_contract(
        self, tmp_path_factory, spec, variable, start, stop, points, spacing, fmt
    ):
        path = tmp_path_factory.getbasetemp() / "fuzz_sweep_spec.json"
        path.write_text(json.dumps(spec))
        code, out = run_main(
            "sweep", "--spec", str(path), "--variable", variable,
            f"--from={start!r}", f"--to={stop!r}", f"--points={points}",
            "--spacing", spacing, "--format", fmt,
        )
        assert code in (0, 2, 3, 4)
        if code != 0:
            assert out == ""
        elif fmt == "json":
            for line in out.splitlines():
                strict_json(line)

    @settings(max_examples=30, deadline=None)
    @given(
        scale=st.sampled_from(["quick", "full"]) | st.text(max_size=5),
        fmt=st.sampled_from(["csv", "json"]) | st.text(max_size=5),
    )
    def test_verify_exit_code_contract(self, scale, fmt):
        try:
            code, out = run_main("verify", f"--scale={scale}", f"--format={fmt}")
        except SystemExit as exc:  # argparse rejects the choice
            code, out = exc.code, ""
        assert code in (0, 2, 3, 4)
        if code != 0:
            assert out == ""
        elif fmt == "json":
            strict_json(out)


class TestFamilyErrors:
    """An error of each family ends in its exit code and one error line on
    stderr, whose message tells the case apart."""

    @pytest.mark.parametrize("spec, args, code, message", [
        (SPEC_UNIFORM, ("solve", "--target-energy", "1.5"), 4,
         "target 1.5 outside the open interval (0.0, 1.0) of attainable mean energies"),
        (SPEC_FLAT, ("solve", "--target-energy", "1.2"), 4,
         "all supported levels have energy 1.0; target 1.2 is unreachable"),
        ('{"levels": [1e308, 1e308], "priors": [0.5, 0.5], "N": 1}',
         ("distribution", "--beta", "10"), 3,
         "ln Z_w = -inf at beta=10.0: the prior-weighted partition sum is beyond "
         "float range"),
        (None, ("oscillator", "--dim", "1d", "--from", "0", "--to", "1",
                "--points", "2"), 2, "beta 0.0 must be positive"),
        # <u> ends 4e-9 relative from 1e-300, beyond 1e-10 of its distance
        # from the nearer end of the range
        ('{"levels": [0, 1e-310, 1e-40, 1], "priors": [0.5, 0.5, 5e-251, 5e-301], '
         '"N": 1}', ("solve", "--target-energy=1e-300"), 3,
         "solver stalled: mean 1.0000000041400388e-300 misses target 1e-300"),
        ('{"levels": [0, -1e-310, -1e-40, -1], "priors": [0.5, 0.5, 5e-251, 5e-301], '
         '"N": 1}', ("solve", "--target-energy=-1e-300"), 3,
         "solver stalled: mean -1.0000000041400388e-300 misses target -1e-300"),
        (SPEC_UNIFORM, ("sweep", "--variable", "temperature", "--from", "0",
                        "--to", "2", "--points", "3"), 2,
         "temperature sweeps require start > 0"),
        (SPEC_UNIFORM, ("sweep", "--variable", "temperature", "--from", "-1",
                        "--to", "2", "--points", "3"), 2,
         "temperature sweeps require start > 0"),
        (SPEC_UNIFORM, ("solve", "--target-energy", "nan"), 2,
         "target nan must be finite"),
        (SPEC_UNIFORM, ("solve", "--target-energy", "inf"), 2,
         "target inf must be finite"),
        ('{"levels": [0, 1], "priors": [0.5, 0.5], "N": 0}',
         ("distribution", "--beta", "1"), 2, "particle count 0 is not an integer >= 1"),
        ('{"levels": [0, 1, 2], "priors": [0.5, 0.5], "N": 1}',
         ("distribution", "--beta", "1"), 2, "length mismatch: 2 priors for 3 levels"),
        ('{"levels": [0, 1], "priors": [1.5, -0.5], "N": 1}',
         ("distribution", "--beta", "1"), 2, "probability entry -0.5 is not >= 0"),
        ('{"levels": [0, 1], "priors": [0.6, 0.6], "N": 1}',
         ("distribution", "--beta", "1"), 2,
         "probabilities sum to 1.2, not 1 within 1e-09"),
        ('{"levels": [0, Infinity], "priors": [0.5, 0.5], "N": 1}',
         ("distribution", "--beta", "1"), 2, "non-finite energy level inf"),
        ('{"levels": [], "priors": [], "N": 1}',
         ("distribution", "--beta", "1"), 2, "spectrum needs at least one energy level"),
    ], ids=["out-of-range", "one-energy-support", "log-partition", "oscillator-beta",
            "stalled", "stalled-mirror", "temperature-from-zero",
            "temperature-from-negative", "target-nan", "target-inf", "particle-count",
            "length-mismatch", "negative-prior", "prior-sum", "non-finite-energy",
            "no-levels"])
    def test_exit_code_and_error_line(self, tmp_path, spec, args, code, message):
        if spec is not None:
            path = tmp_path / "spec.json"
            path.write_text(spec)
            args = (args[0], "--spec", str(path), *args[1:])
        err = io.StringIO()
        assert run_main(*args, stderr=err) == (code, "")
        assert err.getvalue() == f"boltzkit {cli.__version__}\nerror: {message}\n"
