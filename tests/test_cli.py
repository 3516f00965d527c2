"""End-to-end CLI contract: output schemas, determinism, exit codes."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boltzkit import cli

SPEC_UNIFORM = '{"levels": [0.0, 1.0], "priors": [0.5, 0.5], "N": 10}'
SPEC_WEIGHTED = '{"levels": [0.0, 1.0], "priors": [0.25, 0.75], "N": 4}'
SPEC_FLAT = '{"levels": [1.0, 1.0], "priors": [0.5, 0.5], "N": 2}'


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "boltzkit", *args],
        capture_output=True,
    )


def run_main(*args):
    """cli.main in process: (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(args))
    return code, out.getvalue()


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

    def test_unit_beta_values(self, uniform_spec):
        proc = run_cli("distribution", "--spec", uniform_spec, "--beta", "1")
        header, body = parse_csv(proc.stdout)
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
        proc = run_cli("distribution", "--spec", str(path), "--beta", "1")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"Traceback" not in proc.stderr

    def test_malformed_spec_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        proc = run_cli("distribution", "--spec", str(path), "--beta", "1")
        assert proc.returncode == 2
        assert b"error" in proc.stderr

    def test_prior_sum_beyond_float_range_exits_2(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"levels": [0, 1], "priors": [1e308, 1e308], "N": 2}')
        code, out = run_main("distribution", "--spec", str(path), "--beta", "1")
        assert code == 2
        assert out == ""

    def test_unknown_field_exits_2(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text('{"levels": [0, 1], "priors": [0.5, 0.5], "N": 2, "x": 1}')
        proc = run_cli("distribution", "--spec", str(path), "--beta", "1")
        assert proc.returncode == 2

    def test_json_format(self, uniform_spec):
        proc = run_cli("distribution", "--spec", uniform_spec, "--beta", "1",
                       "--format", "json")
        records = [json.loads(line) for line in proc.stdout.splitlines()]
        assert len(records) == 2
        assert records[0]["probability"] == pytest.approx(0.73105857863)


class TestSweep:
    def test_rows_match_single_point_command(self, uniform_spec):
        sweep = run_cli("sweep", "--spec", uniform_spec, "--from", "0",
                        "--to", "1", "--points", "2")
        assert sweep.returncode == 0
        header, body = parse_csv(sweep.stdout)
        assert header == [
            "beta", "temperature", "log_partition", "mean_energy",
            "gibbs_entropy", "equilibrium_entropy", "kl_to_prior",
        ]
        assert len(body) == 2
        assert body[0][1] == ""  # no temperature at beta = 0
        dist = run_cli("distribution", "--spec", uniform_spec, "--beta", "1")
        _, dist_body = parse_csv(dist.stdout)
        assert body[1][2] == dist_body[0][4]  # log_partition agrees
        assert body[1][3] == dist_body[0][5]  # mean_energy agrees
        assert body[1][4] == dist_body[0][6]  # gibbs_entropy agrees

    def test_log_spacing_from_zero_exits_2(self, uniform_spec):
        proc = run_cli("sweep", "--spec", uniform_spec, "--from", "0",
                       "--to", "1", "--points", "3", "--spacing", "log")
        assert proc.returncode == 2

    def test_temperature_sweep(self, uniform_spec):
        proc = run_cli("sweep", "--spec", uniform_spec, "--variable",
                       "temperature", "--from", "0.5", "--to", "2",
                       "--points", "2")
        assert proc.returncode == 0
        _, body = parse_csv(proc.stdout)
        assert float(body[0][0]) == pytest.approx(2.0)  # beta = 1/(k T)
        assert float(body[1][0]) == pytest.approx(0.5)

    def test_byte_identical_reruns(self, uniform_spec):
        args = ("sweep", "--spec", uniform_spec, "--from", "-2", "--to", "2",
                "--points", "17")
        assert run_cli(*args).stdout == run_cli(*args).stdout

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
        proc = run_cli("sweep", "--spec", str(path), "--from", "0.5",
                       "--to", "2", "--points", "4")
        assert proc.returncode == 0
        header, body = parse_csv(proc.stdout)
        col = header.index("mean_energy")
        for row in body:
            closed = mean_energy_closed(model, float(row[0]))
            assert abs(float(row[col]) - closed) <= 1e-6


class TestSolve:
    def test_symmetric_target(self, uniform_spec):
        proc = run_cli("solve", "--spec", uniform_spec,
                       "--target-energy", "0.5")
        assert proc.returncode == 0
        header, body = parse_csv(proc.stdout)
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
        proc = run_cli("solve", "--spec", uniform_spec,
                       "--target-energy", "1.5")
        assert proc.returncode == 4

    def test_degenerate_support_exits_4(self, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(SPEC_FLAT)
        proc = run_cli("solve", "--spec", str(path), "--target-energy", "1.2")
        assert proc.returncode == 4


class TestVerify:
    def test_quick_scale_passes(self):
        proc = run_cli("verify", "--scale", "quick")
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        assert all(l.startswith("PASS") for l in lines[:-1])
        assert lines[-1].startswith("# oracle checks passed:")

    def test_json_reports(self):
        proc = run_cli("verify", "--scale", "quick", "--format", "json")
        assert proc.returncode == 0
        reports = json.loads(proc.stdout.decode())
        assert all(r["passed"] for r in reports)
        assert b"# oracle checks passed" in proc.stderr


class TestOscillator:
    def test_log_two_rows(self):
        import math

        beta = repr(math.log(2))
        for dim, expected in (("1d", 1.5), ("2d", 3.0)):
            proc = run_cli("oscillator", "--dim", dim, "--from", beta,
                           "--to", "1", "--points", "2")
            assert proc.returncode == 0
            header, body = parse_csv(proc.stdout)
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
        proc = run_cli("oscillator", "--dim", "1d", "--from", "0",
                       "--to", "1", "--points", "2")
        assert proc.returncode == 2

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
def spec_objects(draw):
    """A valid spec with up to two fields replaced by arbitrary JSON or by
    out-of-range numbers, and at most one field left out."""
    n = draw(st.integers(min_value=1, max_value=4))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    spec = {
        "levels": draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)),
        "priors": [w / sum(weights) for w in weights],
        "N": draw(st.integers(1, 100)),
        "k": draw(st.floats(0.1, 10.0)),
    }
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
