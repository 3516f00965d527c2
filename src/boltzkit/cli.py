"""Command-line front end: reproducible batch computations, CSV/JSON out.

Subcommands: distribution | sweep | solve | verify | oscillator.

Data goes to stdout (CSV with a header row, or JSON lines); diagnostics and
the version banner go to stderr. Identical invocations produce byte-identical
data streams. Exit codes: 0 success, 1 verification failure, 2 input or
validation error, 3 numeric failure, 4 constraint infeasibility.

Subcommands import equilibrium, entropy and oracle (and so numpy) when they
run: ``--help``, usage errors and ``oscillator`` on a linear grid never load
numpy.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import __version__
from .core import SystemSpec, load_spec
from .errors import InfeasibleError, NumericError, ValidationError
from .oscillators import (Dimensionality, OscillatorModel, mean_energy_closed,
                          mean_energy_series)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _linspace(start: float, stop: float, points: int) -> list[float]:
    """np.linspace bit for bit, in plain floats: i*step + start, or
    (i/div)*delta + start where the step underflows to 0; stop is last."""
    div, delta = points - 1, stop - start
    step = delta / div
    return [i * step + start if step else i / div * delta + start
            for i in range(div)] + [stop]


def _grid(args) -> list[float]:
    """The --from/--to/--points/--spacing grid, validated.

    A linear grid whose width stop - start overflows is built on the
    halved endpoints and doubled; halving and doubling are exact there.
    geomspace pins both endpoints, so an overflow of its last power is
    harmless. Only log spacing loads numpy.
    """
    start, stop = args.start, args.stop
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError(f"sweep needs finite endpoints, got {start}, {stop}")
    if not (start < stop):
        raise ValidationError(f"sweep needs start < stop, got {start} >= {stop}")
    if args.points < 2:
        raise ValidationError(f"sweep needs >= 2 points, got {args.points}")
    if args.spacing == "log":
        if not (start > 0):
            raise ValidationError("log spacing requires start > 0")
        import numpy as np
        with np.errstate(over="ignore"):
            return [float(v) for v in np.geomspace(start, stop, args.points)]
    if math.isfinite(stop - start):
        return _linspace(start, stop, args.points)
    return [2.0 * v for v in _linspace(start / 2.0, stop / 2.0, args.points)]


def _emit_rows(fmt: str, header: list[str], rows: list[list], out) -> None:
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(x) for x in row])
    else:
        for row in rows:
            record = {key: _json_cell(v) for key, v in zip(header, row)}
            out.write(json.dumps(record, allow_nan=False) + "\n")


def _emit_levels(fmt: str, spec: SystemSpec, sol, columns: list[str],
                 values: list, out) -> None:
    """One row per level: index, energy, prior, probability, then values."""
    levels = zip(spec.spectrum.levels, spec.prior.entries, sol.distribution.entries)
    rows = [[i, *level, *values] for i, level in enumerate(levels, start=1)]
    header = ["i", "energy", "prior", "probability", *columns]
    _emit_rows(fmt, header, rows, out)


def _json_cell(x):
    """A float rounded as in CSV; a non-finite one as its CSV text."""
    if not isinstance(x, float):
        return x
    return float(_fmt(x)) if math.isfinite(x) else _fmt(x)


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return _fmt(x)
    return str(x)


def _inverse(x: float, k: float) -> float | None:
    """1/(k x), a temperature from beta or a beta from a temperature: None at
    x = 0, and +-inf where k x rounds to 0 (its true value is out of range)."""
    kx = k * x
    return None if x == 0.0 else (1.0 / kx if kx else math.copysign(math.inf, x))


def _entropy_head(spec: SystemSpec, log_prior, support) -> float | None:
    """The beta-free term of the closed equilibrium-entropy form: ln n + ln n
    at a uniform prior (ln Z = ln Z_w + ln n there), H(prior) otherwise, and
    None where a prior is 0 (the form takes ln p0 of every level)."""
    from .equilibrium import _prior_entropy
    n = spec.spectrum.count
    if max(abs(q - 1.0 / n) for q in spec.prior.entries) <= 1e-12:
        return 2.0 * math.log(n)
    return None if support is not None else _prior_entropy(spec.prior, log_prior, None)


def cmd_distribution(args, out) -> int:
    from .equilibrium import generalized_distribution
    spec = load_spec(args.spec)
    sol = generalized_distribution(spec.spectrum, spec.prior, args.beta)
    gibbs = spec.boltzmann_k * spec.particles * sol.entropy_per_particle
    _emit_levels(args.format, spec, sol,
                 ["log_partition", "mean_energy", "gibbs_entropy"],
                 [sol.log_partition, sol.mean_energy, gibbs], out)
    return EXIT_OK


def cmd_sweep(args, out) -> int:
    from .entropy import kl_divergence
    from .equilibrium import _family_arrays, _quiet, _summaries
    spec = load_spec(args.spec)
    grid = _grid(args)
    temperature = args.variable == "temperature"
    if temperature and not (args.start > 0):
        raise ValidationError("temperature sweeps require start > 0")
    header = [
        "beta", "temperature", "log_partition", "mean_energy",
        "gibbs_entropy", "equilibrium_entropy", "kl_to_prior",
    ]
    k_n = spec.boltzmann_k * spec.particles
    rows = []
    with _quiet():
        energies, log_prior, support = _family_arrays(spec.spectrum, spec.prior)
        head = _entropy_head(spec, log_prior, support)
        for g in grid:
            beta = _inverse(g, spec.boltzmann_k) if temperature else g
            p, log_z, mean, entropy = _summaries(energies, log_prior, beta, support)
            s_equil = None if head is None else k_n * (head + beta * mean + log_z)
            rows.append([beta, _inverse(beta, spec.boltzmann_k), log_z, mean,
                         k_n * entropy, s_equil, kl_divergence(p, spec.prior)])
    _emit_rows(args.format, header, rows, out)
    return EXIT_OK


def cmd_solve(args, out) -> int:
    from .equilibrium import solve_beta
    spec = load_spec(args.spec)
    sol = solve_beta(spec.spectrum, spec.prior, args.target_energy)
    temp = _inverse(sol.beta, spec.boltzmann_k)
    _emit_levels(args.format, spec, sol,
                 ["beta", "temperature", "mean_energy", "log_partition"],
                 [sol.beta, temp, sol.mean_energy, sol.log_partition], out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    from .oracle import default_suite, reports_to_json
    reports = default_suite(args.scale)
    passed = sum(1 for r in reports if r.passed)
    summary = f"# oracle checks passed: {passed}/{len(reports)}\n"
    if args.format == "json":
        out.write(reports_to_json(reports) + "\n")
        sys.stderr.write(summary)  # keep stdout pure JSON
    else:
        for r in reports:
            tag = "PASS" if r.passed else "FAIL"
            out.write(
                f"{tag} {r.check_name} [{r.instance}] "
                f"value={_fmt(r.approx_value)} tol={_fmt(r.tolerance)}\n"
            )
        out.write(summary)
    return EXIT_OK if passed == len(reports) else EXIT_VERIFY_FAILED


def cmd_oscillator(args, out) -> int:
    dim = Dimensionality(args.dim)
    model = OscillatorModel(
        h_nu=args.h_nu, dimensionality=dim, truncation=args.levels
    )
    header = [
        "beta", "closed_form_energy", "series_energy",
        "tail_bound", "difference", "exceeds_bound",
    ]
    rows = []
    for beta in _grid(args):  # mean_energy_closed refuses beta <= 0
        closed = mean_energy_closed(model, beta)
        series, bound = mean_energy_series(model, beta)
        diff = abs(series - closed)
        rows.append([beta, closed, series, bound, diff, diff > bound + 1e-12])
    _emit_rows(args.format, header, rows, out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boltzkit",
        description="Equilibrium distributions, entropies and exact "
        "verification for finite energy-level systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_grid(p):
        p.add_argument("--from", dest="start", type=float, required=True)
        p.add_argument("--to", dest="stop", type=float, required=True)
        p.add_argument("--points", type=int, required=True)
        p.add_argument("--spacing", choices=("linear", "log"), default="linear")

    def command(name, func, summary, spec=True):
        p = sub.add_parser(name, help=summary)
        if spec:
            p.add_argument("--spec", required=True)
        p.set_defaults(func=func)
        return p

    p_dist = command("distribution", cmd_distribution,
                     "per-level equilibrium distribution at one beta")
    p_dist.add_argument("--beta", type=float, required=True)
    add_format(p_dist)

    p_sweep = command("sweep", cmd_sweep, "grid of equilibrium summaries")
    p_sweep.add_argument("--variable", choices=("beta", "temperature"),
                         default="beta")
    add_grid(p_sweep)
    add_format(p_sweep)

    p_solve = command("solve", cmd_solve, "invert the mean-energy constraint for beta")
    p_solve.add_argument("--target-energy", type=float, required=True)
    add_format(p_solve)

    p_verify = command("verify", cmd_verify, "run the exact-enumeration oracle suite",
                       spec=False)
    p_verify.add_argument("--scale", choices=("quick", "full"), default="quick")
    add_format(p_verify)

    p_osc = command("oscillator", cmd_oscillator,
                    "closed-form vs series oscillator energies", spec=False)
    p_osc.add_argument("--dim", choices=("1d", "2d"), required=True)
    p_osc.add_argument("--h-nu", dest="h_nu", type=float, default=1.0)
    p_osc.add_argument("--levels", type=int, default=256)
    add_grid(p_osc)
    add_format(p_osc)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    print(f"boltzkit {__version__}", file=sys.stderr)
    try:
        return args.func(args, sys.stdout)
    except (ValidationError, InfeasibleError, NumericError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ValidationError):
            return EXIT_VALIDATION
        return EXIT_INFEASIBLE if isinstance(exc, InfeasibleError) else EXIT_NUMERIC
