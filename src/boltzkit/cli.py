"""Command-line front end: reproducible batch computations, CSV/JSON out.

Subcommands: distribution | sweep | solve | verify | oscillator.

Data goes to stdout (CSV with a header row, or JSON lines); diagnostics and
the version banner go to stderr. Identical invocations produce byte-identical
data streams. Exit codes: 0 success, 1 verification failure, 2 input or
validation error, 3 numeric failure, 4 constraint infeasibility.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .core import SystemSpec, load_spec
from .entropy import kl_divergence
from .equilibrium import (
    equilibrium_entropy_prior,
    equilibrium_entropy_uniform,
    generalized_distribution,
    solve_beta,
)
from .errors import (
    InfeasibleError,
    NumericError,
    ValidationError,
)
from .oracle import default_suite, reports_to_json
from .oscillators import (
    Dimensionality,
    OscillatorModel,
    mean_energy_closed,
    mean_energy_series,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(x: float) -> float:
    return float(_fmt(x))


@dataclass(frozen=True)
class SweepRequest:
    """Grid over beta or temperature for the sweep subcommand."""

    variable: str  # "beta" | "temperature"
    start: float
    stop: float
    points: int
    spacing: str = "linear"  # "linear" | "log"

    def __post_init__(self):
        if self.variable not in ("beta", "temperature"):
            raise ValidationError(f"unknown sweep variable {self.variable!r}")
        if self.spacing not in ("linear", "log"):
            raise ValidationError(f"unknown spacing {self.spacing!r}")
        if not (self.start < self.stop):
            raise ValidationError(
                f"sweep needs start < stop, got {self.start} >= {self.stop}"
            )
        if self.points < 2:
            raise ValidationError(f"sweep needs >= 2 points, got {self.points}")
        if self.spacing == "log" and not (self.start > 0):
            raise ValidationError("log spacing requires start > 0")
        if self.variable == "temperature" and not (self.start > 0):
            raise ValidationError("temperature sweeps require start > 0")

    def grid(self) -> list[float]:
        if self.spacing == "log":
            values = np.geomspace(self.start, self.stop, self.points)
        else:
            values = np.linspace(self.start, self.stop, self.points)
        return [float(v) for v in values]


def _emit_rows(fmt: str, header: list[str], rows: list[list], out) -> None:
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(x) for x in row])
    else:
        for row in rows:
            record = {
                key: (_round12(v) if isinstance(v, float) else v)
                for key, v in zip(header, row)
            }
            out.write(json.dumps(record) + "\n")


def _emit_levels(fmt: str, spec: SystemSpec, sol, columns: list[str],
                 values: list, out) -> None:
    """One row per level: index, energy, prior, probability, then values."""
    rows = [
        [i, e, q, p, *values]
        for i, (e, q, p) in enumerate(
            zip(spec.spectrum.levels, spec.prior.entries,
                sol.distribution.entries),
            start=1,
        )
    ]
    header = ["i", "energy", "prior", "probability", *columns]
    _emit_rows(fmt, header, rows, out)


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return _fmt(x)
    return str(x)


def _temperature(beta: float, k: float) -> float | None:
    return None if beta == 0.0 else 1.0 / (k * beta)


def _is_uniform(spec: SystemSpec) -> bool:
    n = spec.spectrum.count
    return max(abs(q - 1.0 / n) for q in spec.prior.entries) <= 1e-12


def _equilibrium_entropy(spec: SystemSpec, beta: float) -> float:
    if _is_uniform(spec):
        return equilibrium_entropy_uniform(
            spec.spectrum, beta, spec.particles, spec.boltzmann_k
        )
    return equilibrium_entropy_prior(
        spec.spectrum, spec.prior, beta, spec.particles, spec.boltzmann_k
    )


def cmd_distribution(args, out) -> int:
    spec = load_spec(args.spec)
    sol = generalized_distribution(spec.spectrum, spec.prior, args.beta)
    gibbs = spec.boltzmann_k * spec.particles * sol.entropy_per_particle
    _emit_levels(args.format, spec, sol,
                 ["log_partition", "mean_energy", "gibbs_entropy"],
                 [sol.log_partition, sol.mean_energy, gibbs], out)
    return EXIT_OK


def cmd_sweep(args, out) -> int:
    spec = load_spec(args.spec)
    request = SweepRequest(
        variable=args.variable,
        start=args.start,
        stop=args.stop,
        points=args.points,
        spacing=args.spacing,
    )
    header = [
        "beta", "temperature", "log_partition", "mean_energy",
        "gibbs_entropy", "equilibrium_entropy", "kl_to_prior",
    ]
    rows = []
    for g in request.grid():
        beta = 1.0 / (spec.boltzmann_k * g) if request.variable == "temperature" else g
        sol = generalized_distribution(spec.spectrum, spec.prior, beta)
        gibbs = spec.boltzmann_k * spec.particles * sol.entropy_per_particle
        s_equil = _equilibrium_entropy(spec, beta)
        kl = kl_divergence(sol.distribution, spec.prior)
        rows.append([beta, _temperature(beta, spec.boltzmann_k),
                     sol.log_partition, sol.mean_energy, gibbs, s_equil, kl])
    _emit_rows(args.format, header, rows, out)
    return EXIT_OK


def cmd_solve(args, out) -> int:
    spec = load_spec(args.spec)
    sol = solve_beta(spec.spectrum, spec.prior, args.target_energy)
    temp = _temperature(sol.beta, spec.boltzmann_k)
    _emit_levels(args.format, spec, sol,
                 ["beta", "temperature", "mean_energy", "log_partition"],
                 [sol.beta, temp, sol.mean_energy, sol.log_partition], out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
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
    request = SweepRequest(
        variable="beta", start=args.start, stop=args.stop,
        points=args.points, spacing=args.spacing,
    )
    betas = request.grid()
    for beta in betas:
        if not (beta > 0.0):
            raise ValidationError(f"oscillator sweeps need beta > 0, got {beta}")
    header = [
        "beta", "closed_form_energy", "series_energy",
        "tail_bound", "difference", "exceeds_bound",
    ]
    rows = []
    for beta in betas:
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

    p_dist = sub.add_parser(
        "distribution", help="per-level equilibrium distribution at one beta"
    )
    p_dist.add_argument("--spec", required=True)
    p_dist.add_argument("--beta", type=float, required=True)
    add_format(p_dist)
    p_dist.set_defaults(func=cmd_distribution)

    p_sweep = sub.add_parser("sweep", help="grid of equilibrium summaries")
    p_sweep.add_argument("--spec", required=True)
    p_sweep.add_argument("--variable", choices=("beta", "temperature"),
                         default="beta")
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--spacing", choices=("linear", "log"),
                         default="linear")
    add_format(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_solve = sub.add_parser(
        "solve", help="invert the mean-energy constraint for beta"
    )
    p_solve.add_argument("--spec", required=True)
    p_solve.add_argument("--target-energy", type=float, required=True)
    add_format(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser(
        "verify", help="run the exact-enumeration oracle suite"
    )
    p_verify.add_argument("--scale", choices=("quick", "full"),
                          default="quick")
    add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_osc = sub.add_parser(
        "oscillator", help="closed-form vs series oscillator energies"
    )
    p_osc.add_argument("--dim", choices=("1d", "2d"), required=True)
    p_osc.add_argument("--h-nu", dest="h_nu", type=float, default=1.0)
    p_osc.add_argument("--levels", type=int, default=256)
    p_osc.add_argument("--from", dest="start", type=float, required=True)
    p_osc.add_argument("--to", dest="stop", type=float, required=True)
    p_osc.add_argument("--points", type=int, required=True)
    p_osc.add_argument("--spacing", choices=("linear", "log"),
                       default="linear")
    add_format(p_osc)
    p_osc.set_defaults(func=cmd_oscillator)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    print(f"boltzkit {__version__}", file=sys.stderr)
    try:
        return args.func(args, sys.stdout)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OverflowError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
