"""Independent references and checkers for the benchmark's operations.

Nothing here calls boltzkit: every reference is recomputed from the raw
inputs with numpy, ``math`` or ``fractions``, or is a property the method
must have. Each checker raises ``CheckFailed`` with a reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

#: Relative tolerance for a value printed with 12 significant digits
#: (half a unit in the 12th digit is 5e-12) plus the program's own rounding.
PRINTED_RTOL = 2e-11


class CheckFailed(Exception):
    """An operation's output disagrees with its independent reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- exponential family, recomputed -----------------------------------------

def gibbs(levels, prior, beta: float) -> dict:
    """p_i ∝ prior_i exp(-beta E_i) by log-sum-exp on energies relative to
    their minimum, with the mean, ln Z_w and the Gibbs entropy."""
    e = np.asarray(levels, dtype=float)
    p0 = np.asarray(prior, dtype=float)
    e_ref = float(e.min())
    rel = e - e_ref
    log_w = np.log(p0) - beta * rel
    shift = float(log_w.max())
    w = np.exp(log_w - shift)
    total = float(w.sum())
    p = w / total
    mean_rel = float(np.dot(p, rel))
    log_z = shift + math.log(total) - beta * e_ref
    nz = p > 0.0
    return {
        "p": p,
        "mean": e_ref + mean_rel,
        "log_z": log_z,
        # beta <E> + ln Z_w, free of the cancellation between its two terms
        "beta_mean_plus_log_z": beta * mean_rel + shift + math.log(total),
        "entropy": float(-np.sum(p[nz] * np.log(p[nz]))),
    }


def kl(p, p0) -> float:
    p = np.asarray(p, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    nz = p > 0.0
    return float(np.sum(p[nz] * np.log(p[nz] / p0[nz])))


def solve_reference(levels, prior, target: float) -> float:
    """beta with mean energy == target, by bisection to adjacent floats on
    the decreasing map beta -> <E>, bracketed by doubling."""
    def mean(b):
        return gibbs(levels, prior, b)["mean"]

    lo, hi = -1.0, 1.0
    while mean(lo) < target:
        lo *= 2.0
    while mean(hi) > target:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if mean(mid) > target:
            lo = mid
        else:
            hi = mid


def close(actual: float, expected: float, rtol: float, atol: float) -> bool:
    return abs(actual - expected) <= rtol * abs(expected) + atol


# -- oracle-enum --------------------------------------------------------------

def check_oracle(inst, result) -> None:
    """``result`` is (normalization reports, most-probable report, ratio)."""
    norm_reports, mode_report, ratio = result
    n_total = inst.particles
    require(len(norm_reports) == 1 + len(inst.ks), "wrong number of reports")
    require(norm_reports[0].exact_value == "1",
            f"normalization total {norm_reports[0].exact_value} != 1")
    for j, (report, k) in enumerate(zip(norm_reports[1:], inst.ks)):
        want = Fraction(n_total * k, inst.denominator)
        require(Fraction(report.exact_value) == want,
                f"mean of level {j + 1} is {report.exact_value}, not {want}")
    require(all(r.passed for r in norm_reports), "a normalization report FAILs")

    argmax = json.loads(mode_report.exact_value)
    require(len(argmax) == len(inst.ks) and sum(argmax) == n_total
            and min(argmax) >= 0, f"argmax {argmax} is not a composition")
    require(mode_report.passed, "most-probable-state report FAILs")
    p = gibbs(inst.levels, [k / inst.denominator for k in inst.ks], inst.beta)["p"]
    # No single-particle move i -> j raises W * prod(p^x): the multinomial
    # is discrete-concave, so this certifies a global maximum. The 1e-9
    # slack admits only float near-ties.
    for i, xi in enumerate(argmax):
        for j, xj in enumerate(argmax):
            if i != j and xi > 0:
                require(xi * p[j] <= (xj + 1) * p[i] * (1 + 1e-9),
                        f"moving a particle {i}->{j} improves {argmax}")

    weight = math.factorial(n_total)
    for x in argmax:
        weight //= math.factorial(x)
    want = float(Fraction(weight, len(argmax) ** n_total))
    require(close(ratio, want, 1e-12, 0.0),
            f"weight ratio {ratio!r} != W/n^N = {want!r}")


# -- equilibrium-solve --------------------------------------------------------

#: Relative tolerance on p against the log-sum-exp reference. The program
#: exponentiates -beta*E on absolute energies, so its rounding grows with
#: |beta| * max|E|; at these inputs it stays below 1e-12.
P_RTOL = 1e-10


def check_solve(inst, result, energy_tol_factor: float) -> None:
    """``result`` is (solution, (s_uniform, s_prior, holds), -N k D)."""
    sol, (s_uniform, s_prior, holds), cross = result
    e = np.asarray(inst.levels)
    e_range = float(e.max() - e.min())
    ref = gibbs(inst.levels, inst.prior, sol.beta)
    p = np.asarray(sol.distribution.entries)
    require(p.shape == ref["p"].shape, "distribution has the wrong length")
    require(bool(np.all(np.abs(p - ref["p"]) <= P_RTOL * ref["p"] + 1e-15)),
            f"p differs from log-sum-exp by {np.max(np.abs(p - ref['p'])):.3g}")
    require(abs(ref["mean"] - inst.target) <= energy_tol_factor * e_range,
            f"mean {ref['mean']!r} misses target {inst.target!r}")

    # Both closed forms, recomputed: ln n + beta <E> + ln Z for the plain
    # distribution, and H(prior) + beta <E> + ln Z_w for the weighted one.
    n = len(inst.levels)
    plain = gibbs(inst.levels, np.full(n, 1.0 / n), sol.beta)
    # ln Z = ln Z_w + ln n when every prior is 1/n
    want_uniform = plain["beta_mean_plus_log_z"] + 2.0 * math.log(n)
    p0 = np.asarray(inst.prior)
    want_prior = float(-np.sum(p0 * np.log(p0))) + ref["beta_mean_plus_log_z"]
    atol = 1e-12 * (1.0 + abs(sol.beta) * float(np.max(np.abs(e))))
    require(close(s_uniform, want_uniform, 1e-9, atol),
            f"uniform-priors entropy {s_uniform!r} != {want_uniform!r}")
    require(close(s_prior, want_prior, 1e-9, atol),
            f"given-priors entropy {s_prior!r} != {want_prior!r}")
    require(holds and want_uniform >= want_prior,
            "entropy inequality S_uniform >= S_prior fails")

    d = kl(ref["p"], p0)
    require(cross <= 0.0 and d >= 0.0, f"D(p||p0) = {-cross!r} is negative")
    require(close(-cross, d, 1e-9, 1e-15), f"D(p||p0) {-cross!r} != {d!r}")


# -- cli-session --------------------------------------------------------------

def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _json_rows(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def _compare_columns(rows, refs, what: str) -> None:
    """Each row's numeric cells against the reference within the printed
    digits; ``atol`` per column is scaled by the column's largest value."""
    require(len(rows) == len(refs), f"{what}: {len(rows)} rows, want {len(refs)}")
    for col in refs[0]:
        scale = max(abs(r[col]) for r in refs if r[col] is not None)
        for i, (row, ref) in enumerate(zip(rows, refs)):
            want = ref[col]
            got = row[col]
            if want is None:
                require(got in ("", None), f"{what} row {i} {col}: {got!r} not empty")
                continue
            require(close(float(got), want, PRINTED_RTOL, 1e-11 * scale),
                    f"{what} row {i} {col}: {got!r} != {want!r}")


def distribution_reference(spec: dict, beta: float) -> list[dict]:
    g = gibbs(spec["levels"], spec["priors"], beta)
    gibbs_s = spec["k"] * spec["N"] * g["entropy"]
    return [
        {"i": i + 1, "energy": e, "prior": q, "probability": float(p),
         "log_partition": g["log_z"], "mean_energy": g["mean"],
         "gibbs_entropy": gibbs_s}
        for i, (e, q, p) in enumerate(zip(spec["levels"], spec["priors"], g["p"]))
    ]


def sweep_reference(spec: dict, betas) -> list[dict]:
    """Rows of ``sweep`` at a non-uniform prior (the given-priors entropy)."""
    k, n_part = spec["k"], spec["N"]
    p0 = np.asarray(spec["priors"])
    h0 = float(-np.sum(p0 * np.log(p0)))
    rows = []
    for b in betas:
        g = gibbs(spec["levels"], spec["priors"], b)
        rows.append({
            "beta": b,
            "temperature": None if b == 0.0 else 1.0 / (k * b),
            "log_partition": g["log_z"],
            "mean_energy": g["mean"],
            "gibbs_entropy": k * n_part * g["entropy"],
            "equilibrium_entropy": k * n_part * (h0 + g["beta_mean_plus_log_z"]),
            "kl_to_prior": kl(g["p"], p0),
        })
    return rows


def solve_reference_rows(spec: dict, target: float) -> list[dict]:
    beta = solve_reference(spec["levels"], spec["priors"], target)
    g = gibbs(spec["levels"], spec["priors"], beta)
    return [
        {"i": i + 1, "energy": e, "prior": q, "probability": float(p),
         "beta": beta, "temperature": 1.0 / (spec["k"] * beta),
         "mean_energy": g["mean"], "log_partition": g["log_z"]}
        for i, (e, q, p) in enumerate(zip(spec["levels"], spec["priors"], g["p"]))
    ]


def oscillator_closed_form(dim: str, h_nu: float, beta: float) -> float:
    """Textbook means: h_nu (1/2 + 1/(e^x - 1)) in 1D and
    h_nu (1 + 2/(e^x - 1)) in 2D, with x = beta h_nu."""
    bose = 1.0 / math.expm1(beta * h_nu)
    return h_nu * (0.5 + bose) if dim == "1d" else h_nu * (1.0 + 2.0 * bose)


def check_session(session, outputs: dict, first: dict | None) -> None:
    """``outputs`` maps subcommand -> (exit code, stdout bytes); ``first``
    is the warm-up session's outputs, which every later one must equal."""
    for name, (code, _) in outputs.items():
        require(code == 0, f"{name} exited {code}")
    text = {name: out.decode() for name, (_, out) in outputs.items()}

    _compare_columns(_json_rows(text["distribution"]),
                     distribution_reference(session.spec, session.beta),
                     "distribution")
    _compare_columns(_csv_rows(text["sweep"]),
                     sweep_reference(session.spec, session.sweep_betas()),
                     "sweep")
    _compare_columns(_csv_rows(text["solve"]),
                     solve_reference_rows(session.spec, session.target),
                     "solve")

    lines = text["verify"].splitlines()
    require(len(lines) > 1, "verify printed no checks")
    require(all(line.startswith("PASS ") for line in lines[:-1]),
            "verify printed a line that is not PASS")
    count = lines[-1].rsplit(" ", 1)[-1]
    require(count == f"{len(lines) - 1}/{len(lines) - 1}",
            f"verify summary {lines[-1]!r}")

    osc = _json_rows(text["oscillator"])
    betas = session.oscillator_betas()
    require(len(osc) == len(betas), f"oscillator: {len(osc)} rows, want {len(betas)}")
    for row, b in zip(osc, betas):
        want = oscillator_closed_form(session.dim, session.h_nu, b)
        require(close(row["beta"], b, PRINTED_RTOL, 0.0), f"oscillator beta {row['beta']}")
        require(close(row["closed_form_energy"], want, PRINTED_RTOL, 0.0),
                f"oscillator closed form {row['closed_form_energy']!r} != {want!r}")
        require(row["exceeds_bound"] is False
                and abs(row["series_energy"] - want) <= row["tail_bound"] + 1e-10 * want,
                f"oscillator series {row['series_energy']!r} outside its bound")

    if first is not None:
        for name, (_, out) in outputs.items():
            require(out == first[name][1], f"{name} stdout changed between runs")
