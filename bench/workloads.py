"""The three workloads: seeded inputs, the timed operation, its check.

A workload is built in set-up from ``--seed`` and holds its ``POOL`` inputs
before timing starts. ``run(i)`` is one timed operation on input ``i`` and
``check(i, result)`` verifies its output outside the timed region.
Operations call module attributes (``oracle.check_...``), not names bound
at import, so the traced run can wrap them.

An operation's time is the CPU time it costs (``cpu_seconds``): this
process's and that of the child processes it waits for. Its wall time is
kept beside it. On a shared virtual machine wall time also counts the time
the host runs other guests on our virtual CPU (steal), which is most of the
short-term noise and none of the program's doing. Before each operation
the loop also times a gauge, a fixed piece of work that calls no boltzkit
code, so that a run can be scaled to a reference host speed.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from boltzkit import combinatorics, entropy, equilibrium, oracle
from boltzkit.core import EnergySpectrum, Macrostate, ProbabilityVector, SystemSpec

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The program's documented solver tolerance, relative to the energy range.
#: Fixed here rather than read from the program so a change to it shows.
ENERGY_TOL_FACTOR = 1e-10


class OpFailed(Exception):
    """The program failed to produce an output for an operation."""


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children, in seconds."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


_GAUGE_X = np.linspace(0.0, 1.0, 2000)


def work_gauge_seconds() -> float:
    """CPU time of an integer loop, a sum of Fractions and numpy on 2,000
    floats: the three kinds of work boltzkit does in-process. The host's
    speed drifts by 10-20 % over minutes; timed next to the operations, the
    gauge drifts with them."""
    c = time.process_time()
    s = 0
    for i in range(15_000):
        s += i * i % 7
    f = Fraction(0)
    for i in range(1, 200):
        f += Fraction(i, i * i + 3)
    for _ in range(20):
        b = np.exp(-1.3 * _GAUGE_X)
        b /= b.sum()
        float(np.dot(b, _GAUGE_X))
    return time.process_time() - c


def process_gauge_seconds() -> float:
    """CPU time of a child ``python -c "import numpy"``: interpreter start
    and the import that dominate a boltzkit process. It follows the host's
    drift for child processes, which the in-process gauge does not."""
    c = cpu_seconds()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=120)
    return cpu_seconds() - c


@dataclass
class Tally:
    """Operations of one run: each timed one's CPU and wall seconds, the
    gauge's CPU seconds before each, attempts, failures, wrong outputs, and
    the first few reasons."""

    times: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    gauge: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    notes: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        if len(self.notes) < 5:
            self.notes.append(message)

    def absorb(self, other: "Tally") -> None:
        """Take the faults of operations kept out of this tally's attempts,
        such as a warm-up: each counts as a wrong output."""
        self.incorrect += other.failed + other.incorrect
        for note in other.notes:
            self.note(note)


def attempt(w, i: int, tally: Tally, span=contextlib.nullcontext):
    """Operation ``i``, timed: (result, CPU seconds, wall seconds), or None
    if it raised."""
    tally.attempted += 1
    c, t = cpu_seconds(), time.perf_counter()
    try:
        with span():
            result = w.run(i)
    except Exception:  # a fault of the program: count it and go on
        tally.failed += 1
        tally.note(f"{type(w).__name__} op {i} failed:\n{traceback.format_exc()}")
        return None
    return result, cpu_seconds() - c, time.perf_counter() - t


def verify(w, i: int, result, tally: Tally) -> None:
    try:
        w.check(i, result)
    except checks.CheckFailed as exc:
        tally.incorrect += 1
        tally.note(f"{type(w).__name__} op {i} is wrong: {exc}")


def measure(w, seconds: float, tally: Tally, span=contextlib.nullcontext) -> None:
    """Closed loop in whole passes over the workload's inputs, operations
    back to back, each after ``w.GAUGES`` runs of ``w.gauge``, until
    ``seconds`` have passed; each operation is checked after its timed
    region. Whole passes keep the share of failed operations exact when an
    input fails every time."""
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for i in range(w.POOL):
            tally.gauge.extend(w.gauge() for _ in range(w.GAUGES))
            done = attempt(w, i, tally, span)
            if done is not None:
                tally.times.append(done[1])
                tally.wall.append(done[2])
                verify(w, i, done[0], tally)


# -- oracle-enum ---------------------------------------------------------------

@dataclass(frozen=True)
class OracleInstance:
    levels: tuple[float, ...]
    ks: tuple[int, ...]
    beta: float
    particles: int = 30
    denominator: int = 16


class OracleEnum:
    """Exhaustive oracle checks of one N=30, n=4 system per operation.

    Priors are a seeded permutation of (1, 3, 5, 7)/16: exact in binary, and
    every permutation costs the same exact-rational work, so operations
    differ in input but not in amount of work. Levels and beta are seeded.
    """

    KS = (1, 3, 5, 7)
    POOL = 4
    gauge = staticmethod(work_gauge_seconds)
    GAUGES = 4  # about 3 % of an operation
    #: the gauge's median CPU time in ms on the machine of the README's
    #: reference figures; it only sets the scale of the scaled times
    GAUGE_REF_MS = 3.3

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.instances = []
        self.specs = []
        for _ in range(self.POOL):
            inst = OracleInstance(
                levels=tuple(float(x) for x in np.sort(rng.uniform(0.0, 2.0, 4))),
                ks=tuple(int(k) for k in rng.permutation(self.KS)),
                beta=float(rng.uniform(0.25, 2.0)),
            )
            self.instances.append(inst)
            self.specs.append(SystemSpec(
                spectrum=EnergySpectrum(inst.levels),
                prior=ProbabilityVector(k / inst.denominator for k in inst.ks),
                particles=inst.particles,
            ))

    def run(self, i: int):
        spec = self.specs[i]
        norm = oracle.check_normalization_and_means(spec)
        mode = oracle.check_most_probable_state(spec, self.instances[i].beta)
        argmax = Macrostate(json.loads(mode.exact_value))
        return norm, mode, combinatorics.weight_ratio_probability(argmax)

    def check(self, i: int, result) -> None:
        checks.check_oracle(self.instances[i], result)


# -- equilibrium-solve ---------------------------------------------------------

@dataclass(frozen=True)
class SolveInstance:
    levels: tuple[float, ...]
    prior: tuple[float, ...]
    target: float


class EquilibriumSolve:
    """solve_beta on 2,000 levels, then both entropy forms and D(p||p0).

    Energy scales are stratified over 1e-3..1e3 (one draw per equal slice of
    the exponent) so that every run meets the same mix of |beta|, which sets
    the bisection's step count. Offsets go up to 1e3 x range and targets sit
    in the middle half of the range: inside what solve_beta handles today.
    """

    LEVELS = 2000
    POOL = 32
    gauge = staticmethod(work_gauge_seconds)
    GAUGES = 1  # about 7 % of an operation
    GAUGE_REF_MS = 3.3

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        exponents = -3.0 + 6.0 * (rng.permutation(self.POOL)
                                  + rng.uniform(0.0, 1.0, self.POOL)) / self.POOL
        self.instances = []
        self.inputs = []
        for x in exponents:
            scale = 10.0 ** x
            unit = rng.uniform(0.0, 1.0, self.LEVELS)
            levels = scale * (rng.uniform(0.0, 1e3) + unit)
            weights = rng.uniform(0.05, 1.0, self.LEVELS)
            prior = weights / weights.sum()
            lo, hi = float(levels.min()), float(levels.max())
            target = lo + (hi - lo) * float(rng.uniform(0.25, 0.75))
            spectrum = EnergySpectrum(levels.tolist())
            pv = ProbabilityVector(prior.tolist())
            self.instances.append(SolveInstance(spectrum.levels, pv.entries, target))
            self.inputs.append((spectrum, pv))

    def run(self, i: int):
        spectrum, prior = self.inputs[i]
        sol = equilibrium.solve_beta(spectrum, prior, self.instances[i].target)
        forms = equilibrium.entropy_inequality_check(spectrum, prior, sol.beta)
        return sol, forms, entropy.kl_cross_entropy(sol.distribution, prior)

    def check(self, i: int, result) -> None:
        checks.check_solve(self.instances[i], result, ENERGY_TOL_FACTOR)


# -- cli-session ---------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class CliSession:
    """Five ``python -m boltzkit`` processes on spec files written in set-up.

    One spec of 1,000 levels with seeded energies, strictly positive
    non-uniform priors and N serves distribution (json), sweep over 200
    beta points (csv) and solve (csv); verify --scale quick prints text and
    oscillator prints json. Every operation runs the same five commands, so
    their stdout must repeat byte for byte within a run. A command's exit
    code goes to the check with its stdout; a non-zero one fails the check.
    """

    POOL = 1
    LEVELS = 1000
    gauge = staticmethod(process_gauge_seconds)
    GAUGES = 1  # about 14 % of an operation
    GAUGE_REF_MS = 330.0
    SWEEP = ("0", "4", 200)
    OSC_LEVELS = 400
    OSC_POINTS = 50
    COMMANDS = ("distribution", "sweep", "solve", "verify", "oscillator")

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        levels = rng.uniform(0.0, 10.0, self.LEVELS)
        weights = rng.uniform(0.05, 1.0, self.LEVELS)
        self.spec = {
            "levels": levels.tolist(),
            "priors": (weights / weights.sum()).tolist(),
            "N": int(rng.integers(10, 101)),
            "k": 1.0,
        }
        self.beta = float(rng.uniform(0.2, 2.0))
        lo, hi = float(levels.min()), float(levels.max())
        self.target = lo + (hi - lo) * float(rng.uniform(0.25, 0.75))
        self.dim = str(rng.choice(["1d", "2d"]))
        self.h_nu = float(rng.uniform(0.5, 2.0))
        self.osc_range = (float(rng.uniform(0.2, 0.5)), float(rng.uniform(2.0, 5.0)))

        workdir.mkdir(parents=True, exist_ok=True)
        spec_path = workdir / "system.json"
        spec_path.write_text(json.dumps(self.spec), encoding="utf-8")
        spec = str(spec_path)
        start, stop, points = self.SWEEP
        self.argv = {
            "distribution": ["distribution", "--spec", spec, "--beta",
                             repr(self.beta), "--format", "json"],
            "sweep": ["sweep", "--spec", spec, "--from", start, "--to", stop,
                      "--points", str(points)],
            "solve": ["solve", "--spec", spec, "--target-energy", repr(self.target)],
            "verify": ["verify", "--scale", "quick"],
            "oscillator": ["oscillator", "--dim", self.dim, "--h-nu", repr(self.h_nu),
                           "--levels", str(self.OSC_LEVELS),
                           "--from", repr(self.osc_range[0]),
                           "--to", repr(self.osc_range[1]),
                           "--points", str(self.OSC_POINTS), "--format", "json"],
        }
        self.env = child_env()
        self.first = None  # outputs of the first operation, the warm-up
        self.stderr: dict[str, bytes] = {}  # of the latest operation
        self.command_times: dict[str, list[float]] = {c: [] for c in self.COMMANDS}

    def sweep_betas(self):
        start, stop, points = self.SWEEP
        return [float(b) for b in np.linspace(float(start), float(stop), points)]

    def oscillator_betas(self):
        return [float(b) for b in np.linspace(*self.osc_range, self.OSC_POINTS)]

    def run(self, i: int):
        outputs = {}
        for name in self.COMMANDS:
            c = cpu_seconds()
            proc = subprocess.run(
                [sys.executable, "-m", "boltzkit", *self.argv[name]],
                cwd=ROOT, env=self.env, capture_output=True, timeout=120,
            )
            self.command_times[name].append(cpu_seconds() - c)
            outputs[name] = (proc.returncode, proc.stdout)
            self.stderr[name] = proc.stderr
        if self.first is None:
            self.first = outputs
        return outputs

    def check(self, i: int, result) -> None:
        try:
            checks.check_session(self, result, self.first)
        except checks.CheckFailed as exc:
            errors = "".join(self.stderr.get(name, b"").decode(errors="replace")[-400:]
                             for name, (code, _) in result.items() if code != 0)
            raise checks.CheckFailed(f"{exc}\n{errors}".rstrip()) from None


WORKLOADS = {
    "oracle-enum": OracleEnum,
    "equilibrium-solve": EquilibriumSolve,
    "cli-session": CliSession,
}
