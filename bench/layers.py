"""The traced run (``--trace 1``): per-layer metrics, module by module.

Spans are recorded from the benchmark's own code: ``Tracer.wrapped``
replaces every binding of a boltzkit function, across the package's
modules, with a wrapper that records its name, start, end and the span that
called it, and restores the originals afterwards. ``src/`` is not edited.
Like the end-to-end metrics, spans and probes are timed in CPU time
(``workloads.cpu_seconds``).

Every traced run measures all layers, each at the input sizes of the
workload it serves: a fifth of ``--seconds`` runs oracle-enum operations
under spans, a fifth equilibrium-solve, and two fifths cli-session (whose
per-subcommand process times are the ``cli.<cmd>_process_ms`` figures).
Layers that no operation isolates are timed by direct probes. Counts are
taken on the inputs of the fixed reference seed, so that they repeat
exactly whatever ``--seed`` is.
"""

from __future__ import annotations

import collections
import contextlib
import io
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import boltzkit
from boltzkit import cli, combinatorics, core, oracle, oscillators

import workloads
from workloads import ROOT, SRC, CliSession, EquilibriumSolve, OracleEnum, cpu_seconds

REFERENCE_SEED = 0

ORACLE_SPANS = (
    (oracle, "check_normalization_and_means"),
    (oracle, "check_most_probable_state"),
    (combinatorics, "weight_ratio_probability"),
)
SOLVE_SPANS = (
    (boltzkit.equilibrium, "solve_beta"),
    (boltzkit.equilibrium, "generalized_distribution"),
    (boltzkit.equilibrium, "entropy_inequality_check"),
    (boltzkit.entropy, "kl_divergence"),
)


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, cpu_seconds(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = cpu_seconds()

    def _traced(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def wrapped(self, targets):
        """Trace calls to ``module.attr`` for each target, through every
        boltzkit module that holds the same function object."""
        modules = [m for k, m in sys.modules.items()
                   if k == "boltzkit" or k.startswith("boltzkit.")]
        patched = []
        for module, attr in targets:
            original = getattr(module, attr)
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            traced = self._traced(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)
                        patched.append((m, key, original))
        try:
            yield
        finally:
            for m, key, original in patched:
                setattr(m, key, original)

    def durations_ms(self, name: str) -> list[float]:
        return [(s[2] - s[1]) * 1e3 for s in self.spans if s[0] == name]

    def children_per_parent(self, child: str, parent: str) -> list[int]:
        counts = {i: 0 for i, s in enumerate(self.spans) if s[0] == parent}
        for s in self.spans:
            if s[0] == child and s[3] in counts:
                counts[s[3]] += 1
        return list(counts.values())

    def summary(self) -> dict:
        """Per span name: calls, total and self time (total minus the time
        covered by its child spans), in ms."""
        child_time = collections.defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s[0], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (s[2] - s[1]) * 1e3
            row["self_ms"] += (s[2] - s[1] - child_time[i]) * 1e3
        return out


@contextmanager
def counting_compositions(seen: set):
    """Record every composition drawn from a CompositionSet."""
    cls = combinatorics.CompositionSet
    originals = {"iter_tuples": cls.iter_tuples, "__iter__": cls.__iter__}

    def iter_tuples(self):
        for occ in originals["iter_tuples"](self):
            seen.add(occ)
            yield occ

    def iterate(self):
        for m in originals["__iter__"](self):
            seen.add(m.occupations)
            yield m

    cls.iter_tuples, cls.__iter__ = iter_tuples, iterate
    try:
        yield
    finally:
        cls.iter_tuples, cls.__iter__ = originals["iter_tuples"], originals["__iter__"]


def probe_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t = cpu_seconds()
        fn()
        times.append((cpu_seconds() - t) * 1e3)
    return statistics.median(times)


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise workloads.OpFailed(f"in-process {argv[0]} exited {code}")


def _python_ms(args, env, reps: int) -> float:
    def once():
        subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                       check=True, capture_output=True, timeout=120)
    return probe_ms(once, reps)


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def traced_run(seed: int, seconds: float, workdir: Path, tally) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and the raw trace record."""
    groups = {
        "oracle-enum": OracleEnum(seed, workdir),
        "equilibrium-solve": EquilibriumSolve(seed, workdir),
        "cli-session": CliSession(seed, workdir / "cli"),
    }
    # the probes and reference counts that follow take about the last fifth
    shares = {"oracle-enum": 0.2, "equilibrium-solve": 0.2, "cli-session": 0.4}
    spans = {"oracle-enum": ORACLE_SPANS, "equilibrium-solve": SOLVE_SPANS,
             "cli-session": ()}
    tracer = Tracer()
    traced_ops = {}
    for name, w in groups.items():
        warm_tally = workloads.Tally()
        warm = workloads.attempt(w, 0, warm_tally)  # not among the attempts
        if warm is not None:
            workloads.verify(w, 0, warm[0], warm_tally)
        tally.absorb(warm_tally)
        first = len(tally.times)
        with tracer.wrapped(spans[name]):
            workloads.measure(w, seconds * shares[name], tally,
                              span=lambda: tracer.span(f"op.{name}"))
        if tally.times[first:]:
            traced_ops[name] = statistics.median(tally.times[first:]) * 1e3

    ms = {}
    ms["combinatorics.enumerate_ms"] = probe_ms(
        lambda: collections.deque(
            combinatorics.CompositionSet(total=30, parts=4).iter_tuples(), 0), 7)
    ms["combinatorics.weight_ratio_ms"] = statistics.median(
        tracer.durations_ms("combinatorics.weight_ratio_probability"))
    ms["oracle.normalization_ms"] = statistics.median(
        tracer.durations_ms("oracle.check_normalization_and_means"))
    ms["oracle.most_probable_ms"] = statistics.median(
        tracer.durations_ms("oracle.check_most_probable_state"))
    ms["oracle.verify_quick_ms"] = probe_ms(lambda: oracle.default_suite("quick"), 5)
    ms["equilibrium.distribution_ms"] = statistics.median(
        tracer.durations_ms("equilibrium.generalized_distribution"))
    ms["equilibrium.solve_ms"] = statistics.median(
        tracer.durations_ms("equilibrium.solve_beta"))
    ms["equilibrium.entropy_forms_ms"] = statistics.median(
        tracer.durations_ms("equilibrium.entropy_inequality_check"))
    ms["entropy.kl_divergence_ms"] = statistics.median(
        tracer.durations_ms("entropy.kl_divergence"))

    solve = groups["equilibrium-solve"]
    ms["core.probability_vector_ms"] = statistics.median(
        probe_ms(lambda: core.ProbabilityVector(inst.prior), 1)
        for inst in solve.instances)
    session = groups["cli-session"]
    ms["core.load_spec_ms"] = probe_ms(
        lambda: core.load_spec(session.argv["sweep"][2]), 7)
    model = oscillators.OscillatorModel(
        h_nu=session.h_nu, dimensionality=oscillators.Dimensionality(session.dim),
        truncation=session.OSC_LEVELS)
    ms["oscillators.series_ms"] = statistics.median(
        probe_ms(lambda: oscillators.mean_energy_series(model, b), 1)
        for b in session.oscillator_betas())
    ms["cli.python_start_ms"] = _python_ms(["-c", "pass"], session.env, 5)
    ms["cli.import_ms"] = _python_ms(["-c", "import boltzkit"], session.env, 5)
    for cmd in CliSession.COMMANDS:
        ms[f"cli.{cmd}_inproc_ms"] = probe_ms(
            lambda: _quiet_main(session.argv[cmd]), 3)
    for cmd in CliSession.COMMANDS:
        ms[f"cli.{cmd}_process_ms"] = statistics.median(
            session.command_times[cmd][1:]) * 1e3

    counts = reference_counts(workdir / "reference", tally)
    metrics = {name: (value, "ms") for name, value in ms.items()}
    metrics["combinatorics.compositions_per_op"] = (counts["compositions"], "count")
    metrics["equilibrium.distribution_calls_per_solve"] = (counts["calls"], "count")
    metrics["cli.stdout_bytes"] = (counts["stdout_bytes"], "bytes")
    metrics["src.lines"] = (src_lines(), "count")
    raw = {
        "traced_op_p50_ms": traced_ops,
        "spans": tracer.summary(),
    }
    return metrics, raw


def check_one(w, i: int, tally):
    done = workloads.attempt(w, i, tally)
    if done is None:
        return None
    workloads.verify(w, i, done[0], tally)
    return done[0]


def reference_counts(workdir: Path, run_tally) -> dict:
    """Counts on the reference seed's inputs. Each operation is checked; one
    that fails or is wrong counts as a wrong output of the run and its count
    reads 0, but it is not added to the run's attempts, which stay whole
    passes."""
    tally = workloads.Tally()
    oracle_w = OracleEnum(REFERENCE_SEED, workdir)
    seen: set = set()
    with counting_compositions(seen):
        check_one(oracle_w, 0, tally)

    solve_w = EquilibriumSolve(REFERENCE_SEED, workdir)
    tracer = Tracer()
    with tracer.wrapped(SOLVE_SPANS[:2]):
        for i in range(16):
            check_one(solve_w, i, tally)
    calls = tracer.children_per_parent(
        "equilibrium.generalized_distribution", "equilibrium.solve_beta")

    session = CliSession(REFERENCE_SEED, workdir / "cli")
    outputs = check_one(session, 0, tally)
    run_tally.absorb(tally)
    return {
        "compositions": len(seen),
        "calls": statistics.median(calls) if calls and not tally.failed else 0,
        "stdout_bytes": sum(len(out) for _, out in (outputs or {}).values()),
    }
