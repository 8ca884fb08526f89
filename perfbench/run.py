"""Benchmark for trihodge: end-to-end metrics per workload, per-layer metrics traced.

Run from the root of a checkout (no install step; trihodge is imported from
``src``):

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Workloads are closed loops with one caller: the next op starts when the
previous one has returned and been checked. Every op's output is checked
against ``inputs.expected`` (a table of base manifolds plus connected-sum
additivity) or, for ``cli``, against the golden files byte for byte. A wrong
or raising op counts as failed, and the command exits 1 if any op failed.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates traced and untraced schedule cycles and reports
the per-layer metrics. A table goes to stdout first; the last line is one
JSON object. See README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT = HERE / "out"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

sys.path[:0] = [str(HERE), str(SRC)]
import inputs  # noqa: E402
from spans import NO_TRACE, Tracer  # noqa: E402

if not (SRC / "trihodge").is_dir():
    sys.exit(f"perfbench: no trihodge source at {SRC}; run from the root of a checkout")
try:
    import numpy as np
    from trihodge import (
        H2DualRep,
        act,
        base_ledger,
        c1_difference,
        diagram_from_curves,
        dual_complex,
        dual_middle_homology,
        ensure_valid,
        h2_basis_cocycles,
        hodge_diamond,
        homology_complex,
        homology_groups,
        intersection_form,
        is_admissible,
        spin_count,
    )
    from trihodge.lattice import Subgroup, kernel_basis, quotient, smith_normal_form
    from trihodge.pairings import dual_rep_basis
except ImportError as exc:
    sys.exit(f"perfbench: cannot import trihodge from {SRC}: {exc}")

SETUP_PROBES = 5
CLI_PROBES = 5
REPLAY_REPEATS = 3
OVERRUN_S = 90  # a run stops mid-cycle once it is this far past --seconds

# The argv cases of tests/test_cli.py, each with its golden file.
REP_FILE = str(GOLDEN / "rep_cp2.json")
CLI_CASES = (
    ("validate_cp2.txt", ["validate", "--builtin", "CP2"]),
    ("validate_s4.txt", ["validate", "--builtin", "S4"]),
    ("homology_s4.txt", ["homology", "--builtin", "S4"]),
    ("homology_cp2.txt", ["homology", "--builtin", "CP2"]),
    ("homology_cp2bar.txt", ["homology", "--builtin", "CP2bar"]),
    ("homology_s1xs3.txt", ["homology", "--builtin", "S1xS3"]),
    ("homology_s2xs2.txt", ["homology", "--builtin", "S2xS2"]),
    ("homology_s2xs2_candidate.txt", ["homology", "--builtin", "S2xS2_candidate"]),
    ("homology_cp2_cp2bar.txt", ["homology", "--builtin", "CP2#CP2bar"]),
    ("homology_qs4_z3.txt", ["homology", "--builtin", "QS4_Z3"]),
    ("diamond_cp2.txt", ["diamond", "--builtin", "CP2"]),
    ("diamond_s1xs3.txt", ["diamond", "--builtin", "S1xS3"]),
    ("form_cp2.txt", ["form", "--builtin", "CP2"]),
    ("form_cp2_cp2bar.txt", ["form", "--builtin", "CP2#CP2bar"]),
    ("form_s2xs2.txt", ["form", "--builtin", "S2xS2"]),
    ("spin_s1xs3.txt", ["spin", "--builtin", "S1xS3"]),
    ("spin_s2xs2.txt", ["spin", "--builtin", "S2xS2"]),
    ("spinc_cp2.txt", ["spinc", "--builtin", "CP2"]),
    ("spinc_cp2_act.txt", ["spinc", "--builtin", "CP2", "--act", REP_FILE]),
    ("homology_cp2_json.txt", ["homology", "--builtin", "CP2", "--json"]),
    ("homology_random_g2_s5.txt", ["homology", "--genus", "2", "--seed", "5"]),
)
# Diagrams behind the golden cases, used where the cli workload needs
# in-process layers (coverage and lattice replay).
CLI_DIAGRAMS = (("CP2",), ("CP2bar",), ("S1xS3",), ("S2xS2",), ("CP2", "CP2bar"), ("QS4_Z3",))

# Runs a CLI call inside a fresh process and times main() alone.
MAIN_PROBE = """
import contextlib, io, json, sys, time
from trihodge.cli import main
buf = io.StringIO()
t = time.perf_counter()
with contextlib.redirect_stdout(buf):
    code = main(sys.argv[1:])
print(json.dumps({"s": time.perf_counter() - t, "code": code, "out": buf.getvalue()}))
"""


def bits(values) -> int:
    return max((abs(int(v)).bit_length() for v in values), default=0)


class Checked(NamedTuple):
    """What the untimed check found out about one op."""

    errors: list[str]
    bits: dict[str, int]
    structures: int = 0
    rss_kb: int = 0


# ---------------------------------------------------------------- in-process ops


class Answers(NamedTuple):
    groups: tuple
    dual: object
    diamond: object
    form: object
    basis: tuple
    reps: tuple
    moved: object
    c1: object
    count: int | None


def construct(case, trace):
    with trace("diagram.construct"):
        return diagram_from_curves(case.genus, case.alpha, case.beta, case.gamma)


def query(d, trace, spin: bool) -> Answers:
    """Every invariant the census op asks for, each call in its layer's span."""
    with trace("diagram.validate"):
        ensure_valid(d)
    with trace("complexes.homology_groups"):
        groups = homology_groups(d)
    with trace("complexes.dual_middle_homology"):
        dual = dual_middle_homology(d)
    with trace("complexes.hodge_diamond"):
        diamond = hodge_diamond(d)
    with trace("pairings.intersection_form"):
        form = intersection_form(d)
        basis = h2_basis_cocycles(d)
    with trace("pairings.dual_rep_basis"):
        reps = dual_rep_basis(d)
    with trace("spinc.act_c1"):
        ledger = base_ledger(d)
        moved = act(ledger, reps[0] if reps else H2DualRep.zero(d))
        c1 = c1_difference(moved, ledger)
    count = None
    if spin:
        with trace("spin.spin_count"):
            count = spin_count(d)
    return Answers(groups, dual, diamond, form, basis, reps, moved, c1, count)


def pipeline(case, trace, spin: bool):
    d = construct(case, trace)
    first = query(d, trace, spin)
    with trace("diagram.requery"):
        again = query(d, NO_TRACE, spin)
    return d, first, again


def check_pipeline(case, result) -> Checked:
    _, first, again = result
    exp = inputs.expected(case.summands)
    errors: list[str] = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            errors.append(what)

    groups = first.groups
    need([h.rank for h in groups] == [1, *exp.ranks, 1], "betti numbers")
    need(not groups[0].torsion and not groups[4].torsion, "torsion in H_0 or H_4")
    for k in (1, 2, 3):
        need(inputs.prime_powers(groups[k].torsion) == exp.torsion[k - 1], f"torsion of H_{k}")
    need(first.dual == groups[2], "dual route to H_2")
    need(
        all(first.diamond.cohomology(k) == groups[4 - k] for k in range(5)),
        "diamond against Poincare duality",
    )
    form, basis, reps, c1 = first.form, first.basis, first.reps, first.c1
    b2 = exp.ranks[1]
    need(form.rank == len(basis) == len(reps) == b2, "rank of the form")
    need(form.signature == exp.signature, "signature")
    need(form.parity == ("odd" if exp.odd else "even"), "parity")
    gram = tuple(tuple(inputs.form(x.b1, y.b2) for y in basis) for x in basis)
    need(form.gram == gram, "gram matrix")
    need(form.unimodular and abs(inputs.det(gram)) == 1, "unimodular")
    for x in list(basis) + [c1]:
        need(not any(map(sum, zip(*x.blocks))), "cocycle components sum to zero")
        need(
            all(inputs.form(b, curve) == 0 for b, cs in zip(x.blocks, case.key) for curve in cs),
            "cocycle component outside its Lagrangian",
        )
    if reps:
        for x in basis:
            acted = sum(inputs.form(b, lift) for b, lift in zip(x.blocks, reps[0].lifts))
            need(inputs.form(x.b1, c1.b2) == 2 * acted, "c1 difference is twice the acting class")
    else:
        need(not any(map(any, c1.blocks)), "c1 difference of the zero action")
    need(is_admissible(first.moved), "admissible after action")
    if first.count is not None:
        need(first.count == exp.spin_count, "spin count")
    need(again == first, "re-query differs from first query")
    out_bits = {
        "form": bits(e for x in basis for b in x.blocks for e in b),
        "dual": bits(e for r in reps for lift in r.lifts for e in lift),
        "c1": bits(e for b in c1.blocks for e in b),
    }
    out_bits["output"] = max(out_bits.values())
    return Checked(errors, out_bits, first.count or 0)


def run_spin(case, trace):
    d = construct(case, trace)
    with trace("diagram.validate"):
        ensure_valid(d)
    with trace("spin.spin_count"):
        return d, spin_count(d)


def check_spin(case, result) -> Checked:
    count = result[1]
    errors = [] if count == inputs.expected(case.summands).spin_count else ["spin count"]
    return Checked(errors, {"output": count.bit_length()}, count)


# ---------------------------------------------------------------- the cli op


@dataclass(frozen=True)
class CliCase:
    argv: tuple[str, ...]
    golden: bytes


def run_process(cmd: list[str]) -> tuple[int, bytes, int]:
    """Run one child to completion: exit code, stdout and its peak RSS in KiB."""
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=ENV, cwd=ROOT
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def run_cli(case: CliCase, trace):
    with trace("cli.process"):
        return run_process([sys.executable, "-m", "trihodge.cli", *case.argv])


# Integers as the CLI prints them: not part of a name such as H_2, CP2 or Z/3.
_PRINTED_INT = re.compile(r"(?<![\w/^.])-?\d+(?![\w/^.])")


def check_cli(case: CliCase, result) -> Checked:
    code, out, rss = result
    errors = []
    if code != 0:
        errors.append(f"exit code {code}")
    if out != case.golden:
        errors.append("stdout differs from the golden file")
    printed = _PRINTED_INT.findall(out.decode("utf-8", "replace"))
    return Checked(errors, {"output": bits(printed)}, out.count(b"q-values:"), rss)


def cli_cases(seed: int) -> Iterator[CliCase]:
    """The golden cases, each cycle in a seeded order."""
    pool = [CliCase(tuple(argv), (GOLDEN / name).read_bytes()) for name, argv in CLI_CASES]
    rng = random.Random(seed)
    while True:
        yield from rng.sample(pool, len(pool))


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    """One workload: its case stream, its op, and the check of an op's output.

    ``cycle`` is the length of the input schedule; a run stops only on a
    cycle boundary, so every run times the same mix. Exact counts cover the
    first ``exact_ops`` ops; traced runs replay the lattice matrices of the
    first ``replay_ops`` diagrams and cover bypassed layers on ``spare``
    further cases.
    """

    cases: Callable[[int], Iterator]
    run: Callable
    check: Callable
    cycle: int
    exact_ops: int
    replay_ops: int
    spare: int = 0
    in_process: bool = True


def _stream(name: str) -> Callable[[int], Iterator]:
    return lambda seed: inputs.cases(inputs.SCHEDULES[name], seed)


WORKLOADS = {
    "census": Workload(
        _stream("census"),
        lambda case, trace: pipeline(case, trace, spin=True),
        check_pipeline,
        cycle=len(inputs.CENSUS),
        exact_ops=400,
        replay_ops=40,
    ),
    "dense": Workload(
        _stream("dense"),
        lambda case, trace: pipeline(case, trace, spin=False),
        check_pipeline,
        cycle=len(inputs.DENSE),
        exact_ops=20 * len(inputs.DENSE),
        replay_ops=2,
        spare=1,
    ),
    "spin": Workload(
        _stream("spin"),
        run_spin,
        check_spin,
        cycle=len(inputs.SPIN),
        exact_ops=len(inputs.SPIN),
        replay_ops=2,
        spare=2,
    ),
    "cli": Workload(
        cli_cases,
        run_cli,
        check_cli,
        cycle=len(CLI_CASES),
        exact_ops=len(CLI_CASES),
        replay_ops=0,
        in_process=False,
    ),
}


class Prepared(NamedTuple):
    """A case stream whose first ``exact_ops`` cases are already generated.

    ``spare`` holds further cases, set aside before the run for coverage.
    """

    first: list
    spare: list
    rest: Iterator

    def __iter__(self):
        return itertools.chain(self.first, self.rest)


def prepare(workload: Workload, seed: int) -> Prepared:
    stream = workload.cases(seed)
    first = [next(stream) for _ in range(workload.exact_ops)]
    return Prepared(first, [next(stream) for _ in range(workload.spare)], stream)


@dataclass
class OpRecord:
    seconds: float
    traced: bool
    checked: Checked
    diagram: object = None


@dataclass
class Pass:
    records: list[OpRecord] = field(default_factory=list)
    rss_kb: int = 0  # ru_maxrss of this process once the first exact_ops ops are done

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.checked.errors)


def outcome(workload: Workload, case, out, error: Exception | None) -> Checked:
    if error is None:
        try:
            return workload.check(case, out)
        except Exception as exc:  # a check that cannot even run fails the op
            error = exc
    return Checked([f"raised {type(error).__name__}: {error}"], {})


def measure(workload: Workload, cases, seconds: float, tracer: Tracer | None = None) -> Pass:
    """Closed loop over ``cases`` for ``seconds``, ending on a cycle boundary.

    At least ``exact_ops`` ops run, so exact counts always cover the same
    cases. With a tracer, schedule cycles alternate between traced and
    untraced, so both halves time the same mix, and at least one cycle of
    each runs. Only the op call is timed; its check runs after it.
    """
    result = Pass()
    least = max(workload.exact_ops, 2 * workload.cycle) if tracer else workload.exact_ops
    start = time.perf_counter()
    for i, case in enumerate(cases):
        elapsed = time.perf_counter() - start
        done = i >= least and i % workload.cycle == 0 and elapsed >= seconds
        if done or elapsed >= seconds + OVERRUN_S:
            break
        traced = tracer is not None and (i // workload.cycle) % 2 == 1
        trace = tracer if traced else NO_TRACE
        if traced:
            tracer.op = f"t{i}"
        out = error = None
        t0 = time.perf_counter()
        try:
            with trace("op"):
                out = workload.run(case, trace)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            error = exc
        taken = time.perf_counter() - t0
        keep = out[0] if out is not None and workload.in_process and i < workload.replay_ops else None
        result.records.append(OpRecord(taken, traced, outcome(workload, case, out, error), keep))
        if i + 1 == workload.exact_ops:
            result.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def ops_per_s(records: list[OpRecord]) -> float:
    good = sum(1 for r in records if not r.checked.errors)
    return good / sum(r.seconds for r in records)


# ---------------------------------------------------------------- probes


def wall(cmd: list[str]) -> float:
    t0 = time.perf_counter()
    code, _, _ = run_process(cmd)
    if code != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {code}")
    return time.perf_counter() - t0


def setup_seconds(name: str, seed: int) -> float:
    """Median wall time of fresh processes that start, import and generate inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    return statistics.median(wall(cmd) for _ in range(SETUP_PROBES))


def cli_probes() -> tuple[dict[str, float], list[str]]:
    """Interpreter start, CLI import, and main() per golden case, in fresh processes."""
    start = statistics.median(wall([sys.executable, "-c", "pass"]) for _ in range(CLI_PROBES))
    imported = statistics.median(
        wall([sys.executable, "-c", "import trihodge.cli"]) for _ in range(CLI_PROBES)
    )
    mains, errors = [], []
    for name, argv in CLI_CASES:
        code, out, _ = run_process([sys.executable, "-c", MAIN_PROBE, *argv])
        doc = json.loads(out.decode().splitlines()[-1]) if code == 0 else None
        if doc is None or doc["code"] != 0 or doc["out"] != (GOLDEN / name).read_text("utf-8"):
            errors.append(f"cli probe {name}: wrong output")
        else:
            mains.append(doc["s"])
    metrics = {
        "cli.python_start_s": start,
        "cli.import_s": imported - start,
        "cli.main_s": statistics.median(mains) if mains else 0.0,
    }
    return metrics, errors


# ---------------------------------------------------------------- lattice replay

REPLAYED = ("snf", "kernel_basis", "echelon", "coordinates_of", "quotient")


def replay_matrices(d) -> list:
    """The workload's own lattice inputs, read through public accessors."""
    mats = [*homology_complex(d).diffs, *dual_complex(d).diffs]
    mats += [d.lagrangian_subgroup(lam).basis for lam in (1, 2, 3)]
    mats += [d.pair_sum(lam).basis for lam in (1, 2, 3)]
    return [m for m in mats if m.size]


def replay(diagrams) -> tuple[dict[str, float], list[str]]:
    """Time each lattice entry point on every matrix; median over repeats.

    The first repeat also checks each result without trihodge's help.
    """
    mats = [m for d in diagrams for m in replay_matrices(d)]
    totals: dict[str, list[float]] = {name: [] for name in REPLAYED}
    errors: list[str] = []
    transform_bits = 0
    for repeat in range(REPLAY_REPEATS):
        spent = dict.fromkeys(REPLAYED, 0.0)
        for m in mats:
            rows = m.shape[0]
            columns = [tuple(int(e) for e in m[:, j]) for j in range(m.shape[1])]
            t0 = time.perf_counter()
            U, D, V = smith_normal_form(m)
            t1 = time.perf_counter()
            kernel = kernel_basis(m)
            t2 = time.perf_counter()
            sub = Subgroup.from_columns(rows, columns)
            t3 = time.perf_counter()
            coords = [sub.coordinates_of(c) for c in columns]
            t4 = time.perf_counter()
            quo = quotient(rows, sub)
            t5 = time.perf_counter()
            for name, dt in zip(REPLAYED, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
                spent[name] += dt
            if repeat:
                continue
            transform_bits = max(transform_bits, bits(U.flat), bits(V.flat))
            if not np.array_equal(U @ m @ V, D) or np.any(m @ kernel.basis):
                errors.append(f"replay: Smith form or kernel wrong on a {m.shape} matrix")
            basis = [[int(e) for e in sub.basis[:, j]] for j in range(sub.rank)]
            for c, x in zip(columns, coords):
                if [sum(b[i] * xi for b, xi in zip(basis, x)) for i in range(rows)] != list(c):
                    errors.append(f"replay: coordinates_of wrong on a {m.shape} matrix")
            if not all(quo.is_zero(c) for c in columns):
                errors.append(f"replay: quotient keeps a relation of a {m.shape} matrix")
        for name in REPLAYED:
            totals[name].append(spent[name])
    metrics = {f"lattice.{name}_s": statistics.median(v) for name, v in totals.items()}
    metrics["lattice.replay_entries"] = sum(m.size for m in mats)
    metrics["lattice.snf_transform_bits_max"] = transform_bits
    return metrics, errors


# ---------------------------------------------------------------- coverage


def coverage(name: str, cases: Prepared, tracer: Tracer) -> tuple[list, list[Checked]]:
    """Trace the layers this workload's op bypasses, on a few fresh diagrams.

    This way every per-layer metric is measured on every workload: ``dense``
    gets a spin count on its smallest genus, ``spin`` the census op without
    spin count, ``cli`` the census op on the diagrams behind its golden cases.
    """
    fresh = cases.spare
    if name == "cli":
        fresh = []
        for summands in CLI_DIAGRAMS:
            genus, systems = inputs.block_sum(summands)
            fresh.append(inputs.Case(summands, genus, *(tuple(map(tuple, s)) for s in systems)))
    diagrams, checks = [], []
    for i, case in enumerate(fresh):
        tracer.op = f"c{i}"
        if name == "dense":
            checks.append(check_spin(case, run_spin(case, tracer)))
            continue
        result = pipeline(case, tracer, spin=name == "cli")
        checks.append(check_pipeline(case, result))
        diagrams.append(result[0])
    return diagrams, checks


# ---------------------------------------------------------------- reporting

LAYER_SPANS = (
    "diagram.construct",
    "diagram.validate",
    "diagram.requery",
    "complexes.homology_groups",
    "complexes.dual_middle_homology",
    "complexes.hodge_diamond",
    "pairings.intersection_form",
    "pairings.dual_rep_basis",
    "spinc.act_c1",
    "spin.spin_count",
)
BITS_LAYERS = (
    ("form", "pairings.form_basis_bits_max"),
    ("dual", "pairings.dual_rep_bits_max"),
    ("c1", "spinc.c1_bits_max"),
)
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "trace_overhead_ratio": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return "bits" if "bits" in name else "count"


def end_to_end(name: str, seed: int, workload: Workload, run: Pass) -> tuple[dict, dict]:
    records = run.records
    first = records[: workload.exact_ops]
    latencies = [r.seconds * 1000 for r in records]
    out_bits = [r.checked.bits.get("output", 0) for r in first]
    rss_kb = run.rss_kb if workload.in_process else max(r.checked.rss_kb for r in first)
    metrics = {
        "setup_s": setup_seconds(name, seed),
        "ops_per_s": ops_per_s(records),
        "latency_p50_ms": statistics.median(latencies),
        "peak_rss_mb": rss_kb / 1024,
        "output_bits_p50": statistics.median(out_bits),
    }
    # Table only: p90 needs ten samples beyond it, error_rate is zero on a
    # correct program, and a maximum over seeded inputs varies too much from
    # seed to seed to bound (the traced run reports it as a per-layer metric).
    notes = {
        "latency_p90_ms": (
            f"{statistics.quantiles(latencies, n=10)[8]:.6g} ms"
            if len(latencies) >= 100
            else "n/a, fewer than 100 samples"
        ),
        "output_bits_max": f"{max(out_bits)} bits",
    }
    return metrics, notes


def per_layer(name: str, seed: int, workload: Workload, cases: Prepared, run: Pass, tracer: Tracer):
    records = run.records
    first = records[: workload.exact_ops]
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    metrics: dict[str, float] = {"trace_overhead_ratio": ops_per_s(traced) / ops_per_s(untraced)}
    covered, cov_checks = coverage(name, cases, tracer)
    errors = [f"coverage: {e}" for c in cov_checks for e in c.errors]
    op_spans, cov_spans = tracer.per_op_medians("t"), tracer.per_op_medians("c")
    for layer in LAYER_SPANS:
        metrics[f"{layer}_s"] = op_spans.get(layer, cov_spans.get(layer, 0.0))
    checks = [r.checked for r in first] + cov_checks
    for key, metric in BITS_LAYERS:
        metrics[metric] = max(c.bits.get(key, 0) for c in checks)
    metrics["spin.structures_listed"] = sum(c.structures for c in checks)
    metrics["output_bits_max"] = max(r.checked.bits.get("output", 0) for r in first)
    replayed = [r.diagram for r in records[: workload.replay_ops] if r.diagram is not None]
    lattice, replay_errors = replay(replayed or covered)
    probes, probe_errors = cli_probes()
    metrics.update(lattice)
    metrics.update(probes)
    tracer.write(OUT / f"trace-{name}-{seed}.json")
    return metrics, errors + replay_errors + probe_errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    cases = prepare(workload, args.seed)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    run = measure(workload, cases, args.seconds, tracer)
    errors = [f"op {i}: {'; '.join(r.checked.errors)}" for i, r in enumerate(run.records) if r.checked.errors]
    if tracer is None:
        metrics, notes = end_to_end(args.workload, args.seed, workload, run)
    else:
        metrics, layer_errors = per_layer(args.workload, args.seed, workload, cases, run, tracer)
        errors += layer_errors
        notes = {}
    notes["samples"] = f"{len(run.records)} ops, {run.failed} failed"
    notes["error_rate"] = f"{run.failed / len(run.records):.6g}"

    for line in errors[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:.6g} {unit_of(key)}")
    for key, text in notes.items():
        print(f"  {key:34s} {text}")
    result = {
        "correct": not errors,
        "attempted": len(run.records),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
