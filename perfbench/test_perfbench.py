"""Tests of the benchmark itself: generator, oracle, checks and spans.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import dataclasses
import itertools
import json

import pytest

import inputs
import run
from spans import NO_TRACE, Tracer
from trihodge import builtin


def first_cases(schedule, seed, n=30):
    return list(itertools.islice(inputs.cases(schedule, seed), n))


@pytest.mark.parametrize("name", sorted(inputs.SCHEDULES))
def test_generator_is_deterministic_and_distinct(name):
    schedule = inputs.SCHEDULES[name]
    a = first_cases(schedule, 7, 12)
    assert a == first_cases(schedule, 7, 12)
    assert a != first_cases(schedule, 8, 12)
    assert len({c.key for c in a}) == len(a)
    assert [c.genus for c in a] == [schedule[i % len(schedule)].genus for i in range(12)]


def plain_case(summands):
    genus, systems = inputs.block_sum(summands)
    return inputs.Case(summands, genus, *(tuple(map(tuple, s)) for s in systems))


@pytest.mark.parametrize("name", sorted(inputs.BASES))
def test_base_table_matches_builtin(name):
    d = builtin(name)
    assert (d.genus, d.alpha.curves, d.beta.curves, d.gamma.curves) == inputs.BASES[name]


SUMS = [(name,) for name in sorted(inputs.BASES)] + [
    ("QS4_Z2", "QS4_Z3"),
    ("CP2", "CP2bar", "S1xS3"),
    ("S2xS2", "S1xS3", "QS4_Z3"),
    ("S1xS3", "S1xS3", "QS4_Z2"),
]


@pytest.mark.parametrize("summands", SUMS, ids="#".join)
def test_oracle_agrees_with_trihodge(summands):
    assert run.check_pipeline(plain_case(summands), run.pipeline(plain_case(summands), NO_TRACE, True)).errors == []


def test_oracle_agrees_on_scrambled_census_cases():
    for case in first_cases(inputs.CENSUS, 3, 30):
        assert run.check_pipeline(case, run.pipeline(case, NO_TRACE, True)).errors == []


def test_torsion_compares_as_prime_powers():
    assert inputs.prime_powers([6]) == inputs.prime_powers([2, 3]) == (2, 3)
    assert inputs.prime_powers([12, 2]) == (2, 3, 4)


def small(name, **changes):
    workload = run.WORKLOADS[name]
    return dataclasses.replace(workload, exact_ops=workload.cycle, **changes)


def test_wrong_expectation_counts_as_failed(monkeypatch, capsys):
    cp2 = inputs.EXPECTED["CP2"]
    monkeypatch.setitem(inputs.EXPECTED, "CP2", dataclasses.replace(cp2, signature=(0, 1)))
    monkeypatch.setitem(run.WORKLOADS, "census", small("census"))
    assert run.main(["--workload", "census", "--seed", "1", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    schedule_cases = first_cases(inputs.CENSUS, 1, len(inputs.CENSUS))
    with_cp2 = sum(1 for c in schedule_cases if "CP2" in c.summands)
    assert result["correct"] is False
    assert result["attempted"] == len(inputs.CENSUS)
    assert result["failed"] == with_cp2 > 0


def test_raising_op_counts_as_failed():
    def boom(case, trace):
        raise ArithmeticError("deliberate")

    workload = small("census", run=boom)
    result = run.measure(workload, run.prepare(workload, 1), 0)
    assert result.failed == len(result.records) == workload.cycle


def test_cli_op_with_different_bytes_fails():
    name, argv = run.CLI_CASES[3]
    golden = (run.GOLDEN / name).read_bytes()
    good = run.CliCase(tuple(argv), golden)
    assert run.check_cli(good, run.run_cli(good, NO_TRACE)).errors == []
    bad = run.CliCase(tuple(argv), golden.replace(b"Z", b"Q", 1))
    assert run.check_cli(bad, run.run_cli(bad, NO_TRACE)).errors == [
        "stdout differs from the golden file"
    ]


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.op = "t0"
    with tracer("outer"):
        with tracer("inner"):
            sum(range(10000))
        with tracer("inner"):
            sum(range(10000))
    outer, first, second = tracer.spans
    assert first.parent == second.parent == 0 and outer.parent is None
    own = tracer.self_times()
    inner = (first.end - first.start) + (second.end - second.start)
    assert own[0] == pytest.approx(outer.end - outer.start - inner)
    medians = tracer.per_op_medians("t")
    assert medians["inner"] == pytest.approx(own[1] + own[2])


def test_traced_run_alternates_cycles():
    workload = small("census")
    tracer = Tracer()
    result = run.measure(workload, run.prepare(workload, 2), 0, tracer)
    assert [r.traced for r in result.records] == [False] * workload.cycle + [True] * workload.cycle
    assert result.failed == 0
    layers = tracer.per_op_medians("t")
    assert set(run.LAYER_SPANS) <= set(layers)
    assert all(span.op.startswith("t") for span in tracer.spans)
