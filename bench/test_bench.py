"""Self-tests of the benchmark: run with `python3 -m pytest bench -q`.

Each workload runs at a tiny size (a cheap slice of its pool), untraced and
traced, so the whole file takes well under a minute.
"""

import gc
import json
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import spans
import workloads
from mtss import cone, dealer, field, schemes, verify

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}


def tiny(name, seed=1):
    return workloads.setup(name, seed, tiny=True)


def test_declared_workloads_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_untraced_run_is_correct_and_complete(name):
    correct, attempted, failed, metrics = run.untraced(
        lambda: tiny(name), 60, workloads.TAIL_PERCENTILE[name]
    )
    assert correct and failed == 0 and attempted >= 1
    assert {k: u for k, (_, u) in metrics.items()} == E2E
    assert all(v > 0 for v, _ in metrics.values())


LP = ("lp-ratio", "lp-truncation")
NOT_IN_LP = [
    "field.rank_calls",
    "field.solve_affine_calls",
    "field.is_prime_calls",
    "field.next_prime_calls",
    "verify.rank_queries",
    "verify.check_calls",
    "schemes.constructions",
    "schemes.unify_field_s",
    "schemes.embed_combine_s",
    "dealer.deal_s",
    "dealer.census_calls",
]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_traced_run_derives_every_layer_metric(name):
    originals = (cone.lower_bound_ratio, field.rank, verify.RankProfile.rank)
    correct, attempted, failed, metrics = run.traced(lambda: tiny(name), seconds=60)
    assert correct and failed == 0 and attempted >= 1
    assert {k: u for k, (_, u) in metrics.items()} == PER_LAYER
    # Every wrapper is gone, also the aliases made by `from ... import`.
    assert spans.leftover_wrappers() == []
    assert (cone.lower_bound_ratio, field.rank, verify.RankProfile.rank) == originals
    assert schemes.weak_sigma_plan.__module__ == "mtss.structure"
    assert not hasattr(schemes.weak_sigma_plan, "__wrapped__")
    assert "__wrapped__" not in vars(dealer.ShareBundle.from_text)

    value = {k: v for k, (v, _) in metrics.items()}
    if name in LP:
        # The LP workloads bypass every layer below the cone but simplex.
        assert value["simplex.solves"] == attempted * (2 if name == LP[1] else 1)
        assert all(value[k] == 0 for k in NOT_IN_LP)
    else:
        # The only LPs outside the cone are the construction plans.
        assert value["simplex.solves"] == value["simplex.plan_solves"]
        assert value["cone.rowgen_calls"] == 0
    if name == "deal-census":
        assert value["simplex.solves"] == 0
        assert value["dealer.census_calls"] > 0 and value["dealer.codewords"] > 0
        # Set-up builds the catalog and the census verdicts.
        assert value["setup.field.rank_calls"] > 0
        assert value["setup.schemes_s"] > value["setup.schemes.text_s"] > 0
    else:
        assert value["setup.schemes_s"] == 0
    if name in ("lp-ratio", "build-verify"):
        # Set-up computes the expected values from the closed form.
        assert value["setup.structure_s"] > 0
    if name == "build-verify":
        assert value["verify.check_requested_ratio"] == pytest.approx(
            attempted / value["verify.check_calls"]
        )
        assert 0 < value["verify.rank_memo_hit_ratio"] < 1


def test_tail_is_a_fixed_percentile_by_nearest_rank():
    latencies = [i / 100 for i in range(100)][::-1]
    assert run.tail(latencies, 90) == (0.89, 10)
    assert run.tail(latencies, 99.5) == (0.99, 0)
    assert run.tail([0.5, 0.1, 0.3], 80) == (0.5, 0)
    assert run.tail([0.5], 50) == (0.5, 0)
    assert set(workloads.TAIL_PERCENTILE) == set(workloads.WORKLOADS)


def test_times_are_scaled_to_the_reference_speed(monkeypatch):
    # A host at half the reference speed: every time reads half as long.
    monkeypatch.setattr(run, "probe", lambda: 2 * run.REF_PROBE_S)
    ops = tiny("lp-ratio")
    latencies, failed, wall, (raw, raw_wall, probes) = run.run_ops(ops, 60)
    assert failed == 0 and len(latencies) == len(ops) and len(probes) >= 2
    assert latencies == pytest.approx([s / 2 for s in raw])
    assert wall == pytest.approx(raw_wall / 2)
    _, times = run.timed_setups(lambda: tiny("lp-ratio"))
    assert min(times) > 0


def test_probe_leaves_the_collector_as_it_was():
    assert run.probe() > 0 and gc.isenabled()
    gc.disable()
    try:
        assert run.probe() > 0 and not gc.isenabled()
    finally:
        gc.enable()


def test_setup_repeats_draw_the_same_ops():
    made = []

    def make():
        made.append(1)
        return tiny("lp-ratio")

    keys = [op.key for op in tiny("lp-ratio")]
    ops, times = run.timed_setups(make)
    assert len(made) == len(times) >= run.SETUP_MIN
    assert [op.key for op in ops] == keys and min(times) > 0

    seeds = iter(range(1, 100))
    with pytest.raises(RuntimeError, match="different operations"):
        run.timed_setups(lambda: tiny("lp-ratio", seed=next(seeds)))


def _always_fails(*args):
    raise RuntimeError("injected")


def test_wrong_outputs_and_exceptions_count_as_failures():
    ops = tiny("lp-ratio")
    ops[0].expected = ops[0].expected + Fraction(1, 7)
    ops[1].fn = _always_fails
    correct, attempted, failed, _ = run.untraced(lambda: ops, 60, 90)
    assert not correct
    assert failed == 2 and attempted == len(ops)
    assert failed / attempted > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs_and_outputs(name):
    a, b = tiny(name, seed=7), tiny(name, seed=7)
    assert [op.key for op in a] == [op.key for op in b]
    assert [op.expected for op in a] == [op.expected for op in b]
    head = slice(0, 5)
    assert [op.fn(*op.args) for op in a[head]] == [
        op.fn(*op.args) for op in b[head]
    ]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_the_draw_and_no_input_repeats(name):
    a, b = workloads.setup(name, 1), workloads.setup(name, 2)
    keys_a, keys_b = [op.key for op in a], [op.key for op in b]
    assert len(set(keys_a)) == len(keys_a)
    assert sorted(keys_a) == sorted(keys_b)  # one pool, two draws
    # The part of the draw one run can get through differs between seeds.
    prefix = len(keys_a) // 5
    assert set(keys_a[:prefix]) != set(keys_b[:prefix])


def test_draw_keeps_the_stratum_mix_of_every_prefix():
    ops = workloads.setup("lp-ratio", 3)
    strata = {}
    for op in ops:
        strata[op.stratum] = strata.get(op.stratum, 0) + 1
    prefix = ops[: len(ops) // 4]
    for name, size in strata.items():
        got = sum(op.stratum == name for op in prefix)
        assert abs(got - size / 4) <= 1


def test_traced_output_that_differs_from_the_plain_one_is_a_failure():
    ops = tiny("lp-ratio")
    calls = iter(range(10**6))
    ops[0].fn = lambda *args: next(calls)  # plain run first: 0, traced: 1
    ops[0].expected = 0
    correct, attempted, failed, _ = run.traced(lambda: ops, seconds=60)
    assert not correct and failed == 1 and attempted == len(ops)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_ends_with_the_result_line(trace):
    cmd = DECLARED["command"] + ["--workload", "lp-ratio", "--seed", "3"]
    cmd += ["--seconds", "1", "--trace", trace]
    cmd[0] = sys.executable
    proc = subprocess.run(
        cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = PER_LAYER if trace == "1" else E2E
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
