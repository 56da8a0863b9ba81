"""Tests of the benchmark itself: input generators, the correctness gate,
the tail statistic, the tracer and the agreement with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads as wl  # noqa: E402
from worker import REFS, load_package  # noqa: E402

SEEDS = range(300)


def _all_items(seed):
    for w in wl.WORKLOADS.values():
        yield from w.items(seed)


def degenerate(item):
    """Why an item's input is degenerate, or None."""
    p = item.params
    if item.command in ("correlate", "static"):
        t = p.get("t", 0.0)
        if t == 0.0 and p["x1"] == p["x2"]:
            return "x1 = x2 at t = 0 is a delta distribution"
        if p["eps"] == "-" and p["x1"] == 0.0:
            return "Dirichlet x1 = 0 is flagged null"
    if item.command == "boundary" and (p["x"] <= 0.0 or p["t"] <= 0.0):
        return "boundary point off the criterion-5 box"
    if item.command == "lax-check":
        y, t = p["y"], p["tt"]
        for a in range(4):
            for b in range(a + 1, 4):
                if y[a] == y[b] and t[a] == t[b]:
                    return "coincident pair"
    return None


@pytest.fixture(scope="module")
def bf():
    return load_package()


def test_generators_deterministic_per_seed():
    for w in wl.WORKLOADS.values():
        for seed in (0, 1, 987654321):
            assert [i.key() for i in w.items(seed)] == [i.key() for i in w.items(seed)]
        assert [i.key() for i in w.items(1)] != [i.key() for i in w.items(2)]


def test_generators_keep_the_strata():
    # every seed runs the same commands in the same order: only points move
    for w in wl.WORKLOADS.values():
        shape = [(i.label, i.command) for i in w.items(0)]
        for seed in SEEDS:
            assert [(i.label, i.command) for i in w.items(seed)] == shape


def test_degenerate_predicate_matches_the_library(bf):
    def cli(argv):
        import contextlib
        import io

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return bf.cli.main(argv), out.getvalue(), err.getvalue()

    coincident = wl.Item("c", "correlate", dict(eps="+", x1=0.5, x2=0.5, t=0.0, T=0.0,
                                                h=1.0, D=1.0))
    assert degenerate(coincident)
    code, _, err = cli(["correlate", "--eps", "+", "--x1", "0.5", "--x2", "0.5",
                        "--t", "0", "--D", "1", "--n", "8"])
    assert code == 1 and "delta distribution" in err

    wall = wl.Item("w", "correlate", dict(eps="-", x1=0.0, x2=1.0, t=0.5, T=0.0,
                                          h=1.0, D=1.0))
    assert degenerate(wall)
    code, out, _ = cli(["correlate", "--eps", "-", "--x1", "0", "--x2", "1", "--t", "0.5",
                        "--D", "1", "--n", "8", "--format", "json"])
    assert code == 0 and json.loads(out)[0]["flag"] == "dirichlet-null"


def test_generators_never_emit_degenerate_inputs():
    for seed in SEEDS:
        for item in _all_items(seed):
            assert degenerate(item) is None, (seed, item)


def test_inputs_avoid_policy_adaptation(bf):
    # the line grid then depends on t alone (boundary) or on the fixed sum of
    # |t| (lax-check), which keeps the cost per seed steady
    nls = bf.nls_system
    fine = bf.special_integrals.FINE_POLICY
    lax = bf.special_integrals.RegularizationPolicy(damping=wl.LAX["damping"],
                                                    extrapolation_orders=wl.LAX["orders"])
    for seed in SEEDS:
        for item in wl.boundary_items(seed):
            cfg = nls.FourPointConfig.correlation(0.0, item.params["x"], item.params["t"])
            assert nls.adapt_policy(cfg, fine) is fine
        for item in wl.lax_items(seed):
            cfg = nls.FourPointConfig(y=tuple(item.params["y"]), t=tuple(item.params["tt"]))
            assert nls.adapt_policy(cfg, lax) is lax
            assert cfg.phase_scale == pytest.approx(sum(map(abs, wl.LAX_BASE_T)))


def _stored(workload):
    with open(os.path.join(REFS, f"{workload}.json")) as fh:
        return json.load(fh)["items"]


def test_stored_references_match_the_default_seed():
    for name in ("dynamical-scan", "boundary-route", "static-oracle"):
        stored = _stored(name)
        for item in wl.WORKLOADS[name].items(wl.DEFAULT_SEED):
            if wl.needs_reference(item):
                assert stored[item.label]["key"] == item.key()


@pytest.mark.parametrize("workload", ["dynamical-scan", "boundary-route", "static-oracle"])
def test_gate_fails_a_perturbed_value(workload):
    stored = _stored(workload)
    for item in wl.WORKLOADS[workload].items(wl.DEFAULT_SEED):
        if item.command not in ("correlate", "boundary", "static"):
            continue
        ref = stored[item.label]["ref"]
        tol = wl.TOL[item.command]
        z = complex(*ref)
        assert wl.check(item, ref, ref) == (0.0, True)
        inside = z * (1 + 0.5 * tol)
        assert wl.check(item, [inside.real, inside.imag], ref)[1]
        outside = z * (1 + 10 * tol)
        dev, passed = wl.check(item, [outside.real, outside.imag], ref)
        assert not passed and dev > tol


def test_gate_fails_a_perturbed_finite_box_sequence():
    item = wl.static_items(wl.DEFAULT_SEED)[0]
    ref = _stored("static-oracle")[item.label]["ref"]
    # values approaching the reference like 1/L, as the finite box does
    value = {eps: [[r[0] + 0.1 / L, r[1]] for L in wl.BOX_SIZES] for eps, r in ref.items()}
    assert wl.check(item, value, ref)[1]
    value["1"][2][0] += 10 * wl.TOL[item.command]
    assert not wl.check(item, value, ref)[1]


def test_gate_fails_other_perturbed_items():
    routes = wl.static_items(0)[1]
    same = {"1/1": [[0.3, 0.1], [0.3, 0.1]]}
    assert wl.check(routes, same, None)[1]
    moved = {"1/1": [[0.3, 0.1], [0.3 + 1e-6, 0.1]]}
    assert not wl.check(routes, moved, None)[1]

    lax = wl.lax_items(0)[0]
    assert wl.check(lax, {"ratio": 4.0, "residual_step": 1e-3}, None)[1]
    assert not wl.check(lax, {"ratio": 3.0, "residual_step": 1e-3}, None)[1]

    oracle = wl.static_items(0)[-1]
    assert wl.check(oracle, {"a": 0.5, "b": 1e-3}, None)[1]
    assert not wl.check(oracle, {"a": 2.0, "b": 1e-3}, None)[1]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    xs = [float(i) for i in range(101)]
    assert run.tail(xs) == (90.0, 90.0, 10)
    assert run.tail(xs[:100]) == (89.0, 90.0, 10)
    assert run.tail(xs[:91]) == (67.0, 75.0, 23)
    assert run.tail(xs[:38]) == (27.0, 75.0, 10)
    assert run.tail(xs[:37]) == (18.0, 50.0, 18)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)
    # a mixed cycle of 7 kinds of item: the tail stays on one kind whatever
    # the number of whole cycles a run completes
    for cycles in range(6, 14):
        xs = [float(kind) for kind in range(7) for _ in range(cycles)]
        assert run.tail(xs)[0] == 5.0


def test_benchmark_json_matches_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_tracer_counts_module_boundaries_and_uninstalls(bf):
    from tracing import Tracer

    original = bf.kernels.kernel_theta
    tracer = Tracer()
    tracer.install(bf)
    try:
        item = wl.Item("s", "static", dict(eps="+", x1=0.4, x2=1.1, T=0.5, h=1.0, n=16))
        tracer.begin_item(item.label)
        wl.run_item(item, bf)
        tracer.end_item()
    finally:
        tracer.uninstall()
    assert bf.kernels.kernel_theta is original
    m = tracer.metrics(1)
    assert m["cli.calls"] == 1 and m["correlators.calls"] == 1
    assert m["kernels.entries"] >= 16 * 16
    assert m["fredholm.factorizations"] == 3     # slogdet, cond, lu_factor
    assert m["nls_system.build_b_calls"] == 0
    total = sum(m[f"{mod}.self_s"] for mod in ("special_integrals", "kernels", "fredholm",
                                              "correlators", "nls_system", "bethe_oracle",
                                              "validate", "cli"))
    assert total + m["bench.self_s"] == pytest.approx(m["traced.item_s"])
    names = {span[3] for span in tracer.spans}
    assert "item:s" in names and "correlators.correlation_static" in names
