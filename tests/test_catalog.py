"""Catalog structure, the evaluator, and targeted verification runs."""

import importlib
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from test_qseries import euler_e, ref_dilate, ref_mul, series

from threesquares import qseries as qs, verify
from threesquares.lattice import (
    BinaryForm,
    TernaryForm,
    short_vectors,
    theta_series_binary,
)
from threesquares.catalog import (
    PHI,
    PHI3,
    PSI,
    F,
    IdentitySpec,
    Q,
    alt,
    catalog,
    eta,
    evaluate,
    lookup,
    mul,
    power,
    prodap,
    scale,
    sift,
    sub,
    theta2,
    theta3,
)
from threesquares.verify import cap_bytes, verify_identity


def test_catalog_size_and_order():
    specs = catalog()
    assert len(specs) >= 55
    ids = [s.id for s in specs]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_lookup():
    assert lookup("E2.1") is not None
    assert lookup("E9.9") is None


def test_e21_sides_are_what_they_claim():
    spec = lookup("E2.1")
    lhs = evaluate(spec.lhs, 40)
    assert lhs == qs.theta_f(1, 1, 40).pow(2) - qs.theta_f(5, 5, 40).pow(2)
    rhs = evaluate(spec.rhs, 40)
    assert rhs == (
        qs.monomial(40, 1, 4) * qs.theta_f(1, 9, 40) * qs.theta_f(3, 7, 40)
    )


def test_verify_passes_core_entries():
    for ident in ("E2.1", "E1.23", "E4.4", "E5.9"):
        report = verify_identity(ident, 150)
        assert report.status == "pass", ident
        assert report.first_mismatch is None


def test_verify_unknown_id():
    with pytest.raises(KeyError):
        verify_identity("BOGUS", 50)


def test_perturbed_identity_fails_with_located_mismatch():
    spec = lookup("E2.1")
    broken = IdentitySpec(
        "E2.1-broken", spec.lhs, scale(5, spec.rhs), "rhs scaled by 5"
    )
    report = verify_identity(broken, 60)
    assert report.status == "fail"
    assert report.first_mismatch == (1, 4, 20)


def test_masked_entries_compare_only_selected_residues():
    spec = lookup("E1.3")
    assert spec.mask == (4, (1, 2))
    assert verify_identity(spec, 120).status == "pass"
    # Without the mask the same pair of trees must disagree somewhere
    # (the unrestricted identity needs the second form's correction).
    unmasked = IdentitySpec("E1.3-all", spec.lhs, spec.rhs, "no mask")
    assert verify_identity(unmasked, 120).status == "fail"


def test_evaluator_rejects_unknown_node():
    with pytest.raises(ValueError):
        evaluate(("what", 1), 10)


# What each node kind holds after its tag: child trees, or data.
NODE_CHILDREN = {
    "f": (), "prodap": (), "zero": (), "q": (), "theta3": (), "theta2": (),
    "add": "all", "sub": "all", "mul": "all", "scale": (2,), "pow": (1,),
    "div": "all", "alt": (1,), "sift": (3,),
}


def subtrees(expr):
    """The tree and every subtree of it, depth first."""
    yield expr
    where = NODE_CHILDREN[expr[0]]
    for i in (range(1, len(expr)) if where == "all" else where):
        yield from subtrees(expr[i])


def every_spec():
    return catalog() + verify._branch_specs(3) + verify._branch_specs(5)


def every_subtree():
    for spec in every_spec():
        yield from subtrees(spec.lhs)
        yield from subtrees(spec.rhs)


def test_catalog_trees_use_exactly_the_evaluator_node_kinds():
    assert {node[0] for node in every_subtree()} == set(NODE_CHILDREN)
    for retired in (
        ("phi", 1), ("psi", 1), ("one",), ("neg", ("q", 1)), ("dilate", 2, PHI()),
    ):
        with pytest.raises(ValueError, match="unknown expression node"):
            evaluate(retired, 10)


def test_no_division_divides_by_a_product():
    # Products divide inside prod_ap, as factors with negative exponents;
    # div is left for the quotients by theta series the paper states.
    divisors = [node[2] for node in every_subtree() if node[0] == "div"]
    assert divisors
    for divisor in divisors:
        assert all(node[0] != "prodap" for node in subtrees(divisor)), divisor


def array_bytes(expr, order):
    """The larger of cap_bytes' two bounds for expr alone."""
    return max(cap_bytes([expr], order))


def test_array_bytes_bounds_every_lattice_leaf():
    leaves = {node for node in every_subtree() if node[0] in ("theta3", "theta2")}
    assert {leaf[0] for leaf in leaves} == {"theta3", "theta2"}
    for leaf in leaves:
        for order in (0, 1, 7, 200):
            if leaf[0] == "theta3":
                built = short_vectors(TernaryForm(*leaf[1]), order).nbytes
            else:
                (a, b, c), linear, const = leaf[1:4]
                bform = BinaryForm(a, b, c, linear=linear, const=const)
                built = 8 * 3 * int(theta_series_binary(bform, order).array.sum())
            assert built <= array_bytes(leaf, order), (leaf, order)


def test_array_bytes_follows_the_evaluator_orders():
    assert array_bytes(sift(25, 0, PHI3), 10) == array_bytes(PHI3, 250) == 8 * 251
    theta = ("theta3", (1, 1, 1, 0, 0, 0), None)
    assert array_bytes(sift(4, 2, mul(PHI(), theta)), 10) == array_bytes(theta, 42)
    assert array_bytes(theta, 42) == 8 * 4 * (12 + 2) ** 3


def test_sift_node_pulls_deeper_order():
    # S(7,5) of the odd-distinct-parts product at order 20 needs the
    # product at order 145; the coefficients must match a direct sift.
    expr = ("sift", 7, 5, ("prodap", ((2, 1, 1, 1),)))
    out = evaluate(expr, 20)
    direct = qs.prod_ap([(2, 1, 1, 1)], 7 * 20 + 5).sift(7, 5)
    assert out == direct


def test_full_catalog_passes_at_order_80():
    for spec in catalog():
        report = verify_identity(spec, 80)
        assert report.status == "pass", spec.id


def test_borwein_splitting_identity_to_500():
    assert verify_identity("E4.4", 500).status == "pass"


def test_descriptions_are_informative():
    for spec in catalog():
        assert spec.description
        assert "=" in spec.description or "X(" in spec.description


def test_package_attribute_is_the_catalog_module():
    from threesquares import catalog as C

    C._CACHE.clear()
    assert C.catalog()


def test_failing_spec_reports_int_witness_that_serialises():
    report = verify_identity(IdentitySpec("phi-psi", PHI(), PSI(), "phi = psi"), 30)
    assert report.status == "fail"
    assert report.first_mismatch == (1, 2, 1)
    assert all(type(v) is int for v in report.first_mismatch)
    # phi = 1 + 2q + ... and psi = 1 + q + ...: the sides read at n = 1.
    n, lhs, rhs = report.first_mismatch
    assert (lhs, rhs) == (evaluate(PHI(), 30)[n], evaluate(PSI(), 30)[n])
    assert lhs - rhs == 1
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert doc["firstMismatch"] == [1, 2, 1]
    # The wall time is left out, as it is of equality.
    assert doc == {
        "id": "phi-psi", "order": 30, "status": "fail", "firstMismatch": [1, 2, 1]
    }


def test_sifted_products_keep_one_memo_entry_per_miss(monkeypatch):
    # Wrapped the way the benchmark's tracer wraps it: every call that
    # finds no memo entry must leave exactly one behind.
    module = importlib.import_module("threesquares.catalog")
    module._CACHE.clear()
    misses = []
    inner = module.evaluate

    def traced(expr, order):
        if (expr, order) not in module._CACHE:
            misses.append((expr, order))
        return inner(expr, order)

    monkeypatch.setattr(module, "evaluate", traced)
    order = 60
    cases = [
        (25, 0, PHI3),
        (5, 1, power(PHI(), 4)),
        (4, 2, mul(PHI(2), PHI(10))),
        (5, 0, mul(Q(1), PHI(5), F(1, 9))),
    ]
    for t, s, child in cases:
        got = traced(sift(t, s, child), order)
        assert got == traced(child, t * order + s).sift(t, s)
    assert len(misses) == len(module._CACHE)
    # Memo entries are shared, so their arrays refuse in-place writes.
    entry = module._CACHE[(PHI3, 25 * order)]
    with pytest.raises(ValueError):
        entry.array[0] += 1
    module._CACHE.clear()


# -- the one-leaf rewrites against the trees they replaced ---------------------
#
# Each eta quotient was once a tree of E(k) = prodap((k, k, -1, 1)) leaves
# joined by mul, pow and an exact division, and two sides sent q to q^k
# with a dilate node.  Those trees are kept here as the reference, with
# E(k) from euler_e, div from divide_exact and dilate from ref_dilate.


def E(k):
    return ("E", k)


def div(x, y):
    return ("div", x, y)


def dilate(k, x):
    return ("dilate", k, x)


def ref_evaluate(tree, order):
    op = tree[0]
    if op == "E":
        return euler_e(tree[1], order)
    if op == "mul":
        out = ref_evaluate(tree[1], order)
        for child in tree[2:]:
            out = out * ref_evaluate(child, order)
        return out
    if op == "pow":
        return ref_evaluate(tree[1], order).pow(tree[2])
    if op == "div":
        return ref_evaluate(tree[1], order).divide_exact(ref_evaluate(tree[2], order))
    if op == "dilate":
        return series(ref_dilate(ref_evaluate(tree[2], order).coeffs, tree[1]))
    return evaluate(tree, order)


ONE_LEAF_REWRITES = [
    ("E1.9", div(power(E(2), 5), mul(power(E(4), 2), power(E(1), 2))),
     eta((2, 5), (4, -2), (1, -2))),
    ("E1.11", div(power(E(2), 2), E(1)), eta((2, 2), (1, -1))),
    ("E1.12", div(mul(E(20), E(5), power(E(2), 2)), mul(E(4), E(1))),
     eta((20, 1), (5, 1), (2, 2), (4, -1), (1, -1))),
    ("E1.13", div(mul(power(E(5), 3), E(2)), mul(E(10), E(1))),
     eta((5, 3), (2, 1), (10, -1), (1, -1))),
    ("E1.23", div(mul(E(10), E(5), E(4), E(2)), mul(E(20), E(1))),
     eta((10, 1), (5, 1), (4, 1), (2, 1), (20, -1), (1, -1))),
    ("E4.3", div(power(E(9), 3), E(3)), eta((9, 3), (3, -1))),
    ("E4.11", div(mul(power(E(3), 2), E(2)), mul(E(6), E(1))),
     eta((3, 2), (2, 1), (6, -1), (1, -1))),
    ("E4.12", div(mul(E(12), E(3), power(E(2), 2)), mul(E(6), E(4), E(1))),
     eta((12, 1), (3, 1), (2, 2), (6, -1), (4, -1), (1, -1))),
    ("EFINAL", power(E(2), 2), eta((2, 2))),
    ("EFINAL", dilate(4, theta2(1, 1, 2)), theta2(4, 4, 8)),
    ("HS3.n0", dilate(3, PHI3), power(PHI(3), 3)),
    ("HS5.n0", dilate(5, PHI3), power(PHI(5), 3)),
]


@pytest.mark.parametrize(
    "ident, parent, leaf",
    ONE_LEAF_REWRITES,
    ids=[i + ("-dilation" if t[0] == "dilate" else "") for i, t, _ in ONE_LEAF_REWRITES],
)
def test_one_leaf_rewrite_equals_the_tree_it_replaced(ident, parent, leaf):
    spec = next(s for s in every_spec() if s.id == ident)
    assert leaf in set(subtrees(spec.lhs)) | set(subtrees(spec.rhs))
    assert evaluate(leaf, 1000) == ref_evaluate(parent, 1000)


def test_a_traced_catalog_run_sees_every_memo_miss(monkeypatch, tmp_path):
    # The benchmark's traced rounds wrap program functions by name
    # (bench/tracing.py) and then require one traced miss per memo entry.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.chdir(tmp_path)
    tracing = importlib.import_module("tracing")
    module = importlib.import_module("threesquares.catalog")
    tracer = tracing.Tracer()
    with tracing.Wiring(tracer):
        reports = verify.run_catalog(100)
    assert all(r.status == "pass" for r in reports)
    assert tracer.metrics()["catalog.memo_misses"] == len(module._CACHE) > 0
    names = {span[0] for span in tracer.spans}
    assert {"qseries.prod_ap", "qseries.divide_exact"} <= names
    assert not any(tmp_path.iterdir())


# -- planned runs ----------------------------------------------------------------


@pytest.mark.parametrize("order", [40, 97])
def test_planned_sides_equal_a_cold_unplanned_evaluation(order):
    module = importlib.import_module("threesquares.catalog")
    verify.run_catalog(order)
    planned = {
        side: evaluate(side, order)
        for spec in catalog()
        for side in (spec.lhs, spec.rhs)
    }
    for side, got in planned.items():
        module._CACHE.clear()
        assert got == evaluate(side, order), side


def test_a_planned_shallow_entry_is_a_read_only_view_of_its_deep_entry():
    module = importlib.import_module("threesquares.catalog")
    order = 97
    deepest = module.plan(
        [x for spec in catalog() for x in (spec.lhs, spec.rhs)], order
    )[PHI()]
    assert deepest == 529 * order
    verify.run_catalog(order)
    shallow = module._CACHE[(PHI(), order)].array
    deep = module._CACHE[(PHI(), deepest)].array
    assert np.shares_memory(shallow, deep)
    with pytest.raises(ValueError):
        shallow[0] += 1


def test_the_plan_follows_the_evaluator_orders():
    module = importlib.import_module("threesquares.catalog")
    theta = theta3(1, 1, 1, 0, 0, 0)
    expr = sub(sift(4, 2, mul(PHI(), theta)), scale(3, PHI()))
    # The sift asks the product's two factors, not the product, for 42.
    assert module.plan([expr], 10) == {
        expr: 10, expr[1]: 10, expr[2]: 10, PHI(): 42, theta: 42,
    }


def test_run_catalog_drops_its_plan(monkeypatch):
    module = importlib.import_module("threesquares.catalog")
    verify.run_catalog(50)
    assert module._PLAN == {}
    module._CACHE.clear()
    evaluate(PHI(), 50)
    assert list(module._CACHE) == [(PHI(), 50)]

    def broken(spec, order):
        raise RuntimeError("check failed")

    monkeypatch.setattr(verify, "verify_identity", broken)
    with pytest.raises(RuntimeError):
        verify.run_catalog(50)
    assert module._PLAN == {}


def test_array_bytes_bounds_the_limbs_and_peak_of_an_eta_quotient(monkeypatch):
    # E1.9's E(2)^5 / (E(4)^2 E(1)^2) is small, but its expansion carries
    # into 3 limbs at order 4000 on the way there.
    leaf = eta((2, 5), (4, -2), (1, -2))
    limbs = [1]
    carry = qs._carry

    def counting(co):
        co = carry(co)
        limbs.append(co.shape[1])
        return co

    monkeypatch.setattr(qs, "_carry", counting)
    tracemalloc.start()
    try:
        quotient = qs.prod_ap(list(leaf[1]), 4000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert quotient.array.dtype == np.int64
    assert max(limbs) == 3
    bound = array_bytes(leaf, 4000)
    assert 4001 * (16 * max(limbs) + 88) <= bound
    assert peak <= bound, (peak, bound)


def test_efinal_wide_product_runs_on_limbs_and_comes_back_as_int64(monkeypatch):
    # 8 q psi(-q) E(2)^2 (925 nonzeros below 2^8) times the 144-bit
    # S(7,5)[(-q;q^2)_inf]: no int64 certificate, an int64 result.
    x = evaluate(mul(Q(1), scale(8, mul(alt(PSI()), eta((2, 2))))), 1000)
    y = evaluate(sift(7, 5, prodap((2, 1, 1, 1))), 1000)
    assert y.array.dtype == object
    nz = int(np.count_nonzero(x.array))
    assert nz * x.bound * y.bound >= 1 << 62
    calls = []
    limbs = qs._conv_limbs
    monkeypatch.setattr(
        qs, "_conv_limbs", lambda *args: calls.append(1) or limbs(*args)
    )
    product = x * y
    assert calls == [1]
    assert product.coeffs == ref_mul(x.coeffs, y.coeffs)
    assert product.array.dtype == np.int64


@pytest.mark.parametrize("order", [1000, 2000, 7005])
def test_array_bytes_bounds_the_traced_peak_of_a_multi_limb_product(order):
    # The distinct-odd-parts product reaches 144 bits at 7005 (five limbs).
    leaf = prodap((2, 1, 1, 1))
    tracemalloc.start()
    try:
        qs.prod_ap(list(leaf[1]), order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= array_bytes(leaf, order), (peak, array_bytes(leaf, order))
    assert array_bytes(sift(7, 5, leaf), 1000) == array_bytes(leaf, 7005)
