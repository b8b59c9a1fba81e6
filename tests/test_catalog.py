"""Catalog structure, the evaluator, and targeted verification runs."""

import importlib
import json

import pytest

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
    catalog,
    evaluate,
    lookup,
    mul,
    power,
    scale,
    sift,
)
from threesquares.verify import array_bytes, verify_identity


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
    "div": "all", "dilate": (2,), "alt": (1,), "sift": (3,),
}


def node_kinds(expr, found):
    found.add(expr[0])
    where = NODE_CHILDREN[expr[0]]
    for i in (range(1, len(expr)) if where == "all" else where):
        node_kinds(expr[i], found)
    return found


def test_catalog_trees_use_exactly_the_evaluator_node_kinds():
    specs = catalog() + verify._branch_specs(3) + verify._branch_specs(5)
    found = set()
    for spec in specs:
        node_kinds(spec.lhs, found)
        node_kinds(spec.rhs, found)
    assert found == set(NODE_CHILDREN)
    for retired in (("phi", 1), ("psi", 1), ("one",), ("neg", ("q", 1))):
        with pytest.raises(ValueError, match="unknown expression node"):
            evaluate(retired, 10)


def lattice_leaves(expr, found):
    if expr[0] in ("theta3", "theta2"):
        found.add(expr)
    where = NODE_CHILDREN[expr[0]]
    for i in (range(1, len(expr)) if where == "all" else where):
        lattice_leaves(expr[i], found)
    return found


def test_array_bytes_bounds_every_lattice_leaf():
    leaves = set()
    for spec in catalog() + verify._branch_specs(3) + verify._branch_specs(5):
        lattice_leaves(spec.lhs, leaves)
        lattice_leaves(spec.rhs, leaves)
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

    C.clear_cache()
    assert C.catalog()


def test_failing_spec_reports_int_witness_that_serialises():
    report = verify_identity(IdentitySpec("phi-psi", PHI(), PSI(), "phi = psi"), 30)
    assert report.status == "fail"
    assert report.first_mismatch == (1, 2, 1)
    assert all(type(v) is int for v in report.first_mismatch)
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert doc["firstMismatch"] == [1, 2, 1]


def test_sifted_products_keep_one_memo_entry_per_miss(monkeypatch):
    # Wrapped the way the benchmark's tracer wraps it: every call that
    # finds no memo entry must leave exactly one behind.
    module = importlib.import_module("threesquares.catalog")
    module.clear_cache()
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
    module.clear_cache()
