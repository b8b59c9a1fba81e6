"""Acceptance suite: every criterion at its full stated depth.

Each test prints one PASS line on success; every comparison is exact
integer equality (tolerance zero).  Criteria with stated runtime
budgets assert them.  The checks:

  1.  full identity catalog at order 300, under 60 s
  2.  prime-square recursion, brute force p in {3,5,7,11,13} to n = 10^4,
      plus the sifting-chain re-derivation for p in {3,5} at order 500
  3.  the four representation theorems to n = 5000
  4.  class enumeration and the printed genus triples/pairs
  5.  twelve genera at discriminant 4624 with a unique qualifying one
  6.  the weighted two-genus identity, p up to 23, n to 1000, under 5 min
  7.  unique pullback bijection for p in {17, 23}, checked to 500
  8.  quadratic-character vanishing, p in {13,17,19,23}, n to 2000
  9.  property suites (triple product, dissection, theta oracle,
      equivalence invariance)
  10. the sifted product display and the final display at order 200
"""

import random
import time

from threesquares import qseries as qs
from threesquares.catalog import catalog, evaluate
from threesquares.forms import (
    apply_transform,
    enumerate_classes,
    reduce_form,
)
from threesquares.genera import find_h, genus_partition, tg1, tg2
from threesquares.lattice import TernaryForm, theta_series_ternary
from threesquares.verify import (
    run_catalog,
    verify_hs,
    verify_identity,
    verify_jagy,
    verify_prop54,
    verify_signature,
    verify_theorems,
)

from pairing_search import search_h
from test_forms import equivalent_forms, random_unimodular
from test_qseries import theta_f_product


def canon(t):
    return reduce_form(TernaryForm(*t)).as_tuple()


def contains_equivalent(classes, printed):
    return any(
        equivalent_forms(TernaryForm(*printed), g) is not None for g in classes
    )


def test_criterion_1_full_catalog_at_300():
    start = time.perf_counter()
    reports = run_catalog(300)
    elapsed = time.perf_counter() - start
    failed = [r.id for r in reports if r.status != "pass"]
    assert len(reports) >= 55
    assert not failed, failed
    assert elapsed < 60, f"catalog run took {elapsed:.1f}s"
    print(
        f"\nPASS criterion 1: {len(reports)} identities at order 300 "
        f"in {elapsed:.1f}s"
    )


def test_criterion_2_prime_square_recursion():
    for p in (3, 5, 7, 11, 13):
        report = verify_hs(p, 10_000, chain_order=500)
        assert report.status == "pass", (p, report.first_mismatch)
        if p in (3, 5):
            assert report.chain_order == 500
            assert report.chain_reports
            bad = [r.id for r in report.chain_reports if r.status != "pass"]
            assert not bad, bad
    print(
        "\nPASS criterion 2: recursion to n=10^4 for p=3,5,7,11,13; "
        "chains re-derived at order 500 for p=3,5"
    )


def test_criterion_3_theorems_to_5000():
    reports = verify_theorems(5000)
    for r in reports:
        assert r.status == "pass", (r.id, r.first_mismatch)
    print("\nPASS criterion 3: four representation theorems to n=5000")


def test_criterion_4_class_lists_and_genus_members():
    assert len(enumerate_classes(9)) == 1
    assert len(enumerate_classes(25)) == 1
    classes529 = enumerate_classes(529)
    assert len(classes529) == 3
    tg1_23_printed = [(1, 6, 23, 0, 0, 1), (2, 3, 23, 0, 0, 1), (3, 8, 8, -7, 2, 2)]
    for printed in tg1_23_printed:
        assert contains_equivalent(classes529, printed)
    genus = tg1(23)
    auts = {canon(t): a for t, a in zip(
        [m.as_tuple() for m in genus.members], genus.aut_counts
    )}
    assert auts[canon((3, 8, 8, -7, 2, 2))] == 12
    assert auts[canon((1, 6, 23, 0, 0, 1))] == 8
    assert auts[canon((2, 3, 23, 0, 0, 1))] == 4
    genus2 = tg2(23)
    auts2 = {canon(t): a for t, a in zip(
        [m.as_tuple() for m in genus2.members], genus2.aut_counts
    )}
    assert auts2[canon((3, 31, 31, -30, 2, 2))] == 12
    assert auts2[canon((4, 23, 24, 0, 4, 0))] == 8
    assert auts2[canon((8, 23, 12, 0, 4, 0))] == 4
    g17, g17b = tg1(17), tg2(17)
    auts17 = {canon(t): a for t, a in zip(
        [m.as_tuple() for m in g17.members], g17.aut_counts
    )}
    assert auts17[canon((3, 5, 6, 1, 2, 3))] == 4
    assert auts17[canon((3, 6, 6, -5, 2, 2))] == 12
    auts17b = {canon(t): a for t, a in zip(
        [m.as_tuple() for m in g17b.members], g17b.aut_counts
    )}
    assert auts17b[canon((7, 11, 20, -8, 4, 6))] == 4
    assert auts17b[canon((3, 23, 23, -22, 2, 2))] == 12
    print(
        "\nPASS criterion 4: class numbers 1/1/3 and printed genus members "
        "with automorph counts 12/8/4 and 4/12"
    )


def test_criterion_5_twelve_genera_unique_qualifier():
    partition = genus_partition(4624)
    assert len(partition) == 12
    doubletons = [g for g in partition if len(g.members) == 2]
    assert len(doubletons) == 3
    target = tg1(17)
    qualifying = []
    for g in doubletons:
        thetas_ok = all(
            all(
                theta_series_ternary(m, 200)[n] == 0
                for n in range(1, 201)
                if n % 4 in (1, 2)
            )
            for m in g.members
        )
        if thetas_ok and search_h(g, target, 200).status == "ok":
            qualifying.append(g)
    assert len(qualifying) == 1
    assert qualifying[0] == tg2(17)
    print(
        "\nPASS criterion 5: 12 genera at 4624, 3 doubletons, unique "
        "qualifying genus is the distinguished one"
    )


def test_criterion_6_weighted_identity_to_1000():
    printed = {
        3: ({(2, (1, 1, 3, 0, 0, 1))}, {(4, (4, 3, 4, 0, 4, 0))}),
        5: ({(4, (2, 2, 2, -1, 1, 1))}, {(8, (8, 3, 7, 2, 8, 4))}),
        7: ({(6, (1, 2, 7, 0, 0, 1))}, {(12, (4, 7, 8, 0, 4, 0))}),
        11: (
            {(4, (3, 4, 4, -3, 2, 2)), (6, (1, 3, 11, 0, 0, 1))},
            {(8, (3, 15, 15, -14, 2, 2)), (12, (4, 11, 12, 0, 4, 0))},
        ),
        13: ({(12, (2, 5, 5, -3, 1, 1))}, {(24, (8, 7, 15, 2, 8, 4))}),
        17: (
            {(12, (3, 5, 6, 1, 2, 3)), (4, (3, 6, 6, -5, 2, 2))},
            {(24, (7, 11, 20, -8, 4, 6)), (8, (3, 23, 23, -22, 2, 2))},
        ),
        19: (
            {(6, (1, 5, 19, 0, 0, 1)), (12, (4, 5, 6, 5, 1, 2))},
            {(12, (4, 19, 20, 0, 4, 0)), (24, (7, 11, 23, -10, 6, 2))},
        ),
        23: (
            {
                (4, (3, 8, 8, -7, 2, 2)),
                (6, (1, 6, 23, 0, 0, 1)),
                (12, (2, 3, 23, 0, 0, 1)),
            },
            {
                (8, (3, 31, 31, -30, 2, 2)),
                (12, (4, 23, 24, 0, 4, 0)),
                (24, (8, 23, 12, 0, 4, 0)),
            },
        ),
    }
    start = time.perf_counter()
    for p, (want1, want2) in printed.items():
        report = verify_prop54(p, 1000)
        assert report.status == "pass", (p, report.first_mismatch)
        assert {(c, canon(t)) for c, t in report.tg1_terms} == {
            (c, canon(t)) for c, t in want1
        }, p
        assert {(c, canon(t)) for c, t in report.tg2_terms} == {
            (c, canon(t)) for c, t in want2
        }, p
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"took {elapsed:.1f}s"
    print(
        f"\nPASS criterion 6: weighted identity for p up to 23 at n<=1000 "
        f"with printed coefficients, {elapsed:.1f}s"
    )


def test_criterion_7_unique_bijection_and_signature():
    for p in (17, 23):
        # The pairing tg2 built passes its check, and a search over every
        # pairing finds it alone.
        result = find_h(p, 500)
        assert result.status == "ok", p
        search = search_h(tg2(p), tg1(p), 500)
        assert (search.status, search.mapping) == ("ok", result.mapping), p
        report = verify_signature(p, 500)
        assert report.status == "pass"
        assert report.pullback_ok and report.vanishing_ok
    print(
        "\nPASS criterion 7: unique pullback bijection for p=17,23; "
        "pullback and vanishing hold to 500"
    )


def test_criterion_8_character_vanishing():
    for p in (13, 17, 19, 23):
        report = verify_jagy(p, 2000)
        assert report.status == "pass", (p, report.failures[:3])
    print(
        "\nPASS criterion 8: character vanishing for p=13,17,19,23 to n=2000 "
        "(conjecture-level check)"
    )


def test_criterion_9_property_suites():
    # Triple product equality on the parameter grid at order 300.
    for r in range(1, 7):
        for s in range(r, 7):
            assert qs.theta_f(r, s, 300) == theta_f_product(r, s, 300)
    # Dissection completeness of the sifting operator.
    rng = random.Random(99)
    for _ in range(20):
        coeffs = [rng.randint(-30, 30) for _ in range(rng.randint(8, 60))]
        series = qs.QSeries(len(coeffs) - 1, tuple(coeffs))
        for t in range(1, 8):
            for n in range(series.trunc + 1):
                assert series.sift(t, n % t)[n // t] == series[n]
    # The two engines agree: theta series of the unit form vs phi^3.
    assert theta_series_ternary(
        TernaryForm(1, 1, 1, 0, 0, 0), 1000
    ) == qs.theta_f(1, 1, 1000).pow(3)
    # Counts are invariant under unimodular changes of variables.
    rng = random.Random(5)
    for printed in ((1, 1, 3, 0, 0, 1), (2, 2, 2, -1, 1, 1), (4, 23, 24, 0, 4, 0)):
        form = TernaryForm(*printed)
        base = theta_series_ternary(form, 200)
        for _ in range(20):
            moved = apply_transform(form, random_unimodular(rng))
            assert theta_series_ternary(moved, 200) == base
    print(
        "\nPASS criterion 9: triple product grid, sift dissection, "
        "theta oracle at 1000, transform invariance"
    )


def test_criterion_10_product_and_final_displays_at_200():
    for ident in ("ECH", "EFINAL"):
        report = verify_identity(ident, 200)
        assert report.status == "pass", ident
    # The sifted product is checked against lattice counts as well.
    product_side = evaluate(
        ("scale", 6, ("prodap", (
            (2, 2, -1, 2), (10, 10, -1, 1), (2, 1, 1, 4),
            (10, 7, 1, 1), (10, 3, 1, 1),
        ))),
        200,
    )
    lattice_side = theta_series_ternary(
        TernaryForm(1, 1, 1, 0, 0, 0), 5 * 200 + 1
    ).sift(5, 1)
    assert product_side == lattice_side.truncate(200)
    print(
        "\nPASS criterion 10: sifted product display and final display "
        "verified at order 200"
    )
