"""Verification engines at reduced depth (full depths live in acceptance)."""

import json

import pytest

from threesquares import verify
from threesquares.forms import reduce_form
from threesquares.lattice import TernaryForm, s_table
from threesquares.qseries import QSeries
from threesquares.verify import (
    run_catalog,
    verify_hs,
    verify_identity,
    verify_jagy,
    verify_prop54,
    verify_signature,
    verify_theorems,
)


def canon(t):
    return reduce_form(TernaryForm(*t)).as_tuple()


def test_hs_small_all_routes():
    ids = {}
    for p in (3, 5):
        report = verify_hs(p, 300, chain_order=300)
        assert report.status == "pass"
        assert report.first_mismatch is None
        assert report.chain_order == 300
        assert report.chain_reports
        assert all(r.status == "pass" for r in report.chain_reports)
        ids[p] = [r.id for r in report.chain_reports]
    assert set(ids[3]) == {
        "E1.15", "E4.13", "E4.14", "E4.15", "E4.20", "E4.21",
        "HS3.n0", "HS3.n1", "HS3.n2",
    }
    # Each residue branch is checked once: these catalog entries state
    # the generated HS5 branches themselves, so the chain leaves them out.
    assert len(ids[5]) == len(set(ids[5])) == 12 + 5
    assert {f"HS5.n{r}" for r in range(5)} <= set(ids[5])
    assert not {"E2.12r1", "E2.12r4", "E2.16r2", "E2.16r3", "E2.19"} & set(ids[5])


def test_hs_brute_only_for_larger_primes():
    report = verify_hs(7, 300)
    assert report.status == "pass"
    assert report.chain_reports == ()


def test_hs_rejects_bad_p():
    with pytest.raises(ValueError):
        verify_hs(2, 10)
    with pytest.raises(ValueError):
        verify_hs(15, 10)


def test_hs_guards_a_61_bit_prime_at_once():
    # Miller-Rabin proves 2^61 - 1 prime at once; trial division ran past
    # 20 s.  At the end of its proof the guard refuses instead.
    from threesquares.forms import _PRIME_PROVEN

    assert verify_hs(2**61 - 1, 0).status == "pass"
    with pytest.raises(ValueError, match="not proven"):
        verify_hs(_PRIME_PROVEN, 0)


def test_theorems_small():
    reports = verify_theorems(400)
    assert [r.status for r in reports] == ["pass"] * 4
    assert {r.id for r in reports} == {"T1.1", "T1.2", "T5.2", "T5.3"}


def test_only_the_recursion_builds_an_s_table(monkeypatch):
    # prop54 and the theorems read s at the points they check, from
    # s_multiples; verify_hs still reads s(p^2 n) and s(n) off one table.
    def no_table(n_max):
        raise AssertionError(f"s_table({n_max})")

    monkeypatch.setattr(verify, "s_table", no_table)
    assert verify_prop54(5, 60).status == "pass"
    assert [r.status for r in verify_theorems(60)] == ["pass"] * 4
    with pytest.raises(AssertionError, match=r"s_table\(2500\)"):
        verify_hs(5, 100)


def test_prop54_coefficients_echo_printed_displays():
    expected = {
        3: ({(2, canon((1, 1, 3, 0, 0, 1)))}, {(4, canon((4, 3, 4, 0, 4, 0)))}),
        7: ({(6, canon((1, 2, 7, 0, 0, 1)))}, {(12, canon((4, 7, 8, 0, 4, 0)))}),
    }
    for p, (want1, want2) in expected.items():
        report = verify_prop54(p, 200)
        assert report.status == "pass"
        assert {(c, t) for c, t in report.tg1_terms} == want1
        assert {(c, t) for c, t in report.tg2_terms} == want2


def test_prop54_eleven_matches_four_term_display():
    report = verify_prop54(11, 150)
    assert report.status == "pass"
    assert {(c, t) for c, t in report.tg1_terms} == {
        (4, canon((3, 4, 4, -3, 2, 2))),
        (6, canon((1, 3, 11, 0, 0, 1))),
    }
    assert {(c, t) for c, t in report.tg2_terms} == {
        (8, canon((3, 15, 15, -14, 2, 2))),
        (12, canon((4, 11, 12, 0, 4, 0))),
    }


def test_signature_small():
    report = verify_signature(23, 120)
    assert report.status == "pass"
    assert report.pullback_ok and report.vanishing_ok


def test_vanishing_is_read_from_residues_mod_4(monkeypatch):
    # Each class of 4624 in place of tg2(17)'s first member: the residue
    # proof agrees with the theta series to past every value Q takes on
    # {0..3}^3, and a class that takes 1 or 2 mod 4 fails the report.
    from itertools import product

    from threesquares.genera import HResult, find_h, genus_partition
    from threesquares.lattice import theta_series_ternary

    real = find_h(17, 20)
    failing = 0
    for genus in genus_partition(4624):
        for form in genus.members:
            swapped = ((form, real.mapping[0][1]),) + real.mapping[1:]
            monkeypatch.setattr(
                verify, "find_h", lambda p, max_n: HResult("ok", swapped)
            )
            report = verify_signature(17, 20)
            top = max(form.value(*x) for x in product(range(4), repeat=3))
            theta = theta_series_ternary(form, top).array
            vanishes = not (theta[1::4].any() or theta[2::4].any())
            assert report.pullback_ok and report.vanishing_ok == vanishes, form
            assert report.status == ("pass" if vanishes else "fail")
            failing += not vanishes
    assert failing > 0


def test_jagy_small():
    report = verify_jagy(13, 400)
    assert report.status == "pass"
    assert report.failures == ()


def test_prop54_conjecture_level_primes():
    # Beyond the proved range: any failure here is a hard suite failure
    # pending investigation, never suppressed.
    for p in (29, 31, 37):
        report = verify_prop54(p, 500)
        assert report.status == "pass", (p, report.first_mismatch)


def test_sifting_chain_routes_agree():
    # The dissection steps applied to the cube of the theta sum must
    # agree with the same steps applied to the enumerated count series.
    from threesquares import qseries as qs
    from threesquares.lattice import theta_series_ternary

    order = 200
    outer = 25 * order
    qseries_route = qs.theta_f(1, 1, outer).pow(3)
    lattice_route = theta_series_ternary(
        TernaryForm(1, 1, 1, 0, 0, 0), outer
    )
    assert qseries_route == lattice_route
    for series in (qseries_route, lattice_route):
        step = series.sift(25, 0) - series.truncate(order).scale(5)
        assert step == qseries_route.sift(25, 0) - lattice_route.truncate(
            order
        ).scale(5)


def test_pullback_bijection_seedless_prime():
    # 73 is the first prime outside the three congruence families that
    # once seeded tg2; the pairing its overlattices record passes its check.
    from threesquares.genera import find_h, tg1, tg2

    genus = tg2(73)
    assert genus.discriminant == 16 * 73 * 73
    assert len(genus.members) == len(tg1(73).members)
    assert find_h(73, 200).status == "ok"


@pytest.mark.parametrize("p", [73, 97, 101])
def test_prop54_past_the_catalog_primes(p):
    report = verify_prop54(p, 200)
    assert (report.status, report.first_mismatch) == ("pass", None)
    assert len(report.tg1_terms) == len(report.tg2_terms)


def test_run_catalog_filters_and_validates():
    reports = run_catalog(60, ids=["E2.1", "E4.4"])
    assert [r.id for r in reports] == ["E2.1", "E4.4"]
    with pytest.raises(KeyError):
        run_catalog(60, ids=["NOPE"])


def test_report_json_shapes():
    rep = verify_hs(3, 50, chain_order=60)
    doc = rep.to_json_dict()
    assert doc["p"] == 3 and doc["status"] == "pass"
    doc54 = verify_prop54(3, 50).to_json_dict()
    assert doc54["tg1Terms"] and doc54["tg2Terms"]
    docsig = verify_signature(17, 60).to_json_dict()
    assert docsig["hStatus"] == "ok"
    docj = verify_jagy(17, 100).to_json_dict()
    assert docj["status"] == "pass"
    # Every report type's exact keys; a timing is never one of them.
    docv = verify_identity("E2.1", 50).to_json_dict()
    doct = verify_theorems(50)[0].to_json_dict()
    identity_keys = {"id", "order", "status", "firstMismatch"}
    shapes = [
        (docv, identity_keys),
        (doc, {"p", "maxN", "status", "firstMismatch", "chainOrder",
               "chainReports"}),
        (doct, {"id", "maxN", "status", "firstMismatch"}),
        (doc54, {"p", "maxN", "status", "firstMismatch", "tg1Terms",
                 "tg2Terms"}),
        (docsig, {"p", "maxN", "status", "hStatus", "mapping", "pullbackOk",
                  "vanishingOk"}),
        (docj, {"p", "maxN", "status", "failures"}),
    ]
    for d, keys in shapes:
        assert set(d) == keys
        assert json.loads(json.dumps(d)) == d
    assert doc["chainReports"] and all(
        set(r) == identity_keys for r in doc["chainReports"]
    )


def test_equal_runs_give_equal_reports():
    # The wall time is not part of a report's value, nested or not.
    assert verify_identity("E2.1", 50) == verify_identity("E2.1", 50)
    assert verify_hs(3, 50, chain_order=60) == verify_hs(3, 50, chain_order=60)


# -- failure paths: one perturbed coefficient, one exact first failure --------

G, H = (1, 1, 3, 0, 0, 1), (2, 2, 2, -1, 1, 1)
G2, H2 = (4, 3, 4, 0, 4, 0), (8, 3, 7, 2, 8, 4)


def bump_s(monkeypatch, bumps):
    """Add bumps[i] to s(i) wherever verify reads it: in every table
    verify.s_table builds and every array verify.s_multiples returns."""
    real_table, real_multiples = verify.s_table, verify.s_multiples

    def s_table(n_max):
        table = real_table(n_max).copy()
        for i, delta in bumps.items():
            table[i] += delta
        return table

    def s_multiples(steps, count):
        rows = real_multiples(steps, count)
        for s, step in zip(rows, steps):
            for i, delta in bumps.items():
                if i % step == 0 and i // step <= count:
                    s[i // step] += delta
        return rows

    monkeypatch.setattr(verify, "s_table", s_table)
    monkeypatch.setattr(verify, "s_multiples", s_multiples)


def bump_theta(monkeypatch, bumps):
    """Make verify.evaluate add bumps[(form, n)] to that form's theta at n."""
    real = verify.evaluate

    def evaluate(expr, order):
        series = real(expr, order)
        if expr[0] != "theta3":
            return series
        arr = series.array.copy()
        for (form, n), delta in bumps.items():
            if form == expr[1]:
                arr[n] += delta
        return QSeries(series.trunc, arr)

    monkeypatch.setattr(verify, "evaluate", evaluate)


@pytest.mark.parametrize(
    "p, bumps, first_fail",
    [
        (7, {49 * 10: 1}, 10),
        (7, {5: 1, 49 * 10: 1}, 5),
        # s(2) and s(18) moved together keep n = 2 true; n = 18 then
        # breaks through both (p + 1) s(18) and the p s(18 / 9) term.
        (3, {2: 1, 18: 3}, 18),
        # n = 0 is checked, and s(0) moves both of its sides alike:
        # s(0) = (p + 1) s(0) - p s(0).
        (3, {0: 1}, None),
        (7, {0: 5}, None),
    ],
)
def test_hs_reports_the_first_perturbed_n(monkeypatch, p, bumps, first_fail):
    s = s_table(p * p * 100)
    bump_s(monkeypatch, bumps)
    report = verify_hs(p, 100, chain_order=60)
    assert report.status == ("pass" if first_fail is None else "fail")
    if first_fail is None:
        assert report.first_mismatch is None
        return
    assert report.chain_reports == () and report.chain_order is None
    n, lhs, rhs = report.first_mismatch
    assert n == first_fail
    assert all(type(v) is int for v in report.first_mismatch)
    assert lhs == s[p * p * n] + bumps.get(p * p * n, 0)
    # At n = 10 the bump sits on the left, s(490).  At n = 5 it reaches
    # the right through c s(5), c = 8 - (-5|7) = 7; at n = 18 through
    # 4 s(18) - 3 s(2), moved by 4 * 3 - 3 * 1.
    assert lhs - rhs == {10: 1, 5: -7, 18: -9}[n]


@pytest.mark.parametrize("p", [3, 7])
def test_hs_checks_n_0(monkeypatch, p):
    # A character of 1 at n = 0 alone gives the right side p s(0) - p s(0)
    # = 0 there, against s(0) = 1 on the left; every n > 0 still holds.
    real = verify._minus_chi

    def moved(p, max_n):
        chi = real(p, max_n).copy()
        chi[0] = 1
        return chi

    monkeypatch.setattr(verify, "_minus_chi", moved)
    report = verify_hs(p, 100, chain_order=60)
    assert (report.status, report.first_mismatch) == ("fail", (0, 1, 0))
    assert report.chain_reports == () and report.chain_order is None


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("p, r", [(p, r) for p in (3, 5) for r in range(p)])
def test_moving_one_branch_coefficient_fails_that_branch_alone(
    monkeypatch, p, r, delta
):
    # c_r = p + 1 - (-r|p): lowering the character by delta raises c_r by delta.
    real = verify._minus_chi

    def moved(p, max_n):
        chi = real(p, max_n).copy()
        chi[r::p] -= delta
        return chi

    monkeypatch.setattr(verify, "_minus_chi", moved)
    order = 40
    s = s_table(p**3 * order)
    for spec in verify._branch_specs(p):
        report = verify.verify_identity(spec, order)
        if spec.id != f"HS{p}.n{r}":
            assert report.status == "pass", spec.id
            continue
        # Coefficient n of branch r counts the argument m = p n + r.
        n, lhs, rhs = report.first_mismatch
        m = p * n + r
        assert m == min(k for k in range(r, p * order + 1, p) if s[k])
        assert (lhs, rhs - lhs) == (s[p * p * m], delta * s[m])


@pytest.mark.parametrize(
    "s_bumps, theta_bumps, fails",
    [
        # fails maps each failing theorem to (first n, lhs - rhs there).
        # The left side is s(k n) - c s(n), (k, c) = (25, 5) or (9, 3); the
        # right side is 4h, 2g, 2g - 4g2 or 4h - 8h2.
        # n = 8 is 0 mod 4: outside the parity-restricted statements.
        ({8: 1}, {}, {"T5.2": (8, -3), "T5.3": (8, -5)}),
        (
            {45: 1},
            {},
            {"T1.1": (45, -5), "T1.2": (5, 1), "T5.2": (5, 1),
             "T5.3": (45, -5)},
        ),
        ({}, {(G, 5): 1}, {"T1.2": (5, -2), "T5.2": (5, -2)}),
        ({}, {(H, 6): 1}, {"T1.1": (6, -4), "T5.3": (6, -4)}),
        ({}, {(G2, 3): 1}, {"T5.2": (3, 4)}),
        ({}, {(H2, 7): 1}, {"T5.3": (7, 8)}),
        ({}, {(G2, 12): 1, (H2, 4): 1}, {"T5.2": (12, 4), "T5.3": (4, 8)}),
        # n = 0 is checked by T5.2 and T5.3, where 1 - 3 = 2 - 4 and
        # 1 - 5 = 4 - 8, and not by T1.1 and T1.2 (0 is 0 mod 4).
        # s(0) = 2 moves the left sides to 2 - 6 and 2 - 10.
        ({0: 1}, {}, {"T5.2": (0, -2), "T5.3": (0, -4)}),
        # 2 * 2 - 4 * 4 = -12 against -2; 4 * 3 - 8 * 2 = -4 still holds.
        ({}, {(G, 0): 1, (H, 0): 2, (G2, 0): 3, (H2, 0): 1}, {"T5.2": (0, 10)}),
    ],
)
def test_theorems_report_the_first_perturbed_n(
    monkeypatch, s_bumps, theta_bumps, fails
):
    s = s_table(25 * 100)

    def moved_s(i):
        return int(s[i]) + s_bumps.get(i, 0)

    bump_s(monkeypatch, s_bumps)
    bump_theta(monkeypatch, theta_bumps)
    reports = {r.id: r for r in verify_theorems(100)}
    assert set(reports) == {"T1.1", "T1.2", "T5.2", "T5.3"}
    for tid, report in reports.items():
        assert report.status == ("fail" if tid in fails else "pass"), tid
        if tid not in fails:
            assert report.first_mismatch is None, tid
            continue
        n, lhs, rhs = report.first_mismatch
        assert all(type(v) is int for v in report.first_mismatch), tid
        k, c = (25, 5) if tid in ("T1.1", "T5.3") else (9, 3)
        assert lhs == moved_s(k * n) - c * moved_s(n), tid
        assert (n, lhs - rhs) == fails[tid], tid


def test_prop54_reports_the_first_perturbed_n(monkeypatch):
    clean = verify_prop54(7, 100)
    (c1, f1), = clean.tg1_terms
    (c2, f2), = clean.tg2_terms
    s = s_table(49 * 100)
    # Each failing case gives (first n, lhs - rhs there), with the left
    # side s(49 n) - 7 s(n) and the right side c1 R1(n) - c2 R2(n).
    cases = [
        ({49 * 12: 1}, {}, (12, 1)),
        ({}, {(f1, 30): 1}, (30, -c1)),
        ({}, {(f2, 9): 1, (f1, 40): 1}, (9, c2)),
        # c1 * c2 - c2 * c1 = 0: the printed weights cancel exactly.
        ({}, {(f1, 20): c2, (f2, 20): c1}, None),
        # n = 0 is checked too, where both sides are 1 - 7: s(0) alone
        # broken moves the left side to 2 * (1 - 7).
        ({0: 1}, {}, (0, -6)),
        ({}, {(f1, 0): 1}, (0, -c1)),
        ({}, {(f2, 0): 1}, (0, c2)),
    ]
    for s_bumps, theta_bumps, fail in cases:
        with monkeypatch.context() as m:
            bump_s(m, s_bumps)
            bump_theta(m, theta_bumps)
            report = verify_prop54(7, 100)
        assert report.status == ("pass" if fail is None else "fail")
        if fail is None:
            assert report.first_mismatch is None
        else:
            n, lhs, rhs = report.first_mismatch
            assert all(type(v) is int for v in report.first_mismatch)
            moved = [int(s[i]) + s_bumps.get(i, 0) for i in (49 * n, n)]
            assert lhs == moved[0] - 7 * moved[1]
            assert (n, lhs - rhs) == fail
        assert (report.tg1_terms, report.tg2_terms) == (
            clean.tg1_terms, clean.tg2_terms
        )


def test_jagy_lists_exactly_the_injected_pairs(monkeypatch):
    from threesquares.forms import legendre
    from threesquares.genera import tg1, tg2

    p = 13
    members = [m.as_tuple() for m in tg1(p).members + tg2(p).members]
    targets = [n for n in range(1, 201) if legendre(-n, p) == 1]
    others = [n for n in range(1, 201) if legendre(-n, p) != 1]
    first, last = members[0], members[-1]
    injected = [(first, targets[0]), (first, targets[5]), (last, targets[2])]
    bumps = {pair: 1 for pair in injected}
    bumps[(first, others[0])] = 1
    bumps[(last, 0)] = 1
    bump_theta(monkeypatch, bumps)
    report = verify_jagy(p, 200)
    assert report.status == "fail"
    assert report.failures == tuple(injected)


def test_prop54_weights_come_from_weights48(monkeypatch):
    from threesquares.genera import Genus

    fake = Genus(25, (TernaryForm(1, 1, 25, 0, 0, 0),), (5,))
    monkeypatch.setattr(verify, "tg1", lambda p: fake)
    with pytest.raises(ArithmeticError, match="does not divide 48"):
        verify_prop54(5, 20)
