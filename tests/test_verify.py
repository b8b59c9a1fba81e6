"""Verification engines at reduced depth (full depths live in acceptance)."""

import pytest

from threesquares import verify
from threesquares.forms import reduce_form
from threesquares.lattice import TernaryForm
from threesquares.qseries import QSeries
from threesquares.verify import (
    run_catalog,
    verify_hs,
    verify_jagy,
    verify_prop54,
    verify_signature,
    verify_theorems,
)


def canon(t):
    return reduce_form(TernaryForm(*t)).as_tuple()


def test_hs_small_all_routes():
    for p in (3, 5):
        report = verify_hs(p, 300, chain_order=300)
        assert report.status == "pass"
        assert report.first_fail is None
        assert report.chain_order == 300
        assert report.chain_reports
        assert all(r.status == "pass" for r in report.chain_reports)


def test_hs_brute_only_for_larger_primes():
    report = verify_hs(7, 300)
    assert report.status == "pass"
    assert report.chain_reports == ()


def test_hs_rejects_bad_p():
    with pytest.raises(ValueError):
        verify_hs(2, 10)
    with pytest.raises(ValueError):
        verify_hs(15, 10)


def test_theorems_small():
    reports = verify_theorems(400)
    assert [r.status for r in reports] == ["pass"] * 4
    assert {r.id for r in reports} == {"T1.1", "T1.2", "T5.2", "T5.3"}


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


def test_jagy_small():
    report = verify_jagy(13, 400)
    assert report.status == "pass"
    assert report.failures == ()


def test_prop54_conjecture_level_primes():
    # Beyond the proved range: any failure here is a hard suite failure
    # pending investigation, never suppressed.
    for p in (29, 31, 37):
        report = verify_prop54(p, 500)
        assert report.status == "pass", (p, report.first_fail)


def test_sifting_chain_routes_agree():
    # The dissection steps applied to the cube of the theta sum must
    # agree with the same steps applied to the enumerated count series.
    from threesquares import qseries as qs
    from threesquares.lattice import theta_series_ternary

    order = 200
    outer = 25 * order
    qseries_route = qs.phi(outer).pow(3)
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
    # The first prime outside the three seed congruence families is
    # selected by the signature search and still pairs off uniquely.
    from threesquares.genera import find_h, tg1, tg2

    genus = tg2(73)
    assert genus.discriminant == 16 * 73 * 73
    assert len(genus.members) == len(tg1(73).members)
    assert find_h(73, 200).status == "ok"


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


# -- failure paths: one perturbed coefficient, one exact first failure --------

G, H = (1, 1, 3, 0, 0, 1), (2, 2, 2, -1, 1, 1)
G2, H2 = (4, 3, 4, 0, 4, 0), (8, 3, 7, 2, 8, 4)


def bump_s(monkeypatch, bumps):
    """Make verify.s_table add bumps[i] to s(i) in every table it builds."""
    real = verify.s_table

    def s_table(n_max):
        table = real(n_max).copy()
        for i, delta in bumps.items():
            table[i] += delta
        return table

    monkeypatch.setattr(verify, "s_table", s_table)


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
        (3, {0: 1}, None),
        (7, {0: 5}, None),
    ],
)
def test_hs_reports_the_first_perturbed_n(monkeypatch, p, bumps, first_fail):
    bump_s(monkeypatch, bumps)
    report = verify_hs(p, 100, chain_order=60)
    assert report.first_fail == first_fail
    assert report.status == ("pass" if first_fail is None else "fail")
    if first_fail is not None:
        assert report.chain_reports == () and report.chain_order is None


@pytest.mark.parametrize(
    "s_bumps, theta_bumps, fails",
    [
        # n = 8 is 0 mod 4: outside the parity-restricted statements.
        ({8: 1}, {}, {"T5.2": 8, "T5.3": 8}),
        ({45: 1}, {}, {"T1.1": 45, "T1.2": 5, "T5.2": 5, "T5.3": 45}),
        ({}, {(G, 5): 1}, {"T1.2": 5, "T5.2": 5}),
        ({}, {(H, 6): 1}, {"T1.1": 6, "T5.3": 6}),
        ({}, {(G2, 3): 1}, {"T5.2": 3}),
        ({}, {(H2, 7): 1}, {"T5.3": 7}),
        ({}, {(G2, 12): 1, (H2, 4): 1}, {"T5.2": 12, "T5.3": 4}),
        # n = 0 is never checked: at n = 0 T1.1 reads 1 - 5 != 4.
        ({0: 1}, {}, {}),
        ({}, {(G, 0): 1, (H, 0): 2, (G2, 0): 3, (H2, 0): 1}, {}),
    ],
)
def test_theorems_report_the_first_perturbed_n(
    monkeypatch, s_bumps, theta_bumps, fails
):
    bump_s(monkeypatch, s_bumps)
    bump_theta(monkeypatch, theta_bumps)
    reports = {r.id: r for r in verify_theorems(100)}
    assert set(reports) == {"T1.1", "T1.2", "T5.2", "T5.3"}
    for tid, report in reports.items():
        assert report.first_fail == fails.get(tid), tid
        assert report.status == ("fail" if tid in fails else "pass"), tid


def test_prop54_reports_the_first_perturbed_n(monkeypatch):
    clean = verify_prop54(7, 100)
    (c1, f1), = clean.tg1_terms
    (c2, f2), = clean.tg2_terms
    cases = [
        ({49 * 12: 1}, {}, 12),
        ({}, {(f1, 30): 1}, 30),
        ({}, {(f2, 9): 1, (f1, 40): 1}, 9),
        # c1 * c2 - c2 * c1 = 0: the printed weights cancel exactly.
        ({}, {(f1, 20): c2, (f2, 20): c1}, None),
        ({0: 1}, {}, None),
        ({}, {(f1, 0): 1}, None),
        ({}, {(f2, 0): 1}, None),
    ]
    for s_bumps, theta_bumps, first_fail in cases:
        with monkeypatch.context() as m:
            bump_s(m, s_bumps)
            bump_theta(m, theta_bumps)
            report = verify_prop54(7, 100)
        assert report.first_fail == first_fail
        assert report.status == ("pass" if first_fail is None else "fail")
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
