"""Genus partitioning, the two distinguished genera, and the bijection."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from threesquares import genera
from threesquares.lattice import TernaryForm
from threesquares.forms import enumerate_classes, reduce_form
from threesquares.genera import (
    BinaryClass,
    Genus,
    binary_classes,
    find_h,
    find_h_between,
    genus_of,
    genus_partition,
    genus_symbol,
    lift_binary_to_ternary,
    same_genus,
    tg1,
    tg2,
)

TG1_23 = [(1, 6, 23, 0, 0, 1), (2, 3, 23, 0, 0, 1), (3, 8, 8, -7, 2, 2)]
TG2_23 = [(4, 23, 24, 0, 4, 0), (8, 23, 12, 0, 4, 0), (3, 31, 31, -30, 2, 2)]
TG1_17 = [(3, 5, 6, 1, 2, 3), (3, 6, 6, -5, 2, 2)]
TG2_17 = [(7, 11, 20, -8, 4, 6), (3, 23, 23, -22, 2, 2)]


def genus_equals(genus, printed):
    if len(genus.members) != len(printed):
        return False
    members = {m.as_tuple() for m in genus.members}
    return all(reduce_form(TernaryForm(*t)).as_tuple() in members for t in printed)


def test_single_genus_at_prime_squares():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        assert len(genus_partition(p * p)) == 1


def test_tg1_printed_members():
    assert genus_equals(tg1(17), TG1_17)
    assert genus_equals(tg1(23), TG1_23)
    g3 = tg1(3)
    assert genus_equals(g3, [(1, 1, 3, 0, 0, 1)])
    assert g3.aut_counts == (24,)
    assert g3.weights48() == (2,)


def test_tg2_printed_members():
    assert genus_equals(tg2(17), TG2_17)
    assert genus_equals(tg2(23), TG2_23)
    assert len(tg2(17).members) == len(tg1(17).members)
    assert len(tg2(23).members) == len(tg1(23).members)


def test_tg_aut_multisets():
    assert sorted(tg1(23).aut_counts) == [4, 8, 12]
    assert sorted(tg2(23).aut_counts) == [4, 8, 12]
    assert sorted(tg1(17).aut_counts) == [4, 12]
    assert sorted(tg2(17).aut_counts) == [4, 12]


def test_twelve_genera_at_4624():
    part = genus_partition(4624)
    assert len(part) == 12
    doubletons = [g for g in part if len(g.members) == 2]
    assert len(doubletons) == 3
    printed_doubletons = [
        TG2_17,
        [(3, 6, 68, 0, 0, 2), (10, 11, 14, 2, 4, 10)],
        [(5, 7, 34, 0, 0, 2), (6, 12, 17, 0, 0, 4)],
    ]
    for printed in printed_doubletons:
        assert any(genus_equals(g, printed) for g in doubletons)
    # The two non-distinguished doubletons have all automorph counts 4.
    for printed in printed_doubletons[1:]:
        g = next(g for g in doubletons if genus_equals(g, printed))
        assert g.aut_counts == (4, 4)


def test_twelve_genera_at_8464():
    assert len(genus_partition(8464)) == 12


def test_same_genus_requires_equal_discriminant():
    with pytest.raises(ValueError):
        same_genus(TernaryForm(1, 1, 1, 0, 0, 0), TernaryForm(1, 1, 3, 0, 0, 1))


def test_genus_refines_equivalence():
    f = TernaryForm(4, 23, 24, 0, 4, 0)
    assert same_genus(f, reduce_form(f))


def test_binary_classes_of_disc_23():
    assert [b.as_tuple() for b in binary_classes(23)] == [
        (1, 1, 6),
        (2, 1, 3),
        (2, -1, 3),
    ]
    for b in binary_classes(23):
        assert b.disc() == -23


def test_binary_lift_printed_examples():
    assert lift_binary_to_ternary(BinaryClass(1, 1, 6), 23) == TernaryForm(
        4, 23, 24, 0, 4, 0
    )
    assert lift_binary_to_ternary(BinaryClass(2, 1, 3), 23) == TernaryForm(
        8, 23, 12, 0, 4, 0
    )
    # The principal form lifts to 4x^2 + p y^2 + (p+1) z^2 + 4 zx.
    p = 11
    principal = BinaryClass(1, 1, (p + 1) // 4)
    assert lift_binary_to_ternary(principal, p) == TernaryForm(
        4, p, p + 1, 0, 4, 0
    )


def test_binary_lift_validates_discriminant():
    with pytest.raises(ValueError):
        lift_binary_to_ternary(BinaryClass(1, 1, 6), 11)
    lifted = lift_binary_to_ternary(BinaryClass(1, 1, 3), 11)
    assert lifted.disc() == 16 * 121


def test_lift_lands_in_one_genus_regardless_of_choice():
    for p in (3, 7, 11, 19, 23, 31, 43, 47):
        genera = set()
        for b in binary_classes(p):
            genus = genus_of(lift_binary_to_ternary(b, p))
            genera.add(tuple(m.as_tuple() for m in genus.members))
        assert len(genera) == 1


def test_tg2_seed_families_agree_where_they_overlap():
    # p = 5 sits in both the mod-3 and mod-8 families.
    a = genus_of(TernaryForm(3, 7, 7, -6, 2, 2))
    b = genus_of(TernaryForm(8, 3, 7, 2, 8, 4))
    assert a == b == tg2(5)


def test_tg2_rejects_even_or_composite():
    with pytest.raises(ValueError):
        tg2(2)
    with pytest.raises(ValueError):
        tg2(9)


def test_find_h_pairings():
    result = find_h(23, 300)
    assert result.status == "ok"
    mapping = {
        reduce_form(TernaryForm(*src)).as_tuple(): dst
        for src, dst in (
            ((3, 31, 31, -30, 2, 2), (3, 8, 8, -7, 2, 2)),
            ((4, 23, 24, 0, 4, 0), (1, 6, 23, 0, 0, 1)),
            ((8, 23, 12, 0, 4, 0), (2, 3, 23, 0, 0, 1)),
        )
    }
    for f, g in result.mapping:
        expected = mapping[f.as_tuple()]
        assert g == reduce_form(TernaryForm(*expected))

    result17 = find_h(17, 300)
    assert result17.status == "ok"
    lookup = {f.as_tuple(): g for f, g in result17.mapping}
    src = reduce_form(TernaryForm(7, 11, 20, -8, 4, 6))
    assert lookup[src.as_tuple()] == reduce_form(TernaryForm(3, 5, 6, 1, 2, 3))


def test_genus_json_shape():
    doc = tg1(23).to_json_dict()
    assert set(doc) == {"discriminant", "members", "autCounts", "weights48"}
    assert doc["discriminant"] == 529
    assert len(doc["members"]) == 3
    json.dumps(doc)  # serializable


def test_weights48_refuses_an_automorph_count_not_dividing_48():
    g = Genus(25, (TernaryForm(1, 1, 25, 0, 0, 0),), (5,))
    with pytest.raises(ArithmeticError, match="5 does not divide 48"):
        g.weights48()


def test_genus_of_reduces_its_form_once(monkeypatch):
    form = TernaryForm(7, 11, 20, -8, 4, 6)
    assert len(genus_partition(form.disc())) == 12
    calls = []

    def counting_reduce(f):
        calls.append(f)
        return reduce_form(f)

    monkeypatch.setattr(genera, "reduce_form", counting_reduce)
    assert genus_of(form) == tg2(17)
    assert calls == [form]


def test_matching_search_stops_at_the_second_match():
    # Eight interchangeable members admit 8! = 40320 matchings; the size
    # of their one key group already decides that the pairing is ambiguous.
    i3 = TernaryForm(1, 1, 1, 0, 0, 0)
    g = Genus(4, (i3,) * 8, (48,) * 8)
    result = find_h_between(g, g, 20)
    assert result.status == "ambiguous"
    assert "40320" not in result.detail


def test_two_members_with_one_partner_have_no_complete_matching():
    # Both src members pair only with dst's first member: each has a
    # partner, yet no bijection exists.
    i3, other = TernaryForm(1, 1, 1, 0, 0, 0), TernaryForm(1, 1, 4, 0, 0, 0)
    src = Genus(4, (i3, i3), (48, 48))
    dst = Genus(4, (i3, other), (48, 16))
    assert find_h_between(src, dst, 20) == genera.HResult(
        "none", (), "no complete matching"
    )


# -- Jordan splitting: the Fraction code the integer splitting replaced -----


def ref_val(x, p):
    if x == 0:
        return 10**9
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def ref_jordan_blocks(gram, p):
    n = len(gram)
    m = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    active = list(range(n))
    blocks = []
    while active:
        best = None
        for i in active:
            for j in active:
                v = ref_val(m[i][j], p)
                if best is None or v < best[0]:
                    best = (v, i, j)
        scale, bi, bj = best
        diag = [i for i in active if ref_val(m[i][i], p) == scale]
        if not diag and p != 2:
            i, j = bi, bj
            new_diag = m[i][i] + 2 * m[i][j] + m[j][j]
            new_row = [m[i][l] + m[j][l] for l in range(n)]
            for l in range(n):
                m[i][l] = new_row[l]
                m[l][i] = new_row[l]
            m[i][i] = new_diag
            diag = [i]
        if diag:
            i = diag[0]
            piv = m[i][i]
            for k in active:
                if k == i:
                    continue
                coef = m[k][i] / piv
                for l in active:
                    m[k][l] -= coef * m[i][l]
                for l in active:
                    m[l][k] = m[k][l]
            blocks.append(("one", scale, piv / Fraction(p) ** scale))
            active.remove(i)
        else:
            i, j = bi, bj
            bii, bij, bjj = m[i][i], m[i][j], m[j][j]
            det = bii * bjj - bij * bij
            for k in active:
                if k in (i, j):
                    continue
                alpha = (m[k][i] * bjj - m[k][j] * bij) / det
                beta = (m[k][j] * bii - m[k][i] * bij) / det
                for l in active:
                    m[k][l] -= alpha * m[i][l] + beta * m[j][l]
                for l in active:
                    m[l][k] = m[k][l]
            blocks.append(("two", scale, det / Fraction(p) ** (2 * scale)))
            active.remove(i)
            active.remove(j)
    return blocks


def as_fractions(blocks):
    """Integer-splitting blocks with each (num, den) unit as a Fraction."""
    return [(kind, scale, Fraction(*unit)) for kind, scale, unit in blocks]


def ref_genus_symbol(form, monkeypatch):
    """genus_symbol read from the Fraction splitting's blocks."""
    def ref_pairs(gram, p):
        return [
            (kind, scale, (u.numerator, u.denominator))
            for kind, scale, u in ref_jordan_blocks(gram, p)
        ]

    with monkeypatch.context() as m:
        m.setattr(genera, "_jordan_blocks", ref_pairs)
        return genus_symbol(form)


SPLIT_DISCS = (*range(1, 301), 4624, 8464, 16 * 73 * 73)


def test_integer_jordan_splitting_matches_the_fraction_code(monkeypatch):
    for disc in SPLIT_DISCS:
        primes = genera._prime_factors(2 * disc)
        for form in enumerate_classes(disc):
            gram = form.gram2()
            for p in primes:
                blocks = genera._jordan_blocks(gram, p)
                for _, _, (num, den) in blocks:
                    assert num % p and den % p, (form, p, blocks)
                assert as_fractions(blocks) == ref_jordan_blocks(gram, p), (form, p)
            assert genus_symbol(form) == ref_genus_symbol(form, monkeypatch), form


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-60, 60), min_size=6, max_size=6),
    st.sampled_from((2, 3, 5, 7)),
)
def test_integer_jordan_splitting_of_any_symmetric_matrix(entries, p):
    a, b, c, d, e, f = entries
    gram = ((a, f, e), (f, b, d), (e, d, c))
    det = a * (b * c - d * d) - f * (f * c - d * e) + e * (f * d - b * e)
    assume(det != 0)
    assert as_fractions(genera._jordan_blocks(gram, p)) == ref_jordan_blocks(gram, p)
