"""Genus partitioning, the two distinguished genera, and the bijection."""

import json
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from threesquares import genera
from threesquares.lattice import TernaryForm, theta_series_ternary
from threesquares.forms import enumerate_classes, reduce_form
from threesquares.genera import (
    Genus,
    HResult,
    find_h,
    find_h_between,
    genus_partition,
    genus_symbol,
    overlattice,
    require_odd_prime,
    tg1,
    tg2,
)

from pairing_search import Search, search_h

TG1_23 = [(1, 6, 23, 0, 0, 1), (2, 3, 23, 0, 0, 1), (3, 8, 8, -7, 2, 2)]
TG2_23 = [(4, 23, 24, 0, 4, 0), (8, 23, 12, 0, 4, 0), (3, 31, 31, -30, 2, 2)]
TG1_17 = [(3, 5, 6, 1, 2, 3), (3, 6, 6, -5, 2, 2)]
TG2_17 = [(7, 11, 20, -8, 4, 6), (3, 23, 23, -22, 2, 2)]


def same_genus(f, g):
    """Whether two forms of one discriminant share a genus symbol."""
    if f.disc() != g.disc():
        raise ValueError("genus comparison requires equal discriminants")
    return genus_symbol(f) == genus_symbol(g)


# -- tg2 by search: the code the overlattice construction replaced ----------


def ref_genus_of(form):
    canonical = reduce_form(form)
    key = canonical.as_tuple()
    for genus in genus_partition(canonical.disc()):
        if any(m.as_tuple() == key for m in genus.members):
            return genus
    raise RuntimeError(f"form {form} missing from its own discriminant")


@dataclass(frozen=True)
class BinaryClass:
    """Reduced binary form a*x^2 + b*xz + c*z^2 with b^2 - 4ac = -p."""

    a: int
    b: int
    c: int

    def disc(self):
        return self.b * self.b - 4 * self.a * self.c

    def as_tuple(self):
        return (self.a, self.b, self.c)


def ref_binary_classes(p):
    """All reduced binary classes of discriminant -p (p = 3 mod 4)."""
    require_odd_prime(p)
    if p % 4 != 3:
        raise ValueError("discriminant -p requires p ≡ 3 mod 4")
    out = []
    b = 1
    while b * b <= p // 3 + 1:
        if (b * b + p) % 4 == 0:
            m = (b * b + p) // 4
            a = b
            while a * a <= m:
                if a >= b and m % a == 0:
                    c = m // a
                    if abs(b) <= a <= c:
                        out.append(BinaryClass(a, b, c))
                        if b < a < c:
                            out.append(BinaryClass(a, -b, c))
                a += 1
        b += 2
    return tuple(sorted(out, key=lambda f: (f.a, -f.b, f.c)))


def ref_lift_binary_to_ternary(bform, p):
    """4a x^2 + p y^2 + 4c z^2 + 4|b| xz; checked to have discriminant 16p^2."""
    if bform.disc() != -p:
        raise ValueError(f"binary discriminant {bform.disc()} is not -{p}")
    if p % 4 != 3:
        raise ValueError("lift requires p ≡ 3 mod 4")
    lifted = TernaryForm(4 * bform.a, p, 4 * bform.c, 0, 4 * abs(bform.b), 0)
    if lifted.disc() != 16 * p * p:
        raise RuntimeError(f"lift of {bform} has discriminant {lifted.disc()}")
    return lifted


def ref_tg2_seed(p):
    if p % 4 == 3:
        return ref_lift_binary_to_ternary(BinaryClass(1, 1, (p + 1) // 4), p)
    if p % 3 == 2:
        big = (4 * p + 1) // 3
        return TernaryForm(3, big, big, (2 - 4 * p) // 3, 2, 2)
    if p % 8 == 5:
        return TernaryForm(8, (p + 1) // 2, p + 2, 2, 8, 4)
    return None


def ref_vanishes_mod4(form, bound=200):
    theta = theta_series_ternary(form, bound).array
    return not (theta[1::4].any() or theta[2::4].any())


def ref_tg2(p):
    """The genus of the congruence seed, else the one genus of 16p^2 whose
    members vanish on n = 1, 2 mod 4 and pull back onto tg1(p)."""
    require_odd_prime(p)
    seed = ref_tg2_seed(p)
    if seed is not None:
        genus = ref_genus_of(seed)
        if genus.discriminant != 16 * p * p:
            raise RuntimeError("seed produced the wrong discriminant")
        return genus
    matches = []
    for genus in genus_partition(16 * p * p):
        if all(ref_vanishes_mod4(m) for m in genus.members):
            if search_h(genus, tg1(p), 500).status == "ok":
                matches.append(genus)
    if len(matches) != 1:
        raise RuntimeError(f"{len(matches)} genera of discriminant 16*{p}^2 qualify")
    return matches[0]


ODD_PRIMES_TO_47 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def genus_equals(genus, printed):
    if len(genus.members) != len(printed):
        return False
    members = {m.as_tuple() for m in genus.members}
    return all(reduce_form(TernaryForm(*t)).as_tuple() in members for t in printed)


def test_single_genus_at_prime_squares():
    for p in ODD_PRIMES_TO_47:
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
    assert [b.as_tuple() for b in ref_binary_classes(23)] == [
        (1, 1, 6),
        (2, 1, 3),
        (2, -1, 3),
    ]
    for b in ref_binary_classes(23):
        assert b.disc() == -23


def test_binary_lift_printed_examples():
    assert ref_lift_binary_to_ternary(BinaryClass(1, 1, 6), 23) == TernaryForm(
        4, 23, 24, 0, 4, 0
    )
    assert ref_lift_binary_to_ternary(BinaryClass(2, 1, 3), 23) == TernaryForm(
        8, 23, 12, 0, 4, 0
    )
    # The principal form lifts to 4x^2 + p y^2 + (p+1) z^2 + 4 zx.
    p = 11
    principal = BinaryClass(1, 1, (p + 1) // 4)
    assert ref_lift_binary_to_ternary(principal, p) == TernaryForm(
        4, p, p + 1, 0, 4, 0
    )


def test_binary_lift_validates_discriminant():
    with pytest.raises(ValueError):
        ref_lift_binary_to_ternary(BinaryClass(1, 1, 6), 11)
    lifted = ref_lift_binary_to_ternary(BinaryClass(1, 1, 3), 11)
    assert lifted.disc() == 16 * 121


def test_lift_lands_in_one_genus_regardless_of_choice():
    for p in (3, 7, 11, 19, 23, 31, 43, 47):
        genera = set()
        for b in ref_binary_classes(p):
            genus = ref_genus_of(ref_lift_binary_to_ternary(b, p))
            genera.add(tuple(m.as_tuple() for m in genus.members))
        assert len(genera) == 1
        assert genera == {tuple(m.as_tuple() for m in tg2(p).members)}


def test_tg2_seed_families_agree_where_they_overlap():
    # p = 5 sits in both the mod-3 and mod-8 families.
    a = ref_genus_of(TernaryForm(3, 7, 7, -6, 2, 2))
    b = ref_genus_of(TernaryForm(8, 3, 7, 2, 8, 4))
    assert a == b == tg2(5)


def test_built_tg2_equals_the_reference_search():
    for p in (*ODD_PRIMES_TO_47, 73):
        assert tg2(p) == ref_tg2(p), p


def test_every_seed_lands_in_the_built_tg2():
    seedless = []
    for p in range(3, 150, 2):
        if genera.is_prime(p):
            seed = ref_tg2_seed(p)
            if seed is None:
                seedless.append(p)
            else:
                assert reduce_form(seed) in tg2(p).members, p
    assert seedless == [73, 97]


def test_overlattice_takes_x_with_several_ones():
    # x = (1, 1, 1) for the one class of discriminant 25 and x = (1, 0, 1)
    # for a class of 289: the basis keeps x in one column and 2e_j in
    # both others, so the index is 4 and the discriminant 16 p^2.
    for form, p in (
        (TernaryForm(2, 2, 2, -1, -1, -1), 5),
        (TernaryForm(3, 5, 6, -1, -2, 3), 17),
    ):
        built = overlattice(form)
        assert built.disc() == 16 * p * p
        assert built in tg2(p).members


def test_tg2_never_classifies_discriminant_16p2(monkeypatch):
    calls = []
    real = genera.genus_partition

    def recording(disc):
        calls.append(disc)
        return real(disc)

    monkeypatch.setattr(genera, "genus_partition", recording)
    primes = (3, 5, 17, 23, 73, 97)
    for p in primes:
        tg2(p)
    assert calls == [p * p for p in primes]


def test_eichler_mass_of_both_genera():
    # sum 1/|Aut| = (p - 1)/48; tg1 and tg2 check it themselves.
    for p in range(3, 150, 2):
        if genera.is_prime(p):
            assert sum(tg1(p).weights48()) == sum(tg2(p).weights48()) == p - 1


def test_a_dropped_class_breaks_the_eichler_mass(monkeypatch):
    full = tg1(23)
    short = Genus(529, full.members[1:], full.aut_counts[1:])
    missing = 48 // full.aut_counts[0]
    monkeypatch.setattr(genera, "genus_partition", lambda disc: (short,))
    with pytest.raises(
        RuntimeError,
        match=rf"^tg1\(23\) has Eichler mass {22 - missing}/48, "
        rf"expected 22/48: {missing}/48 missing$",
    ):
        tg1(23)
    monkeypatch.setattr(genera, "tg1", lambda p: short)
    with pytest.raises(RuntimeError, match=rf"^tg2\(23\) .*: {missing}/48 missing$"):
        tg2(23)


def test_a_form_outside_tg1_is_refused(monkeypatch):
    with pytest.raises(RuntimeError, match="has 7 nonzero vectors"):
        overlattice(TernaryForm(1, 1, 1, 0, 0, 0))
    with pytest.raises(RuntimeError, match=r"Q\(1, 1, 1\) = 6, not 3 mod 4"):
        overlattice(TernaryForm(1, 1, 1, 1, 1, 1))
    # tg2 refuses rather than return a genus built from foreign members.
    real = tg1(23)
    foreign = (
        (real.members[:2] + (TernaryForm(1, 1, 1, 1, 1, 1),), "not 3 mod 4"),
        (real.members[:2] + real.members[:1], "not distinct classes"),
        (tg1(17).members + real.members[:1], "of discriminant 8464"),
    )
    for members, message in foreign:
        genus = Genus(529, members, real.aut_counts)
        monkeypatch.setattr(genera, "tg1", lambda p: genus)
        with pytest.raises(RuntimeError, match=message):
            tg2(23)


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
    real_reduce = reduce_form

    def counting_reduce(f):
        calls.append(f)
        return real_reduce(f)

    expected = tg2(17)
    monkeypatch.setitem(globals(), "reduce_form", counting_reduce)
    assert ref_genus_of(form) == expected
    assert calls == [form]


def test_matching_search_stops_at_the_second_match():
    # Eight interchangeable members admit 8! = 40320 matchings; the size
    # of their one key group already decides that the pairing is ambiguous.
    i3 = TernaryForm(1, 1, 1, 0, 0, 0)
    g = Genus(4, (i3,) * 8, (48,) * 8)
    result = search_h(g, g, 20)
    assert result.status == "ambiguous"
    assert "40320" not in result.detail


def test_two_members_with_one_partner_have_no_complete_matching():
    # Both src members pair only with dst's first member: each has a
    # partner, yet no bijection exists.
    i3, other = TernaryForm(1, 1, 1, 0, 0, 0), TernaryForm(1, 1, 4, 0, 0, 0)
    src = Genus(4, (i3, i3), (48, 48))
    dst = Genus(4, (i3, other), (48, 16))
    assert search_h(src, dst, 20) == Search("none", (), "no complete matching")


# -- the recorded pairing: tg2 builds it, find_h_between checks it -----------


def test_tg2_records_the_overlattice_of_each_source():
    for p in (*ODD_PRIMES_TO_47, 73):
        genus1, genus2 = tg1(p), tg2(p)
        key = TernaryForm.as_tuple
        assert sorted(genus2.sources, key=key) == sorted(genus1.members, key=key)
        assert all(overlattice(g) == f for f, g in zip(genus2.members, genus2.sources))
        # The sources are no part of the genus's value or of its JSON.
        assert genus2 == replace(genus2, sources=())
        assert "sources" not in genus2.to_json_dict()


@pytest.mark.parametrize("p, max_n", [(29, 1), (29, 0), (41, 10), (97, 20)])
def test_a_shallow_depth_checks_the_built_pairing(p, max_n):
    # Depths at which the search cannot tell the classes apart: the
    # pairing tg2 built still passes its check, and it is the only pairing
    # the search finds once it can tell them apart.
    assert search_h(tg2(p), tg1(p), max_n).status == "ambiguous"
    result = find_h(p, max_n)
    assert result == HResult("ok", tuple(zip(tg2(p).members, tg2(p).sources)))
    assert result.mapping == search_h(tg2(p), tg1(p), 200).mapping


def test_a_pairing_that_is_not_a_bijection_onto_dst_fails():
    genus1, genus2 = tg1(23), tg2(23)
    s0, s1, s2 = genus2.sources
    # A genus of genus_partition records nothing; then a short list, a
    # repeated source and a source from another genus.
    for sources in ((), (s0, s1), (s0, s0, s2), (s0, s1, tg1(17).members[0])):
        broken = replace(genus2, sources=sources)
        assert find_h_between(broken, genus1, 20) == HResult(
            "fail", (), "the recorded sources are not dst's members"
        )
    # Sources with another automorph count fail before any theta.
    moved = replace(genus2, aut_counts=(1,) + genus2.aut_counts[1:])
    f, g = genus2.members[0], genus2.sources[0]
    aut = dict(zip(genus1.members, genus1.aut_counts))[g]
    assert find_h_between(moved, genus1, 20) == HResult(
        "fail", (), f"{f} -> {g}: automorphs 1 != {aut}"
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
