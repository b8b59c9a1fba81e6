"""Reduction, equivalence, automorphs, and class enumeration."""

import hashlib
import random
from collections import Counter
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from threesquares import cli, forms
from threesquares.lattice import (
    TernaryForm,
    short_vectors,
    theta_series_ternary,
)
from threesquares.genera import genus_partition
from threesquares.forms import (
    _candidates,
    _icbrt,
    _scan_bound_b,
    apply_transform,
    automorph_count,
    automorphs,
    enumerate_classes,
    is_prime,
    legendre,
    mat_det,
    mat_mul,
    mat_transpose,
    reduce_form,
    reduce_form_with_transform,
)

from test_lattice import ref_ternary_points

I3 = TernaryForm(1, 1, 1, 0, 0, 0)

IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def mat_inverse_unimodular(u):
    """Inverse of an integer matrix with determinant +-1 (adjugate / det)."""
    det = mat_det(u)
    if det not in (1, -1):
        raise ValueError("matrix is not unimodular")
    # Cyclic index order makes the 2x2 determinant the signed cofactor.
    cof = tuple(
        tuple(
            u[(i + 1) % 3][(j + 1) % 3] * u[(i + 2) % 3][(j + 2) % 3]
            - u[(i + 1) % 3][(j + 2) % 3] * u[(i + 2) % 3][(j + 1) % 3]
            for i in range(3)
        )
        for j in range(3)
    )
    return tuple(tuple(det * cof[i][j] for j in range(3)) for i in range(3))


def equivalent_forms(f, g):
    """A unimodular U with U^T G_f U = G_g, or None when inequivalent."""
    if f.disc() != g.disc():
        return None
    cf, uf = reduce_form_with_transform(f)
    cg, ug = reduce_form_with_transform(g)
    if cf != cg:
        return None
    u = mat_mul(uf, mat_inverse_unimodular(ug))
    assert apply_transform(f, u) == g
    return u


def bilinear(form, u, v):
    """u^T G v for the doubled Gram G, i.e. Q(u+v) - Q(u) - Q(v)."""
    g = form.gram2()
    return sum(u[i] * g[i][j] * v[j] for i in range(3) for j in range(3))


def random_unimodular(rng, steps=6):
    """Random product of integer shears, swaps and sign flips."""
    u = [list(row) for row in IDENTITY]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(3), 2)
        if kind == 0:
            k = rng.randint(-2, 2)
            for r in range(3):
                u[r][i] += k * u[r][j]
        elif kind == 1:
            for r in range(3):
                u[r][i], u[r][j] = u[r][j], u[r][i]
        else:
            for r in range(3):
                u[r][i] = -u[r][i]
    m = tuple(tuple(row) for row in u)
    assert mat_det(m) in (1, -1)
    return m


def test_discriminant_values():
    assert I3.disc() == 4
    assert TernaryForm(1, 1, 3, 0, 0, 1).disc() == 9
    assert TernaryForm(4, 23, 24, 0, 4, 0).disc() == 8464


def test_discriminant_invariant_under_transforms():
    rng = random.Random(7)
    for form in (I3, TernaryForm(2, 2, 2, -1, 1, 1), TernaryForm(3, 8, 8, -7, 2, 2)):
        for _ in range(20):
            u = random_unimodular(rng)
            assert apply_transform(form, u).disc() == form.disc()


def test_theta_invariant_under_transforms():
    rng = random.Random(11)
    for form in (TernaryForm(1, 1, 3, 0, 0, 1), TernaryForm(4, 23, 24, 0, 4, 0)):
        base = theta_series_ternary(form, 200)
        for _ in range(20):
            moved = apply_transform(form, random_unimodular(rng))
            assert theta_series_ternary(moved, 200) == base


def test_automorph_counts_printed_values():
    assert automorph_count(I3) == 48
    assert automorph_count(TernaryForm(1, 1, 3, 0, 0, 1)) == 24
    assert automorph_count(TernaryForm(1, 6, 23, 0, 0, 1)) == 8
    assert automorph_count(TernaryForm(2, 3, 23, 0, 0, 1)) == 4
    assert automorph_count(TernaryForm(3, 8, 8, -7, 2, 2)) == 12
    assert automorph_count(TernaryForm(3, 31, 31, -30, 2, 2)) == 12
    assert automorph_count(TernaryForm(4, 23, 24, 0, 4, 0)) == 8
    assert automorph_count(TernaryForm(8, 23, 12, 0, 4, 0)) == 4
    assert automorph_count(TernaryForm(3, 5, 6, 1, 2, 3)) == 4
    assert automorph_count(TernaryForm(3, 6, 6, -5, 2, 2)) == 12
    assert automorph_count(TernaryForm(7, 11, 20, -8, 4, 6)) == 4
    assert automorph_count(TernaryForm(3, 23, 23, -22, 2, 2)) == 12


def test_automorphs_form_a_group():
    form = TernaryForm(1, 1, 3, 0, 0, 1)
    group = automorphs(form)
    members = set(group)
    assert IDENTITY in members
    assert tuple(tuple(-x for x in row) for row in IDENTITY) in members
    assert len(group) % 2 == 0
    for u in group[:6]:
        assert mat_inverse_unimodular(u) in members
        for v in group[:6]:
            assert mat_mul(u, v) in members


def test_reduce_is_class_invariant():
    rng = random.Random(23)
    for form in (I3, TernaryForm(2, 2, 2, -1, 1, 1), TernaryForm(4, 23, 24, 0, 4, 0)):
        canonical = reduce_form(form)
        for _ in range(10):
            moved = apply_transform(form, random_unimodular(rng))
            assert reduce_form(moved) == canonical


def test_reduce_transform_witnesses_reduction():
    form = TernaryForm(3, 31, 31, -30, 2, 2)
    reduced, u = reduce_form_with_transform(form)
    assert apply_transform(form, u) == reduced


def test_equivalent_returns_identity_like_witness():
    form = TernaryForm(2, 3, 23, 0, 0, 1)
    u = equivalent_forms(form, form)
    assert u is not None and apply_transform(form, u) == form
    # A permuted copy is equivalent through the permutation.
    permuted = TernaryForm(3, 2, 23, 0, 0, 1)
    u = equivalent_forms(form, permuted)
    assert u is not None and apply_transform(form, u) == permuted


def test_printed_distinct_classes_are_inequivalent():
    assert (
        equivalent_forms(
            TernaryForm(1, 6, 23, 0, 0, 1), TernaryForm(2, 3, 23, 0, 0, 1)
        )
        is None
    )


def test_class_numbers_one():
    for disc, printed in ((9, (1, 1, 3, 0, 0, 1)), (25, (2, 2, 2, -1, 1, 1))):
        classes = enumerate_classes(disc)
        assert len(classes) == 1
        assert equivalent_forms(classes[0], TernaryForm(*printed)) is not None


def test_disc_529_has_the_three_printed_classes():
    classes = enumerate_classes(529)
    assert len(classes) == 3
    for printed in ((1, 6, 23, 0, 0, 1), (2, 3, 23, 0, 0, 1), (3, 8, 8, -7, 2, 2)):
        assert any(
            equivalent_forms(TernaryForm(*printed), g) is not None
            for g in classes
        )


def test_enumerate_classes_is_deterministic_and_canonical():
    classes = enumerate_classes(289)
    assert [f.as_tuple() for f in classes] == sorted(f.as_tuple() for f in classes)
    assert all(reduce_form(f) == f for f in classes)


def test_legendre_symbol():
    assert legendre(1, 7) == 1
    assert legendre(-1, 5) == 1
    assert legendre(-1, 3) == -1
    assert legendre(10, 5) == 0
    # Euler criterion oracle on a full residue system.
    for p in (3, 5, 7, 11, 13):
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in squares else -1)
    with pytest.raises(ValueError):
        legendre(3, 2)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]


def ref_is_prime(n):
    """Trial division, the primality test Miller-Rabin replaced."""
    if n < 2:
        return False
    return all(n % i for i in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division_below_10_5():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if ref_is_prime(n)
    ]


@pytest.mark.parametrize(
    "n, factor",
    [
        (3215031751, 151),  # strong pseudoprime to bases 2, 3, 5, 7
        (3825123056546413051, 149491),  # ... to the first 11 prime bases
        (318665857834031151167461, 399165290221),  # ... to the first 12
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n, factor):
    assert n % factor == 0 and not is_prime(n)


def test_is_prime_is_fast_and_refuses_past_its_proof():
    # Trial division would run for hours on a 61-bit prime.
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)
    # psi_13 itself passes all 13 bases, so the proof stops short of it.
    psi13 = forms._PRIME_PROVEN
    assert psi13 % 1287836182261 == 0
    assert not is_prime(psi13 - 1)
    with pytest.raises(ValueError, match="not proven"):
        is_prime(psi13)


# -- scalar reference: the loop code the numpy scan and search replaced ------


def ref_short_vectors(form, bound):
    return [
        ((x, y, z), val)
        for x, y, z, val in ref_ternary_points(form, bound)
        if (x, y, z) != (0, 0, 0)
    ]


def ref_eisenstein(t):
    """Eisenstein's reduction conditions, one if-statement each."""
    a, b, c, d, e, f = t
    if not (0 < a <= b <= c and abs(f) <= a and abs(e) <= a and abs(d) <= b):
        return False
    positive = d > 0 and e > 0 and f > 0
    if not positive and not (d <= 0 and e <= 0 and f <= 0):
        return False
    if a + b + d + e + f < 0:
        return False
    if a == b and abs(d) > abs(e):
        return False
    if b == c and abs(e) > abs(f):
        return False
    if a + b + d + e + f == 0 and 2 * a + 2 * e + f > 0:
        return False
    if positive:
        if a == f and e > 2 * d:
            return False
        if a == e and f > 2 * d:
            return False
        if b == d and f > 2 * e:
            return False
    else:
        if a == -f and e != 0:
            return False
        if a == -e and f != 0:
            return False
        if b == -d and f != 0:
            return False
    return True


def ref_candidates(disc):
    candidates = set()
    for a in range(1, _icbrt(disc // 2) + 1):
        for b in range(a, _scan_bound_b(disc, a) + 1):
            for f in range(0, a + 1):
                den = 4 * a * b - f * f
                for e in range(0, a + 1):
                    base = disc + b * e * e
                    for dd in range(0, b + 1):
                        # The octant d, e, f > 0, then d, e, f <= 0.
                        for sg in ((1, -1) if dd and e and f else (-1,)):
                            num = base - sg * dd * e * f + a * dd * dd
                            cc, rem = divmod(num, den)
                            t = (a, b, cc, sg * dd, sg * e, sg * f)
                            if rem == 0 and gcd(*t) == 1 and ref_eisenstein(t):
                                candidates.add(t)
    return candidates


def _ref_parallel(u, v):
    return (
        u[0] * v[1] == u[1] * v[0]
        and u[0] * v[2] == u[2] * v[0]
        and u[1] * v[2] == u[2] * v[1]
    )


def _ref_minima(form):
    d = form.disc()
    lam1 = min(v for _, v in ref_short_vectors(form, _icbrt(d // 2) + 1))
    vecs = ref_short_vectors(form, max(isqrt(d // lam1), 2 * lam1) + 1)
    vecs.sort(key=lambda p: p[1])
    first = next(v for v, val in vecs if val == lam1)
    lam2 = next(val for v, val in vecs if not _ref_parallel(v, first))
    return lam1, lam2


def ref_reduce_search(form, lam1, lam2, bound):
    # bilinear(form, u, v) with u^T G taken once per vector: same values.
    g = form.gram2()

    def row(u):
        return tuple(sum(u[i] * g[i][j] for i in range(3)) for j in range(3))

    by_value = {}
    for v, val in ref_short_vectors(form, bound):
        by_value.setdefault(val, []).append(v)
    pairs = []
    for v1 in by_value[lam1]:
        r1 = row(v1)
        for v2 in by_value[lam2]:
            fcoef = r1[0] * v2[0] + r1[1] * v2[1] + r1[2] * v2[2]
            if abs(fcoef) <= lam1:
                pairs.append((v1, v2, r1, row(v2), fcoef))
    best = None
    best_basis = None
    tails = set()
    feasible = False
    for cval in sorted(v for v in by_value if v >= lam2):
        for v1, v2, (a0, a1, a2), (b0, b1, b2), fcoef in pairs:
            for v3 in by_value[cval]:
                x, y, z = v3
                ecoef = a0 * x + a1 * y + a2 * z
                if abs(ecoef) > lam1:
                    continue
                dcoef = b0 * x + b1 * y + b2 * z
                if abs(dcoef) > lam2:
                    continue
                if mat_det(mat_transpose((v1, v2, v3))) not in (1, -1):
                    continue
                key = (lam1, lam2, cval, dcoef, ecoef, fcoef)
                if ref_eisenstein(key):
                    tails.add(key)
                    if best is None:
                        best = key
                        best_basis = (v1, v2, v3)
                feasible = True
        if feasible:
            assert tails == {best}, (form, tails)
            return best, best_basis
    return None


def ref_reduce_with_transform(form):
    d = form.disc()
    lam1, lam2 = _ref_minima(form)
    hard_bound = d // (3 * lam1 * lam2) + lam2 + 1
    bound = min(hard_bound, max(lam2 + 1, 2 * _icbrt(d)))
    while True:
        found = ref_reduce_search(form, lam1, lam2, bound)
        if found is not None:
            best, basis = found
            return TernaryForm(*best), mat_transpose(basis)
        bound = min(2 * bound, hard_bound)


def test_short_vectors_rows_follow_the_point_order():
    for form in (I3, TernaryForm(3, 8, 8, -7, 2, 2), TernaryForm(7, 11, 20, -8, 4, 6)):
        for bound in (-1, 0, 1, 30, 200):
            rows = short_vectors(form, bound)
            assert rows.shape == (len(rows), 4)
            assert [((x, y, z), v) for x, y, z, v in rows.tolist()] == (
                ref_short_vectors(form, bound)
            )


@pytest.mark.parametrize(
    "discs",
    [range(1, 301), range(301, 601), (4624,), (16 * 23 * 23,)],
    ids=["1-300", "301-600", "4624", "8464"],
)
def test_array_scan_and_search_match_the_loop_code(discs):
    # Each class is reduced from a random unimodular image of its
    # Eisenstein form, and must come back to that form.
    rng = random.Random(discs[0])
    for disc in discs:
        candidates = ref_candidates(disc)
        assert _candidates(disc) == candidates, disc
        for t in candidates:
            form = apply_transform(TernaryForm(*t), random_unimodular(rng, steps=3))
            reduced = reduce_form_with_transform(form)
            assert reduced == ref_reduce_with_transform(form), (t, form)
            assert reduced[0].as_tuple() == t, (t, form)


def test_int64_certificates_fail_at_once():
    with pytest.raises(ValueError, match="int64"):
        enumerate_classes(2**62)
    with pytest.raises(ValueError, match="int64"):
        short_vectors(I3, 2**62)


@pytest.mark.parametrize(
    "block, narrow",
    [(1, forms._SCAN_NARROW), (37, forms._SCAN_NARROW), (forms._SCAN_BLOCK, 0)],
    ids=["block-1", "block-37", "int64-float64"],
)
def test_scan_blocks_and_dtype_tiers_match_the_loop_code(monkeypatch, block, narrow):
    monkeypatch.setattr(forms, "_SCAN_BLOCK", block)
    monkeypatch.setattr(forms, "_SCAN_NARROW", narrow)
    for disc in (*range(1, 301), 5329):
        assert _candidates(disc) == ref_candidates(disc), disc


@settings(max_examples=15, deadline=None)
@given(st.integers(601, 3000))
def test_scan_matches_the_loop_code_at_mid_range(disc):
    assert _candidates(disc) == ref_candidates(disc)


def test_scan_rows_stop_where_c_can_no_longer_reach_b():
    # With |e|, |f| <= a and |d| <= b, c >= b needs D >= 3ab(b - a).  At
    # D = 32 that cut, b <= 3 for a = 1, is reached below Gauss's b <= 4.
    assert (1, 3, 3, -1, 0, -1) in _candidates(32)
    assert _scan_bound_b(32, 1) == 4
    for disc in (4624, 8464):
        assert _candidates(disc) == ref_candidates(disc), disc


def test_every_scan_the_cli_admits_runs_on_int32_float32():
    # The certificate of _candidates: num and den stay below worst, which
    # grows with the discriminant.
    disc = cli.CLASS_SCAN_MAX_DISC
    amax, bmax = _icbrt(disc // 2), _scan_bound_b(disc, 1)
    worst = disc + amax * bmax * (2 * amax + bmax + 4)
    assert worst < forms._SCAN_NARROW == 2**24
    with pytest.raises(ValueError, match=r"\(worst intermediate \d+ >= 2\^53\)"):
        enumerate_classes(2**62)


def test_each_short_vector_array_is_certified_once(monkeypatch):
    calls = {"short_vectors": 0, "_certify": 0}

    def counted(name):
        inner = getattr(forms, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(forms, name, counted(name))
    for t in sorted(_candidates(4624)):
        reduce_form(TernaryForm(*t))
    assert calls["_certify"] == calls["short_vectors"] > 0

# -- Gauss's bound: the narrowed scan keeps a form of every class -----------


def wide_scan_bound_b(disc, a):
    """The scan bound before Gauss's: a <= b/2 forces a*b^2 <= D, else b < 2a."""
    return max(isqrt(disc // a), 2 * a)


@pytest.mark.parametrize(
    "discs", [range(1, 601), (4624, 8464, 16 * 73 * 73)], ids=["1-600", "large"]
)
def test_gauss_bounded_scan_drops_no_class(monkeypatch, discs):
    # The wider scan finds no Eisenstein form past Gauss's bound.
    for disc in discs:
        narrow = _candidates(disc)
        with monkeypatch.context() as m:
            m.setattr(forms, "_scan_bound_b", wide_scan_bound_b)
            assert _candidates(disc) == narrow, disc


AUT_DISCS = (*range(1, 301), 4624, 8464, 16 * 73 * 73)


def test_every_class_meets_gauss_bound():
    for disc in AUT_DISCS:
        for form in enumerate_classes(disc):
            assert 2 * form.a * form.b * form.c <= disc, form


def test_gauss_bound_is_attained_at_disc_2():
    (form,) = enumerate_classes(2)
    assert form.as_tuple() == (1, 1, 1, 1, 1, 1)
    assert 2 * form.a * form.b * form.c == form.disc() == 2


# -- one Eisenstein form per class: counts of the reduce-every-candidate code -


# len(enumerate_classes(D)) for D = 1..2000, joined by commas, as the
# enumeration gave it when it reduced every scan candidate and merged the
# results into classes.
CLASS_COUNTS_SHA256 = "dbfb3686d0c9abfb6be3288ae035a5ab5ceb293ac5131f589d1adbb92f29f13c"

# Per genus of 274576 = 16*131^2, sorted: its size and the pairs
# (automorph count, members with it), from the same enumeration.
GENERA_274576 = [
    (11, ((2, 1), (4, 8), (8, 1), (12, 1))),
    (13, ((2, 4), (4, 8), (8, 1))), (13, ((2, 4), (4, 8), (8, 1))),
    (13, ((2, 4), (4, 8), (16, 1))), (13, ((2, 4), (4, 8), (16, 1))),
    (24, ((2, 9), (4, 14), (8, 1))), (35, ((2, 10), (4, 22), (8, 2), (12, 1))),
    (73, ((2, 57), (4, 16))),
    (1106, ((2, 1024), (4, 80), (8, 1), (16, 1))),
    (1106, ((2, 1024), (4, 80), (8, 1), (16, 1))),
    (1122, ((2, 1040), (4, 81), (8, 1))), (1122, ((2, 1040), (4, 81), (8, 1))),
]


def test_class_counts_match_the_reduce_every_candidate_enumeration():
    counts = [len(enumerate_classes(disc)) for disc in range(1, 2001)]
    digest = hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest()
    assert (sum(counts[:400]), sum(counts[400:]), digest) == (
        6852, 125461, CLASS_COUNTS_SHA256
    ), "expected 6852 classes for D <= 400 and 125461 for 401..2000"


def test_large_discriminants_keep_their_classes_genera_and_automorphs():
    genera = genus_partition(16 * 73 * 73)
    assert (sum(len(g.members) for g in genera), len(genera)) == (1522, 12)
    genera = genus_partition(16 * 131 * 131)
    assert sum(len(g.members) for g in genera) == 4651
    found = [
        (len(g.members), tuple(sorted(Counter(g.aut_counts).items())))
        for g in genera
    ]
    assert sorted(found) == GENERA_274576


def test_the_enumeration_does_no_basis_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerate_classes searched a basis")

    monkeypatch.setattr(forms, "short_vectors", refuse)
    monkeypatch.setattr(forms, "reduce_form_with_transform", refuse)
    assert len(enumerate_classes(16 * 73 * 73)) == 1522


# -- automorphs: the loop code the array filter replaced --------------------


def ref_automorphs(form):
    a, b, c, d, e, f = form.as_tuple()
    by_value = {}
    for v, val in ref_short_vectors(form, max(a, b, c)):
        by_value.setdefault(val, []).append(v)
    result = []
    for v1 in by_value.get(a, ()):
        for v2 in by_value.get(b, ()):
            if bilinear(form, v1, v2) != f:
                continue
            for v3 in by_value.get(c, ()):
                if bilinear(form, v1, v3) != e:
                    continue
                if bilinear(form, v2, v3) != d:
                    continue
                result.append(mat_transpose((v1, v2, v3)))
    return result


def test_array_automorphs_match_the_loop_code():
    for disc in AUT_DISCS:
        for form in enumerate_classes(disc):
            assert automorphs(form) == ref_automorphs(form), form


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((9, 25, 52, 96, 108, 289, 529, 4624)),
    st.integers(0, 2**32),
    st.integers(0, 2**32),
)
def test_automorphs_of_unimodular_images_match_the_loop_code(disc, pick, seed):
    classes = enumerate_classes(disc)
    form = classes[pick % len(classes)]
    moved = apply_transform(form, random_unimodular(random.Random(seed), steps=4))
    group = automorphs(moved)
    assert group == ref_automorphs(moved)
    assert len(group) == automorph_count(form)


def test_icbrt_is_exact_integer_work():
    for n in (*range(2000), 2**62, 10**400, 10**400 - 1, 27**90, 27**90 - 1):
        r = _icbrt(n)
        assert r**3 <= n < (r + 1) ** 3, n
