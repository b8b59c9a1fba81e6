"""Series arithmetic: frozen oracle values and algebraic properties."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from threesquares import qseries as qs
from threesquares.qseries import QSeries, TruncationMismatch


# -- independent oracles -----------------------------------------------------


def partitions_into(n, parts):
    """Count partitions of n into parts drawn from the given list."""
    ways = [1] + [0] * n
    for p in parts:
        for i in range(p, n + 1):
            ways[i] += ways[i - p]
    return ways[n]


def distinct_part_count(n, parts):
    """Count partitions of n into distinct parts from the list."""
    ways = [1] + [0] * n
    for p in parts:
        for i in range(n, p - 1, -1):
            ways[i] += ways[i - p]
    return ways[n]


def phi_series(trunc, k=1):
    """phi(q^k) = f(q^k, q^k)."""
    return qs.theta_f(k, k, trunc)


def psi_series(trunc, k=1):
    """psi(q^k) = f(q^k, q^3k)."""
    return qs.theta_f(k, 3 * k, trunc)


def euler_e(step, trunc):
    """Product of (1 - q^(step*j)) over j >= 1, expanded exactly."""
    return qs.prod_ap([(step, step, -1, 1)], trunc)


def theta_f_product(r, s, trunc):
    """f(q^r, q^s) as its Jacobi triple product."""
    return qs.prod_ap(
        [(r + s, r, 1, 1), (r + s, s, 1, 1), (r + s, r + s, -1, 1)], trunc
    )


def series(coeffs):
    return QSeries(len(coeffs) - 1, tuple(coeffs))


st_series = st.lists(st.integers(-40, 40), min_size=1, max_size=48).map(series)


def paired(draw_len=40):
    return st.lists(
        st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
        min_size=1,
        max_size=draw_len,
    ).map(lambda ps: (series([a for a, _ in ps]), series([b for _, b in ps])))


# -- constructors against oracles ---------------------------------------------


def test_phi_counts_signed_squares():
    phi = phi_series(30)
    for n in range(31):
        expected = sum(1 for k in range(-6, 7) if k * k == n)
        assert phi[n] == expected
    assert phi[1] == 2


def test_psi_counts_triangular_numbers():
    psi = psi_series(30)
    tri = {k * (k + 1) // 2 for k in range(10)}
    for n in range(31):
        assert psi[n] == (1 if n in tri else 0)


def test_euler_product_matches_pentagonal_expansion():
    # Oracle: signed pentagonal exponents j(3j -+ 1)/2.
    expected = [0] * 13
    expected[0] = 1
    for j in range(1, 4):
        for e in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if e <= 12:
                expected[e] = (-1) ** j
    assert euler_e(1, 12).coeffs == tuple(expected)


def test_partition_generating_series():
    inv = qs.one(12).divide_exact(euler_e(1, 12))
    for n in range(13):
        assert inv[n] == partitions_into(n, range(1, 13))
    assert inv[5] == 7


def test_prod_ap_distinct_odd_parts():
    ser = qs.prod_ap([(2, 1, 1, 1)], 20)
    for n in range(21):
        assert ser[n] == distinct_part_count(n, range(1, 21, 2))
    assert ser[8] == 2


def test_prod_ap_empty_product_is_one():
    assert qs.prod_ap([], 10) == qs.one(10)


def test_prod_ap_rejects_offset_zero():
    with pytest.raises(ValueError):
        qs.prod_ap([(2, 0, -1, 1)], 10)


def test_prod_ap_negative_exponent_inverts():
    ser = qs.prod_ap([(1, 1, -1, 1)], 15)
    inv = qs.prod_ap([(1, 1, -1, -1)], 15)
    assert ser * inv == qs.one(15)


def test_jacobi_triple_product_small_grid():
    for r in range(1, 5):
        for s in range(r, 5):
            assert qs.theta_f(r, s, 120) == theta_f_product(r, s, 120)


def test_phi_psi_eta_quotients():
    n = 500
    phi_quot = (
        euler_e(2, n)
        .pow(5)
        .divide_exact(euler_e(4, n).pow(2) * euler_e(1, n).pow(2))
    )
    assert phi_quot == phi_series(n)
    psi_quot = euler_e(2, n).pow(2).divide_exact(euler_e(1, n))
    assert psi_quot == psi_series(n)


# -- arithmetic: frozen spot values -------------------------------------------


def test_additive_inverse_and_scale():
    phi = phi_series(20)
    assert (phi + phi.scale(-1)).is_zero()
    assert phi.scale(2)[1] == 4


def test_sub_phi_squares_at_q1():
    lhs = phi_series(20).pow(2) - phi_series(20, 5).pow(2)
    assert lhs[1] == 4


def test_mul_identity_and_cube():
    phi = phi_series(20)
    assert phi * qs.one(20) == phi
    assert (phi * (phi * phi))[1] == 6


def test_psi_square_by_convolution():
    # Oracle: convolve the triangular-number indicator with itself.
    tri = [k * (k + 1) // 2 for k in range(10) if k * (k + 1) // 2 <= 20]
    conv = [0] * 21
    for t1 in tri:
        for t2 in tri:
            if t1 + t2 <= 20:
                conv[t1 + t2] += 1
    psi2 = psi_series(20).pow(2)
    assert psi2.coeffs == tuple(conv)
    assert psi2[2] == 1


def test_divide_exact_examples():
    phi = phi_series(30)
    assert phi.divide_exact(phi) == qs.one(30)
    quot = phi.pow(4).divide_exact(phi_series(30, 3))
    assert quot[0] == 1 and quot[1] == 8


def test_divide_exact_requires_unit():
    with pytest.raises(ValueError):
        phi_series(10).divide_exact(qs.monomial(10, 1))


def test_truncation_mismatch_is_an_error():
    with pytest.raises(TruncationMismatch):
        phi_series(10) + phi_series(11)
    with pytest.raises(TruncationMismatch):
        phi_series(10) * phi_series(11)


def test_dilate_sift_alternate_basics():
    phi = phi_series(40)
    phi4 = series(ref_dilate(phi.coeffs, 4))
    assert phi4 == phi_series(40, 4)
    assert phi4.sift(4, 0) == phi.truncate(10)
    assert phi.alternate().alternate() == phi
    assert phi.alternate()[1] == -2


def test_sift_spot_values():
    # s(1), s(6), s(11), s(16), s(21) by direct lattice enumeration.
    def s_brute(n):
        b = int(n**0.5) + 1
        return sum(
            1
            for x in range(-b, b + 1)
            for y in range(-b, b + 1)
            for z in range(-b, b + 1)
            if x * x + y * y + z * z == n
        )

    expect = [s_brute(5 * k + 1) for k in range(5)]
    assert expect == [6, 24, 24, 6, 48]
    sifted = phi_series(26).pow(3).sift(5, 1)
    assert list(sifted.coeffs)[:5] == expect


def test_sift_inverts_dilation():
    ser = series([3, -1, 4, 1, -5, 9, 2, 6])
    dil = series(ref_dilate(ser.coeffs, 3))
    assert dil.sift(3, 0) == ser.truncate(dil.trunc // 3)


def test_sift_inverts_shifted_dilation():
    ser = series([3, -1, 4, 1, -5, 9, 2, 6])
    shifted = qs.monomial(ser.trunc, 1) * series(ref_dilate(ser.coeffs, 3))
    recovered = shifted.sift(3, 1)
    assert recovered == ser.truncate(recovered.trunc)


def test_sift_validation():
    with pytest.raises(ValueError):
        phi_series(10).sift(3, 3)
    with pytest.raises(ValueError):
        phi_series(10).sift(0, 0)


def test_json_round_trip():
    ser = series([1, -2, 3])
    doc = ser.to_json_dict()
    assert doc == {"trunc": 2, "coeffs": [1, -2, 3]}
    assert QSeries.from_json_dict(doc) == ser


def test_getitem_bounds():
    ser = series([1, 2])
    with pytest.raises(IndexError):
        ser[2]
    with pytest.raises(IndexError):
        ser[-1]


# -- algebraic properties ------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(paired())
def test_mul_commutes(pair):
    a, b = pair
    assert a * b == b * a


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)
        ),
        min_size=1,
        max_size=30,
    )
)
def test_mul_associates_and_distributes(triples):
    a = series([x for x, _, _ in triples])
    b = series([y for _, y, _ in triples])
    c = series([z for _, _, z in triples])
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(st_series, st.integers(1, 7))
def test_dissection_completeness(a, t):
    # Every coefficient is recovered from the residue-class parts.
    for n in range(a.trunc + 1):
        part = a.sift(t, n % t)
        assert part[n // t] == a[n]


@settings(max_examples=40, deadline=None)
@given(st_series, st.integers(1, 7))
def test_sift_of_dilate_recovers(a, t):
    dil = series(ref_dilate(a.coeffs, t))
    assert dil.sift(t, 0) == a.truncate(dil.trunc // t)


@settings(max_examples=30, deadline=None)
@given(paired())
def test_divide_exact_roundtrip(pair):
    a, b = pair
    unit = QSeries(b.trunc, (1,) + b.coeffs[1:])
    assert (a * unit).divide_exact(unit) == a


def test_mul_large_coefficient_fallback():
    # Values beyond the int64-safe window take the unbounded path.
    big = 1 << 70
    a = series([big, 1])
    b = series([1, big])
    prod = a * b
    assert prod.coeffs == (big, big * big + 1)


# -- differential checks against the tuple code ---------------------------------
#
# The series used to be tuples of Python ints, with list loops for every
# operation.  That code is kept here, unchanged in substance, as the
# reference for the array storage and the one convolution kernel.


def ref_mul(a, b):
    n = len(a) - 1
    out = [0] * (n + 1)
    for j, c in enumerate(a):
        if c:
            for i in range(n + 1 - j):
                out[j + i] += c * b[i]
    return tuple(out)


def ref_sift(a, t, s):
    return tuple(a[t * k + s] for k in range((len(a) - 1 - s) // t + 1))


def ref_dilate(a, k):
    out = [0] * len(a)
    for j in range((len(a) - 1) // k + 1):
        out[j * k] = a[j]
    return tuple(out)


def ref_alternate(a):
    return tuple(-c if j & 1 else c for j, c in enumerate(a))


def ref_divide_exact(a, b):
    n = len(a) - 1
    q = [0] * (n + 1)
    for i in range(n + 1):
        acc = a[i]
        for j in range(1, i + 1):
            acc -= b[j] * q[i - j]
        q[i] = acc * b[0]
    return tuple(q)


def ref_prod_ap(factors, trunc):
    co = [1] + [0] * trunc
    for a, b, sign, e in factors:
        for m in range(b, trunc + 1, a):
            for _ in range(abs(e)):
                if e > 0:
                    co[m:] = [x + sign * y for x, y in zip(co[m:], co[: trunc + 1 - m])]
                else:
                    for i in range(m, trunc + 1):
                        co[i] -= sign * co[i - m]
    return tuple(co)


def ref_expand_ap(factors, trunc):
    """The array prod_ap expanded before limbs: int64 while a running
    bound certifies it, then Python ints to the end."""
    co = np.zeros(trunc + 1, dtype=np.int64)
    co[0] = 1
    bound = 1
    for a, b, sign, e in factors:
        for m in range(b, trunc + 1, a):
            grow = 2 if e > 0 else -(-(trunc + 1) // m)
            for _ in range(abs(e)):
                if co.dtype != object:
                    if bound * grow >= 1 << 62:
                        bound = qs._max_abs(co)
                    if bound * grow >= 1 << 62:
                        co = co.astype(object)
                    bound *= grow
                if e < 0:
                    ref_divide_binomial(co, m, sign)
                elif sign == 1:
                    co[m:] += co[:-m]
                else:
                    co[m:] -= co[:-m]
    return co


def ref_divide_binomial(co, m, sign):
    n1 = len(co)
    rows = -(-n1 // m)
    grid = np.zeros(rows * m, dtype=co.dtype)
    grid[:n1] = co
    grid = grid.reshape(rows, m)
    if sign == 1:
        grid[1::2] *= -1
    np.cumsum(grid, axis=0, out=grid)
    if sign == 1:
        grid[1::2] *= -1
    co[:] = grid.reshape(-1)[:n1]


def sparse_series(trunc, entries):
    out = [0] * (trunc + 1)
    for j, c in entries:
        out[j] += c
    return series(out)


st_coeff = st.integers(-(1 << 20), 1 << 20)


def sparse_pair(n):
    entries = st.lists(st.tuples(st.integers(0, n), st_coeff), max_size=6)
    side = entries.map(lambda es: sparse_series(n, es))
    return st.tuples(side, side)


st_sparse_pair = st.integers(40, 400).flatmap(sparse_pair)
st_dense_pair = paired(60)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st_sparse_pair, st_dense_pair))
def test_mul_and_pow_match_the_tuple_code(pair):
    a, b = pair
    assert (a * b).coeffs == ref_mul(a.coeffs, b.coeffs)
    cube = ref_mul(ref_mul(a.coeffs, a.coeffs), a.coeffs)
    assert a.pow(3).coeffs == cube
    assert a.pow(1) == a and a.pow(0) == qs.one(a.trunc)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st_sparse_pair, st_dense_pair), st.integers(1, 9), st.data())
def test_sifted_conv_matches_product_then_sift(pair, t, data):
    a, b = pair
    s = data.draw(st.integers(0, min(t - 1, a.trunc)))
    n = (a.trunc - s) // t
    got = qs._conv(a, b, t, s, n)
    assert got.trunc == n
    assert got.coeffs == ref_sift(ref_mul(a.coeffs, b.coeffs), t, s)


@settings(max_examples=40, deadline=None)
@given(st_series, st.integers(1, 7), st.data())
def test_exponent_transforms_match_the_tuple_code(a, t, data):
    s = data.draw(st.integers(0, min(t - 1, a.trunc)))
    assert a.sift(t, s).coeffs == ref_sift(a.coeffs, t, s)
    assert a.alternate().coeffs == ref_alternate(a.coeffs)


st_exponent = st.sampled_from((-3, -2, -1, 1, 2, 3))
st_factor = st.tuples(
    st.integers(1, 6), st.integers(1, 8), st.sampled_from((1, -1)), st_exponent
)


@st.composite
def st_shared_runs(draw):
    # A factor and a sub-progression of it, of either sign and any
    # exponent: where the signs agree the two merge into one net
    # exponent, where they differ one m carries both binomials.
    a, b, sign, e = factor = draw(st_factor)
    k = draw(st.integers(1, 3))
    i = draw(st.integers(0, k - 1))
    run = (a * k, b + a * i, draw(st.sampled_from((1, -1))), draw(st_exponent))
    return draw(st.permutations([factor, run]))


@st.composite
def st_cancelling(draw):
    # Factors, and each one split into its two sub-progressions of step
    # 2a with the opposite exponent: every net exponent is zero.
    factors = draw(st.lists(st_factor, min_size=1, max_size=2))
    inverse = [
        (2 * a, b + a * i, sign, -e) for a, b, sign, e in factors for i in (0, 1)
    ]
    return draw(st.permutations(factors + inverse))


st_factors = st.one_of(
    st.lists(st_factor, min_size=1, max_size=4), st_shared_runs(), st_cancelling()
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.just([]), st_factors), st.integers(0, 60))
@example([(1, 1, -1, 2), (2, 2, -1, 3)], 60)
@example([(1, 1, -1, 2), (2, 1, -1, -2), (2, 2, -1, -2)], 60)
@example([(1, 1, 1, 2), (1, 1, -1, -1), (3, 3, 1, -2)], 60)
def test_prod_ap_matches_the_tuple_code(factors, trunc):
    assert qs.prod_ap(factors, trunc).coeffs == ref_prod_ap(factors, trunc)


@settings(max_examples=30, deadline=None)
@given(st_cancelling(), st.integers(0, 200))
def test_prod_ap_of_cancelling_exponents_is_one_without_a_step(factors, trunc):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qs, "_divide_binomial", lambda *args: pytest.fail("divided"))
        assert qs.prod_ap(factors, trunc) == qs.one(trunc)


def test_prod_ap_expands_each_binomial_at_its_net_exponent(monkeypatch):
    # E(2)^5 / (E(4)^2 E(1)^2): 1 - q^m is divided out twice at odd m and
    # multiplied in 3 times at m = 2 mod 4 and once at m = 0 mod 4, not
    # stepped 5 + 2 + 2 times.
    steps = []
    divide = qs._divide_binomial

    def counting(co, m, sign):
        steps.append(m)
        divide(co, m, sign)

    monkeypatch.setattr(qs, "_divide_binomial", counting)
    factors = [(2, 2, -1, 5), (4, 4, -1, -2), (1, 1, -1, -2)]
    assert qs.prod_ap(factors, 1000).coeffs == ref_prod_ap(factors, 1000)
    assert len(steps) == 1000
    assert steps == [m for m in range(1, 1001, 2) for _ in range(2)]


def ref_series_factors(factors, trunc):
    """The factors (a, b, +1, e > 0) none of whose binomials 1 + q^m,
    m <= trunc, a (c, d, +1, e < 0) factor also names, by sets of m."""
    divided = {
        m
        for c, d, sign, e in factors
        if sign == 1 and e < 0
        for m in range(d, trunc + 1, c)
    }
    return [
        (a, b, sign, e)
        for a, b, sign, e in factors
        if sign == 1 and e > 0 and not divided & set(range(b, trunc + 1, a))
    ]


def recording_series(monkeypatch):
    """Record (a, b) once for every application of Euler's series."""
    calls = []
    split = qs._euler_factors

    def recording(factors, trunc):
        series, rest = split(factors, trunc)
        calls.extend((a, b) for a, b, _sign, e in series for _ in range(e))
        return series, rest

    monkeypatch.setattr(qs, "_euler_factors", recording)
    return calls


def recording_steps(monkeypatch):
    """Record every (m, sign, e) the binomial path steps."""
    steps = []
    net = qs._net_exponents

    def recording(factors, trunc):
        for step in net(factors, trunc):
            steps.append(step)
            yield step

    monkeypatch.setattr(qs, "_net_exponents", recording)
    return steps


st_series_factor = st.tuples(
    st.integers(1, 6), st.integers(1, 8), st.just(1), st.integers(1, 3)
)
st_other_factor = st.one_of(
    st.tuples(st.integers(1, 6), st.integers(1, 8), st.just(-1), st_exponent),
    st.tuples(st.integers(1, 6), st.integers(1, 8), st.just(1), st.integers(-3, -1)),
)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(
        st.lists(st_series_factor, min_size=1, max_size=3),
        st.lists(st_other_factor, max_size=3),
    ).flatmap(lambda fs: st.permutations(fs[0] + fs[1])),
    st.integers(0, 80),
)
@example([(2, 1, 1, 1), (1, 1, -1, -1), (4, 3, 1, -1)], 60)
@example([(1, 1, 1, 2), (2, 2, 1, -1), (3, 1, 1, 1)], 60)
def test_prod_ap_by_euler_series_matches_the_tuple_code(factors, trunc):
    # The series factors mixed with 1 - q^m factors and with divisions
    # by 1 + q^m: each factor no division meets takes the series, once
    # per unit of its exponent, and the product is exact.
    with pytest.MonkeyPatch.context() as mp:
        calls = recording_series(mp)
        got = qs.prod_ap(factors, trunc)
    assert got.coeffs == ref_prod_ap(factors, trunc)
    want = ref_series_factors(factors, trunc)
    assert calls == [(a, b) for a, b, _sign, e in want for _ in range(e)]


def test_distinct_odd_parts_at_order_7005_take_83_series_terms(monkeypatch):
    # (-q; q^2) to 7005: term k ends at k^2 <= 7005 and divides by
    # 1 - q^2k, so 83 terms replace 3503 shift-adds, and no binomial is
    # stepped on its own.
    calls = recording_series(monkeypatch)
    divisions = []
    divide = qs._divide_binomial
    monkeypatch.setattr(
        qs,
        "_divide_binomial",
        lambda co, m, sign: divisions.append((m, sign)) or divide(co, m, sign),
    )
    steps = recording_steps(monkeypatch)
    factors = [(2, 1, 1, 1)]
    assert qs.prod_ap(factors, 7005).coeffs == ref_prod_ap(factors, 7005)
    assert calls == [(2, 1)]
    assert divisions == [(2 * k, -1) for k in range(1, 84)]
    assert steps == []


def test_a_binomial_another_factor_divides_by_stays_on_the_binomial_path(
    monkeypatch,
):
    # (1 + q^m) for every m times 1 / (1 + q^m) at odd m: the odd
    # binomials cancel, so the first factor expands at net exponents,
    # and only the even binomials are stepped, once each.
    calls = recording_series(monkeypatch)
    steps = recording_steps(monkeypatch)
    factors = [(1, 1, 1, 1), (2, 1, 1, -1)]
    assert qs.prod_ap(factors, 200).coeffs == ref_prod_ap(factors, 200)
    assert calls == []
    assert steps == [(m, 1, 1) for m in range(2, 201, 2)]


def test_prod_ap_peak_is_within_prod_ap_bytes():
    # Every prodap leaf of the catalog at the order verify --all plans
    # for it at 1000, (-q; q^2) at 7005 among them; and (-q; q)^20 at
    # 2000, whose 16 limbs put the series' three arrays above the
    # rebuild's count.
    from threesquares.catalog import catalog, plan

    exprs = [x for spec in catalog() for x in (spec.lhs, spec.rhs)]
    nodes = plan(exprs, 1000).items()
    leaves = [(node[1], at) for node, at in nodes if node[0] == "prodap"]
    assert len(leaves) == 11 and (((2, 1, 1, 1),), 7005) in leaves
    for factors, order in leaves + [(((1, 1, 1, 20),), 2000)]:
        tracemalloc.start()
        try:
            qs.prod_ap(list(factors), order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= qs.prod_ap_bytes(factors, order), (factors, order, peak)


@settings(max_examples=60, deadline=None)
@given(st_factors, st.integers(2, 8), st.integers(0, 1 << 14))
# Euler's series on narrow limbs: the division by 1 - q sums 40 terms.
@example([(1, 1, 1, 3), (2, 1, -1, -1)], 2, 0)
@example([(1, 1, 1, 2), (3, 2, 1, 1), (2, 2, -1, -2)], 3, 7)
def test_prod_ap_exact_whatever_the_limit(factors, bits, spare):
    # Limbs of 2 to 8 bits in a window barely wide enough to certify an
    # order-40 step after a carry: carries, added limbs and negative top
    # limbs come at every step position in turn, and none may change a
    # value.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qs, "_LIMB_BITS", bits)
        mp.setattr(qs, "_INT64_SAFE", (41 << bits) + spare)
        got = qs._expand_ap(factors, 40).tolist()
    assert tuple(got) == ref_prod_ap(factors, 40)


@settings(max_examples=15, deadline=None)
@given(st_factors, st.integers(100, 600))
def test_prod_ap_limbs_match_the_object_path(factors, trunc):
    # At full width the deep products pass 2^62, so the reference's
    # Python ints and the limbs both run.
    got = qs.prod_ap(factors, trunc)
    want = ref_expand_ap(factors, trunc)
    assert got.coeffs == tuple(want.tolist())


def test_prod_ap_is_the_partition_function_to_order_1000():
    # Euler's pentagonal recurrence on Python ints; p(1000) has 105 bits,
    # so the division by 1 - q^m runs on limbs.
    part = [1]
    for n in range(1, 1001):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            total += sign * part[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                total += sign * part[n - k * (3 * k + 1) // 2]
            k += 1
        part.append(total)
    ser = qs.prod_ap([(1, 1, -1, -1)], 1000)
    assert part[1000].bit_length() == 105
    assert ser.coeffs == tuple(part)


def test_prod_ap_refuses_an_order_no_carry_can_certify(monkeypatch):
    with pytest.raises(ValueError, match="no carry can certify"):
        qs.prod_ap([], 1 << 30)
    monkeypatch.setattr(qs, "_INT64_SAFE", 1 << 40)
    qs.prod_ap([(1, 1, -1, -1)], (1 << 8) - 1)
    with pytest.raises(ValueError, match="no carry can certify"):
        qs.prod_ap([(1, 1, -1, -1)], 1 << 8)


@settings(max_examples=30, deadline=None)
@given(paired(), st.integers(-(1 << 40), 1 << 40))
def test_divide_exact_matches_the_tuple_code(pair, big):
    a, b = pair
    unit = series((1, big) + b.coeffs[2:]) if b.trunc >= 1 else qs.one(0)
    assert a.divide_exact(unit).coeffs == ref_divide_exact(a.coeffs, unit.coeffs)


def test_sparse_products_take_the_outer_path(monkeypatch):
    calls = []
    outer = qs._outer
    monkeypatch.setattr(
        qs, "_outer", lambda *args: calls.append(args[6]) or outer(*args)
    )
    phi = phi_series(4000)
    assert (phi * phi).coeffs == ref_mul(phi.coeffs, phi.coeffs)
    assert calls == [4000]


# -- certificate edges -----------------------------------------------------------

LIMIT = 1 << 62


@pytest.mark.parametrize("below", [0, 1])
def test_add_and_sub_certificate_edge(below):
    a, b = series([LIMIT // 2 - below, 3]), series([LIMIT // 2, -5])
    total = a + b
    assert total.coeffs == (LIMIT - below, -2)
    assert total.array.dtype == (object if not below else np.int64)
    diff = a - b.scale(-1)
    assert diff == total


@pytest.mark.parametrize("below", [0, 1])
def test_scale_certificate_edge(below):
    a = series([LIMIT // 4 - below, -1])
    out = a.scale(4)
    assert out.coeffs == (LIMIT - 4 * below, -4)
    assert out.array.dtype == (object if not below else np.int64)


@pytest.mark.parametrize("t,s,n", [(1, 0, 1), (1, 0, 200), (100, 0, 2)])
@pytest.mark.parametrize("below", [0, 1])
def test_conv_certificate_edge(t, s, n, below):
    # Two nonzeros on each side at exponents 0 and h: the product's
    # coefficient at h is exactly the certificate's bound 2*c*d.
    top = t * n + s
    h = top // 2 if top > 1 else 1
    c, d = 1 << 30, (1 << 31) - below
    x = sparse_series(top, [(0, c), (h, c)])
    y = sparse_series(top, [(0, d), (h, d)])
    got = qs._conv(x, y, t, s, n)
    assert got.coeffs == ref_sift(ref_mul(x.coeffs, y.coeffs), t, s)
    assert got.bound == 2 * c * d
    assert got.array.dtype == (object if not below else np.int64)


@pytest.mark.parametrize("t,s,n", [(1, 0, 3), (1, 0, 200), (50, 0, 3)])
def test_conv_certificate_counts_every_term(t, s, n):
    # Four terms of 2^61 meet in one coefficient, 2^63: past int64, so
    # a bound that left out the term count would wrap.
    top = t * n + s
    exponents = [top // 3 * i for i in range(4)]
    x = sparse_series(top, [(j, 1 << 30) for j in exponents])
    y = sparse_series(top, [(j, 1 << 31) for j in exponents])
    got = qs._conv(x, y, t, s, n)
    assert got.coeffs == ref_sift(ref_mul(x.coeffs, y.coeffs), t, s)
    assert got.bound == 1 << 63


# Coefficients of products whose certificate fails: near +-2^100, on
# limb edges, and with zero limbs (2^64, 2^100 and 0 split into limbs
# that are mostly zero).
st_wide = st.one_of(
    st.integers(-(1 << 100) - 2, -(1 << 100) + 2),
    st.integers((1 << 100) - 2, (1 << 100) + 2),
    st.sampled_from((0, 0, 1, -1, 1 << 62, -(1 << 63), 1 << 64, -(1 << 64))),
    st.integers(-(1 << 70), 1 << 70),
)
st_narrow = st.integers(-(1 << 40), 1 << 40)


def wide_side(n, coeff, top):
    # n + 1 coefficients, one of them +-top, so the certificate fails.
    return st.tuples(
        st.lists(coeff, min_size=n + 1, max_size=n + 1),
        st.integers(0, n),
        st.sampled_from((top, -top)),
    ).map(lambda d: series(d[0][: d[1]] + [d[2]] + d[0][d[1] + 1 :]))


def wide_pair(n):
    obj = wide_side(n, st_wide, 1 << 100)
    i64 = wide_side(n, st_narrow, 1 << 40)
    sides = ((obj, i64), (i64, obj), (obj, obj), (i64, i64))
    return st.one_of(*(st.tuples(x, y) for x, y in sides))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30).flatmap(wide_pair), st.integers(1, 5), st.data())
def test_uncertified_conv_runs_on_limbs_and_matches_the_tuple_code(pair, t, data):
    x, y = pair
    s = data.draw(st.integers(0, min(t - 1, x.trunc)))
    n = (x.trunc - s) // t
    nz = min(int(np.count_nonzero(x.array)), int(np.count_nonzero(y.array)))
    assert nz * x.bound * y.bound >= LIMIT
    want = ref_sift(ref_mul(x.coeffs, y.coeffs), t, s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qs, "_outer", lambda *args: pytest.fail("outer"))
        got = qs._conv(x, y, t, s, n)
    assert got.coeffs == want
    assert got.bound == max(abs(c) for c in want)
    assert got.array.dtype == (np.int64 if got.bound < LIMIT else object)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(62, 400),
    st.integers(62, 400),
    st.sampled_from((-1, 0, 1)),
    st.sampled_from((1, -1)),
    st.integers(0, 24),
)
def test_limb_product_of_full_limbs_stays_exact(k, h, d, sign, n):
    # 2^k - 1 and -2^k - 1 fill every limb, and n + 1 equal terms meet
    # in coefficient n, so the column sums come within a few bits of
    # their certified bound: a certificate that forgot how many limb
    # pairs share a column would wrap.
    x = series([sign * ((1 << k) + d)] * (n + 1))
    y = series([(1 << h) - 1] * (n + 1))
    assert (x * y).coeffs == ref_mul(x.coeffs, y.coeffs)
    assert (x * x).coeffs == ref_mul(x.coeffs, x.coeffs)


@pytest.mark.parametrize("bits,count", [(3, 4), (29, 3), (40, 4)])
def test_limbs_split_and_join_exactly(bits, count):
    top = 1 << (bits * count - 1)
    values = [0, 1, -1, top - 1, -top, 1 << bits, -(1 << bits), (1 << bits) - 1]
    for arr in (np.array(values, dtype=object), np.array(values[:3], dtype=np.int64)):
        limbs = qs._split(arr, bits, count)
        assert limbs.dtype == np.int64 and limbs.shape == (len(arr), count)
        assert (limbs[:, :-1] >= 0).all() and (limbs[:, :-1] < 1 << bits).all()
        assert qs._max_abs(limbs[:, -1]) <= 1 << bits
        assert qs._join(limbs, bits).tolist() == arr.tolist()


@pytest.mark.parametrize("k", [2, 5, 9])
def test_prod_ap_certificate_edge(monkeypatch, k):
    # (1 + sign*q)^e to order 1 is [1, sign*e]; the step from e = big to
    # big + 1 is certified by 2*big, so a window of 2*big carries exactly
    # there.  big = k * 2^bits has no low bits, so the carry adds a limb
    # (two for k = 2), negative for sign = -1.
    bits = min(k, 8)
    big = k << bits
    carries = []
    carry = qs._carry
    monkeypatch.setattr(qs, "_carry", lambda co: carries.append(1) or carry(co))
    monkeypatch.setattr(qs, "_LIMB_BITS", bits)
    monkeypatch.setattr(qs, "_INT64_SAFE", 2 * big)
    for sign in (1, -1):
        below = qs._expand_ap([(1, 1, sign, big)], 1)
        assert not carries and below.dtype == np.int64
        assert below.tolist() == [1, sign * big]
        at_limit = qs._expand_ap([(1, 1, sign, big + 1)], 1)
        assert carries == [1] and at_limit.dtype == object
        assert at_limit.tolist() == [1, sign * (big + 1)]
        carries.clear()
    # Dividing by 1 - q sums k + 1 terms: after (1 + q^k)^big, whose
    # max-abs is big, a window of big * (k + 1) carries exactly there.
    factors = [(k + 1, k, 1, big), (k + 1, 1, -1, -1)]
    for window, count in ((big * (k + 1) + 1, 0), (big * (k + 1), 1)):
        monkeypatch.setattr(qs, "_INT64_SAFE", window)
        assert qs._expand_ap(factors, k).tolist() == [1] * k + [big + 1]
        assert len(carries) == count
        carries.clear()


def test_distinct_odd_parts_at_order_7005_stays_exact():
    factors = [(2, 1, 1, 1)]
    ser = qs.prod_ap(factors, 7005)
    assert ser.coeffs == ref_prod_ap(factors, 7005)
    assert ser.coeffs == tuple(ref_expand_ap(factors, 7005).tolist())
    assert ser.bound >= LIMIT
    assert ser.array.dtype == object
    assert ser.sift(7, 5).coeffs == ref_sift(ser.coeffs, 7, 5)


def test_series_arrays_are_read_only():
    ser = phi_series(10) * psi_series(10)
    for view in (ser.array, ser.truncate(4).array, ser.sift(3, 1).array):
        with pytest.raises(ValueError):
            view[0] = 7
