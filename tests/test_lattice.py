"""Lattice counting: brute-force oracles, bound sufficiency, constraints."""

import random
import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threesquares import lattice
from threesquares import qseries as qs
from threesquares.lattice import (
    BinaryForm,
    Constraint,
    TernaryForm,
    identity_form,
    rep_count_ternary,
    s_of_n,
    s_table,
    theta_series_binary,
    theta_series_ternary,
)
from threesquares.lattice import _x_range


def brute_count(form, n, box):
    return sum(
        1
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
        for z in range(-box, box + 1)
        if form.value(x, y, z) == n
    )


def random_posdef(rng):
    while True:
        a, b, c = (rng.randint(1, 5) for _ in range(3))
        d, e, f = (rng.randint(-3, 3) for _ in range(3))
        try:
            return TernaryForm(a, b, c, d, e, f)
        except ValueError:
            continue


def test_rep_count_examples():
    assert rep_count_ternary(identity_form(), 2) == 12
    assert rep_count_ternary(TernaryForm(2, 2, 2, -1, 1, 1), 2) == 6
    assert rep_count_ternary(identity_form(), -3) == 0
    assert rep_count_ternary(identity_form(), 0) == 1


def test_s_of_n_values():
    assert s_of_n(1) == 6
    assert s_of_n(9) == 30
    assert s_of_n(25) == 30
    assert s_of_n(50) == 84
    # Recursion cross-checks at p = 3 and p = 5, n = 1.
    assert s_of_n(9) == (3 + 1 - (-1)) * s_of_n(1) // 1 - 0
    assert s_of_n(25) == (5 + 1 - 1) * s_of_n(1) - 0


def test_s_table_matches_single_counts():
    table = s_table(200)
    theta = theta_series_ternary(identity_form(), 200)
    for n in range(201):
        assert int(table[n]) == s_of_n(n) == theta[n]


def reference_s_table(n_max):
    """The z-loop table: one full-length int64 pass per z <= isqrt(n_max)."""
    r2 = np.zeros(n_max + 1, dtype=np.int64)
    top = isqrt(n_max)
    squares = np.arange(top + 1, dtype=np.int64) ** 2
    for a in range(top + 1):
        k = isqrt(n_max - a * a)
        idx = a * a + squares[: k + 1]
        w = np.full(k + 1, 2, dtype=np.int64)
        w[0] = 1
        if a > 0:
            w *= 2
        r2[idx] += w
    s = np.zeros(n_max + 1, dtype=np.int64)
    for z in range(top + 1):
        m = z * z
        w = 2 if z > 0 else 1
        s[m:] += w * r2[: n_max + 1 - m]
    return s


def assert_same_table(n_max):
    table = s_table(n_max)
    assert table.dtype == np.int32
    assert np.array_equal(table, reference_s_table(n_max)), n_max


@pytest.mark.parametrize("block", [7, 64])
def test_blocked_s_table_matches_the_z_loop_at_every_block_edge(monkeypatch, block):
    monkeypatch.setattr(lattice, "_S_BLOCK", block)
    for n_max in range(301):
        assert_same_table(n_max)


@pytest.mark.parametrize(
    "n_max", [2**17 - 1, 2**17, 2**17 + 1, 3 * 2**17 + 5]
)
def test_blocked_s_table_matches_the_z_loop_at_the_real_block_size(n_max):
    assert lattice._S_BLOCK == 2**17
    assert_same_table(n_max)


def test_s_table_int32_certificate():
    # s(n) <= 2*(2*isqrt(n)+1)^2 is below 2^31 up to _S_MAX and no further.
    top = lattice._S_MAX
    assert 2 * (2 * isqrt(top) + 1) ** 2 < 2**31 <= 2 * (2 * isqrt(top + 1) + 1) ** 2
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="int32"):
            s_table(lattice._S_MAX + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2000))
def test_four_routes_to_s_agree(n_max):
    table = s_table(n_max)
    theta = theta_series_ternary(identity_form(), n_max)
    cube = qs.phi(n_max).pow(3)
    for n in range(n_max + 1):
        assert int(table[n]) == theta[n] == cube[n] == s_of_n(n), n


def test_theta_ternary_equals_phi_cubed():
    assert theta_series_ternary(identity_form(), 500) == qs.phi(500).pow(3)


def test_theta_spot_values():
    theta = theta_series_ternary(TernaryForm(1, 1, 3, 0, 0, 1), 30)
    assert theta[1] == 6
    assert theta[0] == 1


def test_second_genus_member_vanishes_mod_4():
    theta = theta_series_ternary(TernaryForm(8, 3, 7, 2, 8, 4), 500)
    for n in range(1, 501):
        if n % 4 in (1, 2):
            assert theta[n] == 0


def test_binary_theta_values():
    aq = theta_series_binary(BinaryForm(1, 1, 1), 10)
    assert list(aq.coeffs) == [1, 6, 0, 6, 6, 0, 0, 12, 0, 6, 0]
    theta = theta_series_binary(BinaryForm(2, 2, 3), 20)
    assert theta[2] == 2


def test_binary_rejects_indefinite():
    with pytest.raises(ValueError):
        BinaryForm(1, 5, 1)


def test_ternary_rejects_indefinite():
    with pytest.raises(ValueError):
        TernaryForm(1, 1, -3, 0, 0, 0)


def test_affine_binary_negative_exponent_rejected():
    bad = BinaryForm(1, 0, 1, linear=(0, 0), const=-1)
    with pytest.raises(ValueError):
        theta_series_binary(bad, 10)


def test_affine_binary_shifted_square():
    # (m + 1)^2 + n^2: exponent m^2 + 2m + n^2 + 1.
    shifted = BinaryForm(1, 0, 1, linear=(2, 0), const=1)
    theta = theta_series_binary(shifted, 30)
    plain = theta_series_binary(BinaryForm(1, 0, 1), 30)
    assert theta == plain


def test_constraint_allowing_everything_is_no_op():
    form = TernaryForm(1, 1, 3, 0, 0, 1)
    allow_all = Constraint(2, frozenset({(i, j, k) for i in range(2) for j in range(2) for k in range(2)}))
    assert theta_series_ternary(form, 40, allow_all) == theta_series_ternary(form, 40)


def test_constraint_arity_mismatch():
    form = TernaryForm(1, 1, 3, 0, 0, 1)
    with pytest.raises(ValueError):
        theta_series_ternary(form, 10, Constraint(2, frozenset({(0, 1)})))


def test_constraint_validation():
    with pytest.raises(ValueError):
        Constraint(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        Constraint(0, frozenset())


def test_opposite_parity_constrained_sum():
    # Sum of q^(u^2 + 3 v^2) over u, v of opposite parity equals
    # 2 q psi(q^2) psi(q^6).
    con = Constraint(2, frozenset({(0, 1), (1, 0)}))
    lhs = theta_series_binary(BinaryForm(1, 0, 3), 200, con)
    rhs = qs.monomial(200, 1, 2) * qs.psi(200, 2) * qs.psi(200, 6)
    assert lhs == rhs


def test_x_range_boundaries():
    # 2x^2 - 3x - 5 <= 0 has integer solutions -1..2 (roots -1 and 2.5).
    lo, hi = _x_range(2, -3, -5, 0)
    assert (lo, hi) == (-1, 2)
    # No solutions when the parabola stays positive.
    lo, hi = _x_range(1, 0, 5, 0)
    assert lo > hi


def test_enumeration_bounds_survive_box_doubling():
    # Rescan a box twice as wide (per coordinate) as anything the exact
    # bounds visited; the histograms must agree coefficient for
    # coefficient, so the derived bounds were already sufficient.
    import numpy as np

    from threesquares.lattice import _ternary_points

    rng = random.Random(20260808)
    for _ in range(10):
        form = random_posdef(rng)
        theta = theta_series_ternary(form, 200)
        reach = max(
            max(abs(x), abs(y), abs(z))
            for x, y, z, _ in _ternary_points(form, 200)
        )
        box = 2 * reach + 1
        span = np.arange(-box, box + 1, dtype=np.int64)
        yy, zz = np.meshgrid(span, span, indexing="ij")
        a, b, c, d, e, f = form.as_tuple()
        hist = np.zeros(201, dtype=np.int64)
        for x in span:
            vals = (
                a * x * x + b * yy * yy + c * zz * zz
                + d * yy * zz + e * zz * x + f * x * yy
            )
            inside = vals[(vals >= 0) & (vals <= 200)]
            hist += np.bincount(inside, minlength=201)
        assert tuple(int(v) for v in hist) == theta.coeffs
        for n in range(201):
            assert rep_count_ternary(form, n) == theta[n]
