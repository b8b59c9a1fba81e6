"""Lattice counting: brute-force oracles, bound sufficiency, constraints."""

import random

import pytest

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
