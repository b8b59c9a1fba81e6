"""Reduction, equivalence, automorphs, and class enumeration."""

import random

import pytest

from threesquares.lattice import TernaryForm, theta_series_ternary
from threesquares.forms import (
    IDENTITY,
    apply_transform,
    automorph_count,
    automorphs,
    enumerate_classes,
    equivalent_forms,
    is_prime,
    legendre,
    mat_det,
    mat_inverse_unimodular,
    mat_mul,
    reduce_form,
    reduce_form_with_transform,
)

I3 = TernaryForm(1, 1, 1, 0, 0, 0)


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
