"""Lattice counting: brute-force oracles, bound sufficiency, constraints."""

import functools
import random
import re
import tracemalloc
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from threesquares import lattice
from threesquares import qseries as qs
from threesquares.lattice import (
    BinaryForm,
    Constraint,
    TernaryForm,
    identity_form,
    point_array_bytes,
    rep_count_ternary,
    s_multiples,
    s_table,
    short_vectors,
    theta_series_binary,
    theta_series_ternary,
)
from threesquares.lattice import _x_range
from threesquares.catalog import T_FORM, X
from threesquares.forms import enumerate_classes


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


# -- row reference: the Python row loop the array walk replaced --------------


def ref_ternary_rows(form, bound, admit=None):
    """Yield (y, z, b1, c1) for every row holding a triple of value <= bound.

    On row (y, z) the value is a*x^2 + b1*x + c1.  Completing the square
    in x (Fincke & Pohst, Math. Comp. 44, 1985) turns the bound into
    P2(y,z) <= 4*a*bound, with P2 = (4ab-f^2) y^2 + (4ad-2ef) yz
    + (4ac-e^2) z^2.  Rows come z ascending; with an (m, m) boolean table
    admit, each admitted residue class of y is walked upwards in steps of
    m, one class after another, and without it y simply ascends.
    """
    if bound < 0:
        return
    a, b, c, d, e, f = form.as_tuple()
    a2 = 4 * a * b - f * f
    b2 = 4 * a * d - 2 * e * f
    c2 = 4 * a * c - e * e
    zmax = isqrt(a2 * bound // form.disc())
    if admit is None:
        m, classes = 1, [(0,)]
    else:
        m = len(admit)
        classes = [np.flatnonzero(admit[:, r]).tolist() for r in range(m)]
    fm, bmm = f * m, 2 * b * m * m
    for z in range(-zmax, zmax + 1):
        residues = classes[z % m]
        if not residues:
            continue
        ylo, yhi = _x_range(a2, b2 * z, c2 * z * z - 4 * a * bound, 0)
        for r in residues:
            y0 = ylo + (r - ylo) % m
            b1 = f * y0 + e * z
            c1 = b * y0 * y0 + c * z * z + d * y0 * z
            step = m * (b * (2 * y0 + m) + d * z)
            for y in range(y0, yhi + 1, m):
                yield y, z, b1, c1
                b1 += fm
                c1 += step
                step += bmm


def ref_runs(form, bound, admit=None):
    """Runs (xlo, count, b1, c1, y, z) of every triple v with value <=
    bound, the origin included, row by row of ref_ternary_rows, x
    ascending."""
    out = []
    for y, z, b1, c1 in ref_ternary_rows(form, bound, admit):
        xlo, xhi = _x_range(form.a, b1, c1, bound)
        if xlo <= xhi:
            out.append((xlo, xhi - xlo + 1, b1, c1, y, z))
    return out


def ref_rep_count(form, n):
    """The row loop's count: each row with a square x-discriminant s^2
    has the roots x = (-b1 +- s) / 2a, and each integral one counts."""
    count = 0
    for _y, _z, b1, c1 in ref_ternary_rows(form, n):
        disc_x = b1 * b1 - 4 * form.a * (c1 - n)
        s = isqrt(disc_x)
        if s * s == disc_x:
            count += (s - b1) % (2 * form.a) == 0
            if s:
                count += (-s - b1) % (2 * form.a) == 0
    return count


def ref_ternary_points(form, bound):
    """Yield (x, y, z, value) for all integer triples with value <= bound."""
    a = form.a
    for y, z, b1, c1 in ref_ternary_rows(form, bound):
        xlo, xhi = _x_range(a, b1, c1, bound)
        val = a * xlo * xlo + b1 * xlo + c1
        step = a * (2 * xlo + 1) + b1
        for x in range(xlo, xhi + 1):
            yield x, y, z, val
            val += step
            step += 2 * a


def ref_binary_points(bform, bound):
    """Yield (m, n, value) over all integer pairs with value <= bound."""
    a, b, c = bform.a, bform.b, bform.c
    u, v = bform.linear
    w = bform.const
    nlo, nhi = _x_range(
        4 * a * c - b * b, 4 * a * v - 2 * b * u, 4 * a * w - u * u, 4 * a * bound
    )
    for n in range(nlo, nhi + 1):
        b1 = b * n + u
        c1 = c * n * n + v * n + w
        mlo, mhi = _x_range(a, b1, c1, bound)
        val = a * mlo * mlo + b1 * mlo + c1
        step = a * (2 * mlo + 1) + b1
        for m in range(mlo, mhi + 1):
            yield m, n, val
            val += step
            step += 2 * a


def ref_theta_ternary(form, trunc, constraint=None):
    out = [0] * (trunc + 1)
    if constraint is None:
        for _x, _y, _z, val in ref_ternary_points(form, trunc):
            out[val] += 1
    else:
        if any(len(t) != 3 for t in constraint.allowed):
            raise ValueError("constraint arity does not match 3 variables")
        mod = constraint.modulus
        allowed = constraint.allowed
        for x, y, z, val in ref_ternary_points(form, trunc):
            if (x % mod, y % mod, z % mod) in allowed:
                out[val] += 1
    return qs.QSeries(trunc, tuple(out))


def ref_theta_binary(bform, trunc, constraint=None):
    out = [0] * (trunc + 1)
    if constraint is not None and any(len(t) != 2 for t in constraint.allowed):
        raise ValueError("constraint arity does not match 2 variables")
    mod = constraint.modulus if constraint is not None else 1
    allowed = constraint.allowed if constraint is not None else None
    for m, n, val in ref_binary_points(bform, trunc):
        if val < 0:
            raise ValueError(
                f"affine exponent {val} is negative at (m,n)=({m},{n})"
            )
        if allowed is not None and (m % mod, n % mod) not in allowed:
            continue
        out[val] += 1
    return qs.QSeries(trunc, tuple(out))


@st.composite
def constraints(draw, arity):
    """None, or allowed residue tuples modulo 1..8: a random set, the
    empty set, or row-shaped (every residue of the first variable for
    each allowed residue tuple of the others), as the catalog's X(r) are.
    """
    if draw(st.booleans()):
        return None
    mod = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(["random", "rows", "empty"]))
    if shape == "empty":
        return Constraint(mod, frozenset())
    residue = st.tuples(*[st.integers(0, mod - 1)] * arity)
    allowed = draw(st.sets(residue, max_size=12))
    if shape == "rows":
        allowed = {(x, *t[1:]) for t in allowed for x in range(mod)}
    return Constraint(mod, frozenset(allowed))


def same_outcome(array_route, reference):
    """Both return the same series, or both raise the same ValueError."""
    try:
        expected = reference()
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            array_route()
        assert str(got.value) == str(exc)
    else:
        assert array_route() == expected


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.tuples(*[st.integers(1, 9)] * 3, *[st.integers(-6, 6)] * 3),
    trunc=st.integers(0, 300),
    constraint=constraints(3),
)
def test_ternary_theta_matches_the_point_loop(coeffs, trunc, constraint):
    a, b, c, d, e, f = coeffs
    assume(4 * a * b > f * f)
    assume(4 * a * b * c + d * e * f > a * d * d + b * e * e + c * f * f)
    form = TernaryForm(*coeffs)
    same_outcome(
        lambda: theta_series_ternary(form, trunc, constraint),
        lambda: ref_theta_ternary(form, trunc, constraint),
    )


@pytest.mark.parametrize("chunk", [1, 7, 64])
@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.tuples(*[st.integers(1, 9)] * 3, *[st.integers(-6, 6)] * 3),
    trunc=st.integers(0, 120),
    constraint=constraints(3),
)
# trunc 0 is the origin's run alone; at 1 the origin's row is the run -1..1.
@example(coeffs=(1, 1, 1, 0, 0, 0), trunc=0, constraint=None)
@example(coeffs=(1, 1, 1, 0, 0, 0), trunc=1, constraint=None)
@example(coeffs=(1, 1, 1, 0, 0, 0), trunc=1, constraint=X(0)[2])
def test_streamed_theta_matches_the_point_loop_at_every_batch_edge(
    chunk, coeffs, trunc, constraint
):
    a, b, c, d, e, f = coeffs
    assume(4 * a * b > f * f)
    assume(4 * a * b * c + d * e * f > a * d * d + b * e * e + c * f * f)
    form = TernaryForm(*coeffs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_CHUNK", chunk)
        same_outcome(
            lambda: theta_series_ternary(form, trunc, constraint),
            lambda: ref_theta_ternary(form, trunc, constraint),
        )


def test_a_streamed_theta_holds_a_batch_not_its_points():
    # The parent of this code built every (x, y, z, value) row: 21.6 MB
    # at 4002 and eight times that at 16000.  A batch is _CHUNK points
    # and the rest of one run, at most 64 bytes a point with _spread's
    # temporaries, beside the counts and one batch's bincount.
    form = TernaryForm(1, 1, 3, 0, 0, 1)
    for trunc in (4002, 16000):
        tracemalloc.start()
        try:
            theta = theta_series_ternary(form, trunc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # short_vectors(form, trunc).nbytes: 32 bytes per nonzero point.
        points = 32 * (int(theta.array.sum()) - 1)
        assert peak < 64 * lattice._CHUNK + 32 * (trunc + 1), (trunc, peak)
        assert peak < points // 4, (trunc, peak, points)


@settings(max_examples=100, deadline=None)
@given(
    abc=st.tuples(st.integers(1, 8), st.integers(-8, 8), st.integers(1, 8)),
    linear=st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
    const=st.integers(-6, 30),
    trunc=st.integers(0, 300),
    constraint=constraints(2),
)
def test_binary_theta_matches_the_point_loop(abc, linear, const, trunc, constraint):
    a, b, c = abc
    assume(b * b < 4 * a * c)
    bform = BinaryForm(a, b, c, linear, const)
    same_outcome(
        lambda: theta_series_binary(bform, trunc, constraint),
        lambda: ref_theta_binary(bform, trunc, constraint),
    )


def test_negative_affine_exponent_names_the_first_point():
    # m^2 + n^2 + 3m - 1 is least (-3) at n = 0, but rows run n upwards
    # and m upwards within a row, so (-2, -1) is the first negative point.
    bad = BinaryForm(1, 0, 1, linear=(3, 0), const=-1)
    message = "affine exponent -2 is negative at (m,n)=(-2,-1)"
    for theta in (theta_series_binary, ref_theta_binary):
        with pytest.raises(ValueError, match=re.escape(message)):
            theta(bad, 20)


def test_binary_int64_certificate_fails_before_any_array(monkeypatch):
    def no_expansion(*args):
        raise AssertionError("points expanded before the int64 bound")

    monkeypatch.setattr(lattice, "_spread", no_expansion)
    shifted = 1 << 40  # (m + 2^40)^2 + n^2: small values, huge m
    triples = Constraint(2, frozenset({(0, 0, 0)}))
    # Arity, then trunc >= 0, then the int64 certificate, as in the ternary.
    cases = [
        (BinaryForm(1, 0, 1), 1 << 62, None, "int64"),
        (BinaryForm(1, 0, 1, (2 * shifted, 0), shifted * shifted), 10, None, "int64"),
        (BinaryForm(1, 0, 1), 10**6, triples, "constraint arity"),
        (BinaryForm(1, 0, 1), 1 << 62, triples, "constraint arity"),
        (BinaryForm(1, 0, 1, (0, 0), -5), -1, None, "truncation order must be >= 0"),
    ]
    tracemalloc.start()
    try:
        for bform, trunc, constraint, message in cases:
            with pytest.raises(ValueError, match=message):
                theta_series_binary(bform, trunc, constraint)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_ternary_checks_fail_before_any_run_or_array(monkeypatch):
    # Arity, then trunc >= 0, then the int64 certificate: each raises
    # before a run is walked or a count array is allocated.
    def no_walk(*args):
        raise AssertionError("runs walked before the checks")

    monkeypatch.setattr(lattice, "_walk", no_walk)
    monkeypatch.setattr(lattice, "_spread", no_walk)
    huge = TernaryForm(1, 1, 1 << 62, 0, 0, 0)  # small values, huge terms
    pairs = Constraint(4, frozenset({(0, 1)}))
    cases = [
        (lambda: theta_series_ternary(huge, -1, pairs), "constraint arity"),
        (lambda: theta_series_ternary(huge, -1), "truncation order must be >= 0"),
        (lambda: theta_series_ternary(huge, 10, X(1)[2]), "int64"),
        (lambda: theta_series_ternary(identity_form(), 1 << 62), "int64"),
        (lambda: short_vectors(huge, 10), "int64"),
        (lambda: short_vectors(identity_form(), 1 << 62), "int64"),
    ]
    tracemalloc.start()
    try:
        for call, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def walk_runs(form, bound, admit=None, dtype=np.int64):
    """The nonempty runs of lattice._walk, as tuples in their order."""
    blocks = list(lattice._walk(form, bound, dtype, admit))
    runs = np.concatenate(blocks, axis=1) if blocks else np.zeros((6, 0))
    return [tuple(r) for r in runs.T.tolist() if r[1] > 0]


def expand_runs(a, runs):
    """(x, y, z, value) rows of runs, one numpy range per run, less the
    zero vector, as short_vectors leaves it out."""
    rows = [np.zeros((0, 4), dtype=np.int64)]
    for xlo, count, b1, c1, y, z in runs:
        x = np.arange(xlo, xlo + count, dtype=np.int64)
        yz = np.broadcast_to(np.array([y, z], dtype=np.int64), (count, 2))
        rows.append(np.column_stack([x, yz, (a * x + b1) * x + c1]))
    rows = np.concatenate(rows)
    return rows[rows[:, :3].any(axis=1)]


@st.composite
def admit_tables(draw):
    """None, or an (m, m) boolean table of admitted (y, z) residues."""
    if draw(st.booleans()):
        return None
    m = draw(st.integers(1, 6))
    cells = draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m))
    return np.array(cells, dtype=bool).reshape(m, m)


@pytest.mark.parametrize("rows", [1, 7, lattice._ROWS])
@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.tuples(*[st.integers(1, 9)] * 3, *[st.integers(-6, 6)] * 3),
    bound=st.integers(0, 2000),
    admit=admit_tables(),
)
@example(coeffs=(1, 1, 1, 0, 0, 0), bound=0, admit=None)
@example(coeffs=(1, 1, 1, 0, 0, 0), bound=2000, admit=None)
@example(coeffs=(2, 2, 2, -1, 1, 1), bound=1, admit=np.eye(4, dtype=bool))
def test_array_walk_matches_the_row_loop(rows, coeffs, bound, admit):
    # Equal nonempty runs in equal order, in int64 and in Python ints, at
    # every block size.  The loop takes each z's admitted residue classes
    # of y one after another; the walk takes y ascending, so with a table
    # the loop's runs are sorted by (z, y).
    a, b, c, d, e, f = coeffs
    assume(4 * a * b > f * f)
    assume(4 * a * b * c + d * e * f > a * d * d + b * e * e + c * f * f)
    form = TernaryForm(*coeffs)
    expected = [r for r in ref_runs(form, bound, admit) if r[1] > 0]
    if admit is not None:
        expected.sort(key=lambda r: (r[5], r[4]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_ROWS", rows)
        assert walk_runs(form, bound, admit) == expected
        assert walk_runs(form, bound, admit, object) == expected
        vectors = short_vectors(form, bound)
    assert vectors.flags.c_contiguous and vectors.dtype == np.int64
    assert np.array_equal(vectors, expand_runs(form.a, ref_runs(form, bound)))
    assert rep_count_ternary(form, bound) == ref_rep_count(form, bound)


@pytest.mark.parametrize("admit", [None, np.eye(3, dtype=bool)])
def test_blocks_are_bounded_in_rows_within_one_z(admit):
    # (k^2, 1, c, 0, 0, 2k - 1) with c past the bound walks z = 0 alone,
    # on about 2*sqrt(k*bound) rows.  A block never holds more than
    # _ROWS of them; at _ROWS = 1 - ylo a block ends right after the
    # origin's row.
    k, bound = 30, 500
    form = TernaryForm(k * k, 1, bound + 1, 0, 0, 2 * k - 1)
    rows = list(ref_ternary_rows(form, bound))
    assert {z for _y, z, _b1, _c1 in rows} == {0} and len(rows) > 200
    ylo = min(y for y, *_ in rows)
    expected = [r for r in ref_runs(form, bound, admit) if r[1] > 0]
    for size in (1, 64, 1 - ylo, lattice._ROWS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "_ROWS", size)
            blocks = list(lattice._walk(form, bound, np.int64, admit))
            assert max(block.shape[1] for block in blocks) <= size
            if admit is None:
                assert sum(block.shape[1] for block in blocks) == len(rows)
            assert walk_runs(form, bound, admit) == expected
            assert walk_runs(form, bound, admit, object) == expected
            vectors = short_vectors(form, bound)
            theta = theta_series_ternary(form, bound)
            count = rep_count_ternary(form, bound)
        assert np.array_equal(vectors, expand_runs(form.a, ref_runs(form, bound)))
        assert theta == ref_theta_ternary(form, bound)
        assert count == ref_rep_count(form, bound)


def _squares_and_neighbours(ks):
    return [k * k + i for k in ks for i in (-1, 0, 1)]


@pytest.mark.parametrize(
    "values",
    [
        # Next to 2^50.
        _squares_and_neighbours([2**25 - 2, 2**25 - 1]),
        # Next to 2^53 = (2^26.5)^2, where float64 stops holding every integer.
        _squares_and_neighbours([94906265, 94906266, 94906267]),
        # Next to the 2^62 edge of the int64 rows.
        _squares_and_neighbours([2**31 - 2, 2**31 - 1]) + [2**62 - 1],
    ],
)
def test_isqrt_is_exact_next_to_squares(values):
    n = np.array(values, dtype=np.int64)
    expected = [isqrt(v) for v in values]
    assert lattice._isqrt(n).tolist() == expected
    assert lattice._isqrt(n.astype(object)).tolist() == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(-3, 3))
def test_isqrt_matches_math_isqrt(k, offset):
    n = min(max(k * k + offset, 0), 2**62 - 1)
    assert lattice._isqrt(np.array([n], dtype=np.int64)).tolist() == [isqrt(n)]


def largest_certified_bound(form):
    lo, hi = 0, 1 << 62  # _certify_ternary passes at lo and fails at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            lattice._certify_ternary(form, mid)
            lo = mid
        except ValueError:
            hi = mid
    return lo


def test_walk_at_the_largest_certified_bound():
    # z^2 carries nearly 2^62 alone, so the largest bound _certify_ternary
    # admits is small and holds few points; there 4*a*(worst + bound)
    # passes 2^62, and the rows are walked in Python ints.
    form = TernaryForm(1, 1, 2**62 - 2**14, 0, 0, 0)
    top = largest_certified_bound(form)
    assert 4000 < top < 10000
    assert lattice._certify_ternary(form, top) is object
    with pytest.raises(ValueError, match="int64"):
        short_vectors(form, top + 1)
    runs = ref_runs(form, top)
    assert np.array_equal(short_vectors(form, top), expand_runs(form.a, runs))
    assert theta_series_ternary(form, top) == ref_theta_ternary(form, top)
    assert rep_count_ternary(form, top) == ref_rep_count(form, top)
    # x^2 + y^2 + z^2 walks in int64 far past any walk that can finish.
    assert lattice._certify_ternary(identity_form(), 2**55) is np.int64


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 5])
def test_rep_count_past_the_int64_certificate(n):
    # No certificate holds here, yet the count is exact in Python ints.
    form = TernaryForm(1, 1, 1 << 62, 0, 0, 0)
    with pytest.raises(ValueError, match="int64"):
        lattice._certify_ternary(form, max(n, 0))
    assert rep_count_ternary(form, n) == ref_rep_count(form, n)


def test_rep_count_examples():
    assert rep_count_ternary(identity_form(), 2) == 12
    assert rep_count_ternary(TernaryForm(2, 2, 2, -1, 1, 1), 2) == 6
    assert rep_count_ternary(identity_form(), -3) == 0
    assert rep_count_ternary(identity_form(), 0) == 1


def s_of_n(n):
    """Number of representations of n as a sum of three squares."""
    return rep_count_ternary(identity_form(), n)


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


def reference_r2(n_max):
    """r2(0..n_max) by the (a, b) loop over the quarter disc, int64."""
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
    return r2


def reference_s_table(n_max):
    """The z-loop table: one full-length int64 pass per z <= isqrt(n_max)."""
    r2 = reference_r2(n_max)
    s = np.zeros(n_max + 1, dtype=np.int64)
    for z in range(isqrt(n_max) + 1):
        m = z * z
        w = 2 if z > 0 else 1
        s[m:] += w * r2[: n_max + 1 - m]
    return s


def assert_same_table(n_max):
    table = s_table(n_max)
    assert table.dtype == np.int32
    assert np.array_equal(table, reference_s_table(n_max)), n_max


def checked_groups(mp, z_group=lattice._z_group):
    """Check every z-group s_table certifies, and list (columns of r2, group).

    A group of uint16 partial sums is safe when group*max(r2) < _S_ACC.
    """
    seen = []

    def checked(r2):
        group = z_group(r2)
        assert r2.dtype == np.uint16
        assert group >= 1 and group * int(r2.max()) < lattice._S_ACC, (
            r2.shape, group, r2.max())
        seen.append((r2.shape[1], group))
        return group

    mp.setattr(lattice, "_z_group", checked)
    return seen


def sweep_grown(mp, block):
    # One table grown an entry at a time.
    mp.setattr(lattice, "_S_BLOCK", block)
    seen = checked_groups(mp)
    for n_max in range(301):
        assert_same_table(n_max)
    return seen


def sweep_cold(mp, block):
    # Every size built from nothing, so whole runs of blocks are summed.
    mp.setattr(lattice, "_S_BLOCK", block)
    seen = checked_groups(mp)
    for n_max in range(301):
        lattice._S_CACHE.clear()
        assert_same_table(n_max)
    # One certified group per build, over that size's columns of 8.
    assert [cols for cols, _ in seen] == [n // 8 + 1 for n in range(301)]
    return seen


@pytest.mark.parametrize("block", [7, 64])
def test_blocked_s_table_matches_the_z_loop_at_every_block_edge(monkeypatch, block):
    sweep_grown(monkeypatch, block)


@pytest.mark.parametrize("block", [7, 64])
def test_cold_s_table_matches_the_z_loop_at_every_block_edge(monkeypatch, block):
    sweep_cold(monkeypatch, block)


@pytest.mark.parametrize("acc", [2**6, 2**8])
@pytest.mark.parametrize("block", [7, 64])
def test_s_table_flushes_small_partial_sums(monkeypatch, block, acc):
    # With the uint16 limit patched small, groups flush every few z.
    monkeypatch.setattr(lattice, "_S_ACC", acc)
    grown = sweep_grown(monkeypatch, block)
    cold = sweep_cold(monkeypatch, block)
    # Some block of some build has zmax >= isqrt(8 * (cols - 1)) > group.
    assert any(group < isqrt(8 * (cols - 1)) for cols, group in grown + cold)


@pytest.mark.parametrize(
    "n_max",
    [2**17 - 1, 2**17, 2**17 + 1, 3 * 2**17 + 5,
     2**18 - 1, 2**18, 2**18 + 1, 3 * 2**18 + 5],
)
def test_blocked_s_table_matches_the_z_loop_at_the_real_block_size(n_max):
    assert lattice._S_BLOCK == 2**18
    assert_same_table(n_max)


def test_s_table_int32_certificate():
    # s(n) <= 2*(2*isqrt(n)+1)^2 is below 2^31 up to _S_MAX and no further.
    top = lattice._S_MAX
    assert 2 * (2 * isqrt(top) + 1) ** 2 < 2**31 <= 2 * (2 * isqrt(top + 1) + 1) ** 2
    # r2(n) <= 2*(2*isqrt(n)+1) fits the uint16 partial sums up to there.
    assert 2 * (2 * isqrt(top) + 1) < lattice._S_ACC == 2**16
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="int32"):
            s_table(lattice._S_MAX + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def grow_against_the_z_loop(block, acc, sizes):
    # Rising, falling and repeated requests against one cache.
    sizes = sizes + sizes[::-1] + sizes
    reference = reference_s_table(max(sizes))
    lattice._S_CACHE.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_S_BLOCK", block)
        mp.setattr(lattice, "_S_ACC", acc)
        checked_groups(mp)
        for n_max in sizes:
            table = s_table(n_max)
            assert table.dtype == np.int32
            assert np.array_equal(table, reference[: n_max + 1]), (sizes, n_max)


@pytest.mark.parametrize("block", [7, 64])
@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 600), min_size=1, max_size=6))
def test_growing_s_table_matches_the_z_loop(block, sizes):
    grow_against_the_z_loop(block, lattice._S_ACC, sizes)


@pytest.mark.parametrize("acc", [2**6, 2**8])
@pytest.mark.parametrize("block", [7, 64])
@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 600), min_size=1, max_size=6))
def test_growing_s_table_with_small_partial_sums(block, acc, sizes):
    grow_against_the_z_loop(block, acc, sizes)


def test_growing_s_table_across_the_real_block_edge():
    assert lattice._S_BLOCK == 2**18
    s_table(2**18 - 3)
    # The new entries start 3 below the edge and run past two blocks.
    assert_same_table(2**19 + 5)
    assert len(lattice._S_CACHE["s"]) == 2**19 + 6


def plane_value(planes, n):
    """r2(n) read from the planes of lattice._r2_planes."""
    return int(planes[lattice._R2_ROWS.index(n % 8), n // 8])


@pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 9, 50, 1001])
def test_r2_planes_match_the_reference_loop(width):
    n_top = 8 * width - 1
    r2 = reference_r2(n_top)
    planes = lattice._r2_planes(width)
    assert planes.dtype == np.uint16 and planes.shape == (7, width)
    # Row k holds r2(8c + _R2_ROWS[k]); r2 of a negative n is 0.
    padded = np.concatenate([np.zeros(3, dtype=np.int64), r2])
    for row, rho in enumerate(lattice._R2_ROWS):
        assert np.array_equal(planes[row], padded[rho + 3::8][:width]), (row, rho)
    # The fix-ups: the origin, the axis points n = b^2 and the diagonal
    # ones n = 2a^2, where a point's orbit is 1 or 4 and not 8.
    for b in range(isqrt(n_top) + 1):
        assert plane_value(planes, b * b) == r2[b * b], b
        if 2 * b * b <= n_top:
            assert plane_value(planes, 2 * b * b) == r2[2 * b * b], b
    if width >= 7:
        assert [plane_value(planes, n) for n in (0, 1, 2, 25, 50)] == [
            1, 4, 4, 12, 12]
    # A sum of two squares is never 3, 6 or 7 mod 8: those residues have
    # no row, their flat index lies past the planes, and every point of
    # the (a, b) loop lands in one of the five residue rows 2:7.
    for rho in (3, 6, 7):
        assert not r2[rho::8].any()
        assert rho not in lattice._R2_ROWS
    assert int(planes[2:7].sum(dtype=np.int64)) == int(r2.sum())


@pytest.mark.parametrize("block, acc", [(7, 2**6), (64, 2**8), (2**18, 2**16)])
@settings(max_examples=6, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12))
def test_growing_s_table_between_every_pair_of_residues(block, acc, cols, gap):
    # From every old length mod 8 to every new one: a growth recomputes
    # up to 7 old entries of the old length's last column.
    reference = reference_s_table(8 * (cols + gap) + 7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_S_BLOCK", block)
        mp.setattr(lattice, "_S_ACC", acc)
        checked_groups(mp)
        for old in range(8 * cols, 8 * cols + 8):
            for new in range(8 * (cols + gap), 8 * (cols + gap) + 8):
                lattice._S_CACHE.clear()
                assert np.array_equal(s_table(old), reference[: old + 1])
                table = s_table(new)
                assert np.array_equal(table, reference[: new + 1]), (old, new)
                assert len(lattice._S_CACHE["s"]) == max(old, new) + 1


@functools.lru_cache(maxsize=1)
def reference_to(n_max):
    return reference_s_table(n_max)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 2), st.integers(-9, 9))
def test_growing_s_table_at_the_edges_of_the_copy_chunks(old, k, offset):
    # s(4m) = s(m) is copied for m in chunks [m0, 4*m0), m0 = 2*(old // 8)
    # (1 when cold) and times 4 after each, so the targets 4*m reach each
    # chunk edge at 4^(k + 1)*m0.
    reference = reference_to(200000)
    new = max(old, 4 ** (k + 1) * max(2 * (old // 8), 1) + offset)
    assume(new <= 200000)
    lattice._S_CACHE.clear()
    if old:
        s_table(old - 1)
    assert np.array_equal(s_table(new), reference[: new + 1]), (old, new)


@pytest.mark.parametrize("k", range(1, 10))
def test_cold_s_table_across_powers_of_4(k):
    # A cold build copies s(4m) in the chunks [4^j, 4^(j + 1)).
    reference = reference_to(200000) if 4**k < 200000 else reference_s_table(4**k + 9)
    for n_max in (4**k - 1, 4**k, 4**k + 1, 4**k + 4, 4**k + 9):
        lattice._S_CACHE.clear()
        assert np.array_equal(s_table(n_max), reference[: n_max + 1]), n_max


def test_s_table_is_read_only():
    grown = s_table(100)
    view = s_table(50)
    for table in (grown, view):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 0
    assert s_table(100)[1] == 6


def test_s_table_refuses_past_the_certificate_with_a_table_cached():
    cached = s_table(10**6)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="int32"):
            s_table(lattice._S_MAX + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert lattice._S_CACHE["s"] is cached


def test_growing_s_table_peaks_no_higher_than_a_cold_build():
    # Growing drops the old table before r2 exists, so the peak is one
    # new table and one r2, as in a cold build; keeping the old table to
    # the end would add its 2 MiB.
    n_max = 1 << 20
    tracemalloc.start()
    try:
        lattice._S_CACHE.clear()
        tracemalloc.reset_peak()
        s_table(n_max)
        _, cold = tracemalloc.get_traced_memory()
        lattice._S_CACHE.clear()
        s_table(n_max // 2)
        tracemalloc.reset_peak()
        s_table(n_max)
        _, grown = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The slack covers interpreter bookkeeping, not an array.
    assert grown <= cold + (1 << 12), (grown, cold)


def test_cold_s_table_peaks_at_six_bytes_an_entry():
    # An int32 s and a uint16 r2; an int32 r2 would make it 8 bytes.  The
    # slack is the uint16 accumulator of one block and bookkeeping.
    n_max = 1 << 20
    lattice._S_CACHE.clear()
    tracemalloc.start()
    try:
        s_table(n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * (n_max + 1) + 2 * lattice._S_BLOCK + (1 << 17), peak


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2000))
def test_four_routes_to_s_agree(n_max):
    table = s_table(n_max)
    (multiples,) = s_multiples((1,), n_max)
    theta = theta_series_ternary(identity_form(), n_max)
    cube = qs.theta_f(1, 1, n_max).pow(3)
    for n in range(n_max + 1):
        assert int(table[n]) == multiples[n] == theta[n] == cube[n] == s_of_n(n), n


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 700), st.integers(0, 300))
@example(1, 300)
@example(37, 0)
@example(1, 0)
# Points where z^2 = step * n exactly, whose slices start at r2(0):
# 700 * 7 = 70^2, and 9 * n = (3k)^2 at every square n.
@example(700, 7)
@example(9, 300)
def test_s_multiples_match_the_s_table(step, count):
    (s,) = s_multiples((step,), count)
    assert s.dtype == np.int64 and s.shape == (count + 1,)
    assert np.array_equal(s, s_table(step * count)[::step]), (step, count)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=4), st.integers(0, 200))
@example([1, 9, 25], 200)
@example([49, 1], 0)
def test_s_multiples_of_several_steps_match_the_per_step_calls(steps, count):
    # One r2, built to the largest step * count, serves every step.
    rows = s_multiples(steps, count)
    assert rows.dtype == np.int64 and rows.shape == (len(steps), count + 1)
    for row, step in zip(rows, steps):
        (alone,) = s_multiples((step,), count)
        assert np.array_equal(row, alone), (step, count)


def test_s_multiples_refuse_past_the_certificate_before_any_array(monkeypatch):
    # The uint16 r2 is exact up to _S_MAX, the bound s_table uses.
    tracemalloc.start()
    try:
        for step, count in ((1, lattice._S_MAX + 1), (16384, 16384)):
            with pytest.raises(ValueError, match="uint16 r2"):
                s_multiples((step,), count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

    class Reached(Exception):
        pass

    def reached(width):
        raise Reached(width)

    # _S_MAX itself is let through to the r2 build.
    monkeypatch.setattr(lattice, "_r2_planes", reached)
    with pytest.raises(Reached):
        s_multiples((lattice._S_MAX,), 1)


@pytest.mark.parametrize("step, count", [(1, 1 << 20), (1024, 1024)])
def test_s_multiples_hold_r2_and_no_s_table(step, count):
    # r2 as planes and flat, 3.75 bytes an entry, then the flat r2 and
    # the int64 sums; an int32 s table would add 4 bytes an entry.
    top = step * count
    tracemalloc.start()
    try:
        s_multiples((step,), count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The slack is the ufunc cast buffer and bookkeeping, not an array.
    assert peak <= max(3.75 * (top + 8), 2 * (top + 8) + 8 * (count + 1)) + (1 << 17)


def hurwitz6(n_max):
    """6*H(N) for N <= n_max, H the Hurwitz class number (H(0) left 0).

    H(N) counts the reduced forms (a, b, c) of b^2 - 4ac = -N, those with
    |b| <= a <= c and b >= 0 when |b| = a or a = c; a(x^2 + y^2) weighs
    1/2 and a(x^2 + xy + y^2) weighs 1/3.  Such a form has N >= 3a^2.
    """
    h6 = np.zeros(n_max + 1, dtype=np.int64)
    for a in range(1, isqrt(n_max // 3) + 1):
        for b in range(1 - a, a + 1):
            n = 4 * a * np.arange(a, (n_max + b * b) // (4 * a) + 1) - b * b
            h6[n] += 6
            if len(n):
                # c = a: drop b < 0; weigh (a, 0, a) 3 and (a, a, a) 2.
                h6[n[0]] -= 6 if b < 0 else 3 if b == 0 else 4 if b == a else 0
    return h6


@functools.lru_cache(maxsize=1)
def hurwitz6_to(n_max):
    return hurwitz6(n_max)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(0, 100))
@example(13, 100)
def test_gauss_route_to_s_at_multiples_of_p_squared(p, count):
    # s(m) = 12 H(4m) - 24 H(m) at m = p^2 n, n = 1..count, with no s table.
    h6 = hurwitz6_to(4 * 13**2 * 100)
    m = p * p * np.arange(1, count + 1)
    (s,) = s_multiples((p * p,), count)
    assert s[0] == 1
    assert np.array_equal(s[1:], 2 * h6[4 * m] - 4 * h6[m]), (p, count)


def test_gauss_class_number_route_to_s(monkeypatch):
    # Gauss (Disquisitiones, art. 291): s(n) = 12 H(4n) - 24 H(n) for
    # n >= 1, a count of binary forms that shares no lattice code.
    h6 = hurwitz6(80000)
    assert h6[:24].tolist() == [
        0, 0, 0, 2, 3, 0, 0, 6, 6, 0, 0, 6, 8, 0, 0, 12, 9, 0, 0, 6, 12, 0, 0, 18,
    ]
    n_max = 20000
    n = np.arange(1, n_max + 1)
    gauss = 2 * h6[4 * n] - 4 * h6[n]
    assert np.array_equal(gauss, s_table(n_max)[1:])
    batches = []
    spread = lattice._spread

    def counting(*args):
        batches.append(None)
        return spread(*args)

    monkeypatch.setattr(lattice, "_spread", counting)
    theta = theta_series_ternary(identity_form(), n_max)
    assert np.array_equal(gauss, theta.array[1:])
    assert len(batches) > 300  # 11.8 M points


def test_theta_ternary_equals_phi_cubed():
    assert theta_series_ternary(identity_form(), 500) == qs.theta_f(1, 1, 500).pow(3)


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


def test_constraint_arity_mismatch(monkeypatch):
    # A ternary theta checks the arity before it builds any point.
    def no_expansion(*args):
        raise AssertionError("points expanded before the arity check")

    monkeypatch.setattr(lattice, "_spread", no_expansion)
    pairs = Constraint(4, frozenset({(0, 1)}))
    with pytest.raises(ValueError, match="constraint arity does not match 3"):
        theta_series_ternary(TernaryForm(*T_FORM), 4001, pairs)


def test_a_constrained_theta_builds_only_its_admitted_rows(monkeypatch):
    # X(1) admits y = 1 and z = 3 mod 4 with x free: a sixteenth of the
    # rows of T.  Were every row built and masked, in any number of
    # batches, this would fail.
    form = TernaryForm(*T_FORM)
    points = lattice.short_vectors(form, 4001)
    built = []
    spread = lattice._spread

    def counting(*args):
        out = spread(*args)
        built.append(len(out))
        return out

    monkeypatch.setattr(lattice, "_spread", counting)
    theta = theta_series_ternary(form, 4001, X(1)[2])
    assert 0 < 8 * sum(built) <= len(points)
    keep = (points[:, 1] % 4 == 1) & (points[:, 2] % 4 == 3)
    assert theta.coeffs == tuple(np.bincount(points[keep, 3], minlength=4002))


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
    rhs = qs.monomial(200, 1, 2) * qs.theta_f(2, 6, 200) * qs.theta_f(6, 18, 200)
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
    rng = random.Random(20260808)
    for _ in range(10):
        form = random_posdef(rng)
        theta = theta_series_ternary(form, 200)
        reach = max(
            max(abs(x), abs(y), abs(z))
            for x, y, z, _ in ref_ternary_points(form, 200)
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


def test_point_array_bytes_bounds_every_class():
    # Rows of value <= N, the origin's included, for every class of the
    # small discriminants; the sum of three squares comes closest.
    for disc in range(1, 80):
        for form in enumerate_classes(disc):
            for n in (0, 1, 2, 9, 50, 300):
                rows = lattice.short_vectors(form, n)
                assert rows.nbytes + 32 <= point_array_bytes(3, n)
    assert point_array_bytes(3, 300) == 32 * (34 + 2) ** 3
    assert point_array_bytes(2, -1) == 0
