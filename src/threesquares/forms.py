"""Class-level arithmetic of positive definite ternary forms.

Each class has one Eisenstein-reduced form, its canonical form here as
in Brandt and Intrau's tables and Schiemann (Math. Ann. 308, 1997):
with (a, b, c, d, e, f) the coefficients of x^2, y^2, z^2, yz, zx, xy,
it has a <= b <= c, |f|, |e| <= a, |d| <= b and meets _eisenstein.  Its
diagonal is the successive minima, so reduce_form finds it in a complete
finite set of short-vector triples, and the class scan keeps it as is.

The class scan rests on Gauss's bound for reduced positive ternary forms
(Gauss 1831, in his review of Seeber): with G the half-integral Gram
matrix of a*x^2 + ... + f*xy and D = 4 det G the discriminant used here,
a form whose diagonal is the successive minima has abc <= 2 det G = D/2,
with equality at D = 2 for (1, 1, 1, 1, 1, 1).  So the scan needs only
a^3 <= D/2 and a*b^2 <= D/2.

Both hot loops run as exact numpy code that proves its bound first and
raises ValueError when it cannot; no discriminant small enough to
enumerate comes near.  The class scan takes c as a float quotient checked
in integers, on int32/float32 below 2^24 and int64/float64 below 2^53;
the basis search takes bilinear values as products against V @ G and
determinants as cross * dot in int64 below 2^62, by ascending blocks.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

import numpy as np

from .lattice import TernaryForm, short_vectors
from .qseries import _INT64_SAFE

Matrix = tuple[tuple[int, int, int], ...]


def mat_mul(u: Matrix, v: Matrix) -> Matrix:
    return tuple(
        tuple(sum(u[i][k] * v[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_det(u: Matrix) -> int:
    return (
        u[0][0] * (u[1][1] * u[2][2] - u[1][2] * u[2][1])
        - u[0][1] * (u[1][0] * u[2][2] - u[1][2] * u[2][0])
        + u[0][2] * (u[1][0] * u[2][1] - u[1][1] * u[2][0])
    )


def mat_transpose(u: Matrix) -> Matrix:
    return tuple(tuple(u[j][i] for j in range(3)) for i in range(3))


def apply_transform(form: TernaryForm, u: Matrix) -> TernaryForm:
    """Form with doubled Gram U^T G U; columns of U are the new basis."""
    g = form.gram2()
    ut = mat_transpose(u)
    m = mat_mul(mat_mul(ut, g), u)
    assert m[0][0] % 2 == 0 and m[1][1] % 2 == 0 and m[2][2] % 2 == 0
    return TernaryForm(
        m[0][0] // 2, m[1][1] // 2, m[2][2] // 2, m[1][2], m[0][2], m[0][1]
    )


def _eisenstein(a, b, c, d, e, f):
    """Eisenstein's conditions beyond size reduction, which both callers
    guarantee.  As a, b > 0, each tie on a size bound binds in one octant.
    """
    t = a + b + d + e + f
    ok = ((d > 0) & (e > 0) & (f > 0)) | ((d <= 0) & (e <= 0) & (f <= 0))
    ok &= (t > 0) | ((t == 0) & (2 * a + 2 * e + f <= 0))
    ok &= ((a != b) | (abs(d) <= abs(e))) & ((b != c) | (abs(e) <= abs(f)))
    ok &= ((a != f) | (e <= 2 * d)) & ((a != e) | (f <= 2 * d))
    ok &= ((b != d) | (f <= 2 * e)) & ((a != -f) | (e == 0))
    return ok & ((a != -e) | (f == 0)) & ((b != -d) | (f == 0))


def _icbrt(n: int) -> int:
    """Exact floor cube root of a non-negative integer."""
    if n < 0:
        raise ValueError
    # Integer Newton from 2^ceil(bits/3) >= cbrt(n).  By AM-GM no iterate
    # falls below the floor root, and each one above it strictly falls.
    r = 1 << -(-n.bit_length() // 3)
    while r * r * r > n:
        r = (2 * r + n // (r * r)) // 3
    return r


def _certify(form: TernaryForm, v: np.ndarray) -> None:
    """Check that products of the (n, 3) coordinate array v stay in int64.

    With m the largest coordinate and g the largest doubled-Gram entry, a
    bilinear value u^T G w sums three terms of size <= 3*g*m^2 and a
    determinant (u x w) . t three of size <= 2*m^3; both must stay below
    2^62.
    """
    m = max(int(v.max(initial=0)), -int(v.min(initial=0)))
    g = max(abs(x) for x in form.as_tuple()) * 2
    if max(9 * g * m * m, 6 * m ** 3) >= _INT64_SAFE:
        raise ValueError(f"reduction of {form} overflows int64")


def _cross(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise cross products of two (n, 3) arrays (w may be one row)."""
    u0, u1, u2 = u.T
    w0, w1, w2 = w.T
    return np.stack((u1 * w2 - u2 * w1, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0), 1)


def _minima(form: TernaryForm):
    """First two successive minima, and the short vectors that found them.

    Returns (lam1, lam2, top, vecs) with vecs = short_vectors(form, top).
    lam1 * lam2^2 <= D/2 by Gauss's bound (module docstring), so
    top > isqrt(D) covers both minima.  The wider top reaches more third
    vectors, which saves the reduction a second enumeration.
    """
    d = form.disc()
    top = max(isqrt(d), 2 * _icbrt(d // 2) + 2) + 1
    vecs = short_vectors(form, top)
    v, vals = vecs[:, :3], vecs[:, 3]
    _certify(form, v)
    lam1 = int(vals.min())
    first = v[np.argmax(vals == lam1)]
    apart = _cross(v, first).any(axis=1)
    return lam1, int(vals[apart].min()), top, vecs


def reduce_form_with_transform(form: TernaryForm) -> tuple[TernaryForm, Matrix]:
    """Eisenstein-reduced form and a transform U with U^T G_F U = G_reduced.

    Searches bases (v1, v2, v3) with values (lam1, lam2, c) and cross
    terms inside the size bounds; the first feasible c is the third
    minimum, and the one (d, e, f) at that c meeting _eisenstein is the
    Eisenstein form's tail (Schiemann 1997).  The vector bound
    D/(3*lam1*lam2) + lam2 provably covers every admissible third
    diagonal, and the first feasible c does not depend on how far the
    vectors reach beyond it, so the vectors of _minima serve whenever
    they reach that bound.
    """
    d = form.disc()
    lam1, lam2, top, vecs = _minima(form)
    bound = d // (3 * lam1 * lam2) + lam2 + 1
    if bound > top:
        vecs = short_vectors(form, bound)
        _certify(form, vecs[:, :3])
    reduced, u = _reduce_search(form, lam1, lam2, vecs)
    assert apply_transform(form, u) == reduced
    return reduced, u


# Pairs x third vectors per block of the basis search: bounds its memory.
_SEARCH_BLOCK = 1 << 16


def _reduce_search(form, lam1, lam2, vecs):
    """The Eisenstein form of the class and a basis U that gives it.

    Over bases of values (lam1, lam2, c), exactly one (c, d, e, f) meets
    _eisenstein, at the least feasible c (Schiemann 1997; asserted).  vecs
    is a short_vectors array reaching at least lam2, already passed
    through _certify.  Pairs (v1, v2) and third vectors keep the order of
    short_vectors, and U is the first basis in that order.  Third vectors
    are scanned in ascending value blocks of about _SEARCH_BLOCK /
    len(pairs), split only between values, and the scan stops at the
    first block that holds a unimodular basis.
    """
    v, vals = vecs[:, :3], vecs[:, 3]
    g = np.array(form.gram2(), dtype=np.int64)
    v1, v2 = v[vals == lam1], v[vals == lam2]
    fmat = v1 @ g @ v2.T
    # Some pair exists: were |f| > lam1 for the minima, v2 -+ v1 would be shorter.
    i1, i2 = np.nonzero(np.abs(fmat) <= lam1)
    p1, p2, fcoef = v1[i1], v2[i2], fmat[i1, i2]
    p1g, p2g, cross = p1 @ g, p2 @ g, _cross(p1, p2)
    order = np.argsort(vals, kind="stable")
    cvals = vals[order]
    start = int(np.searchsorted(cvals, lam2))
    step = max(1, _SEARCH_BLOCK // len(p1))
    while start < len(order):
        stop = int(np.searchsorted(
            cvals, cvals[min(start + step, len(order)) - 1], side="right"
        ))
        v3 = v[order[start:stop]].T
        ecoef, dcoef = p1g @ v3, p2g @ v3
        ok = (np.abs(ecoef) <= lam1) & (np.abs(dcoef) <= lam2)
        ok &= np.abs(cross @ v3) == 1
        i, j = np.nonzero(ok)
        if len(i):
            c, d, e, f = cvals[start:stop][j], dcoef[i, j], ecoef[i, j], fcoef[i]
            (ks,) = np.nonzero(_eisenstein(lam1, lam2, c, d, e, f))
            tails = set(zip(*(x[ks].tolist() for x in (c, d, e, f))))
            assert len(tails) == 1, f"{form}: Eisenstein tails {tails}"
            k = ks[0]
            u = np.stack((p1[i[k]], p2[i[k]], v3[:, j[k]]), 1).tolist()
            reduced = TernaryForm(lam1, lam2, *(int(x[k]) for x in (c, d, e, f)))
            return reduced, tuple(map(tuple, u))
        start = stop
    raise AssertionError(f"no basis of {form} reaches the third minimum")


def reduce_form(form: TernaryForm) -> TernaryForm:
    return reduce_form_with_transform(form)[0]


def automorphs(form: TernaryForm) -> list[Matrix]:
    """All integer changes of variables fixing the form (a finite group).

    Columns (v1, v2, v3) of values (a, b, c) whose bilinear values match
    (f, e, d), in short_vectors order with v1 slowest: the pairs come
    from one matrix product, then their third vectors from two more.
    """
    a, b, c, d, e, f = form.as_tuple()
    vecs = short_vectors(form, max(a, b, c))
    v, vals = vecs[:, :3], vecs[:, 3]
    _certify(form, v)
    g = np.array(form.gram2(), dtype=np.int64)
    v1, v2, v3 = v[vals == a], v[vals == b], v[vals == c]
    v1g = v1 @ g
    i1, i2 = np.nonzero(v1g @ v2.T == f)
    i, j = np.nonzero((v1g[i1] @ v3.T == e) & (v2[i2] @ g @ v3.T == d))
    cols = np.stack((v1[i1[i]], v2[i2[i]], v3[j]), 2)
    result = [tuple(map(tuple, u)) for u in cols.tolist()]
    # Matching the full Gram forces det = +-1.
    assert all(mat_det(u) in (1, -1) for u in result)
    return result


def automorph_count(form: TernaryForm) -> int:
    return len(automorphs(form))


def _scan_bound_b(disc: int, a: int) -> int:
    """Bound on b at leading coefficient a: a*b^2 <= D/2 by Gauss's bound."""
    return isqrt(disc // (2 * a))


# Cells per block of the class scan, and the bound of its int32/float32 tier.
_SCAN_BLOCK, _SCAN_NARROW = 1 << 14, 1 << 24


def _candidates(disc: int) -> set[tuple[int, int, int, int, int, int]]:
    """The primitive Eisenstein-reduced forms of a discriminant, as tuples.

    They lie in the octants d, e, f > 0 and <= 0, scanned as |d|, |e|, |f|
    with a sign s = 0 or 1; the tail (0, 0, 0), in both, is one set entry.
    Each a meets rows b = a..min(_scan_bound_b(disc, a), bc), d = 0..b
    with f, e <= a, _SCAN_BLOCK cells at a time.  In D = c(4ab-f^2) + def
    - ad^2 - be^2 the factor 4ab - f^2 >= 3ab is positive, so c >= b, |d|
    <= b and |e|, |f| <= a give D >= 4ab^2 - 3a^2 b - ab^2 = 3ab(b - a):
    no cell of a row with 3ab(b - a) > D keeps c >= b, and the largest b
    with 3ab^2 - 3a^2 b <= D is bc = (3a^2 + isqrt(9a^4 + 12aD)) // 6a
    (the floors of lattice._x_range).  In the same D,
    num <= D + 2ba^2 + ab^2 and den <= 4ab are below worst, hence exact
    floats below 2^(significand bits + 1): c = rint(num/den) is exact where
    den | num, and any other c fails c*den (< num + den) == num in integers.
    """
    amax, bmax = _icbrt(disc // 2), _scan_bound_b(disc, 1)
    worst = disc + amax * bmax * (2 * amax + bmax + 4)
    if worst >= 1 << 53:
        raise ValueError(f"class scan of discriminant {disc} is not exact on "
                         f"int64/float64 (worst intermediate {worst} >= 2^53)")
    ity, fty = [(np.int32, np.float32), (np.int64, np.float64)][worst >= _SCAN_NARROW]
    rows = np.arange(bmax + 1, dtype=ity)
    tri_b = np.repeat(rows, rows + 1)  # row b holds d = 0..b from b(b+1)/2
    tri_d = np.arange(len(tri_b), dtype=ity) - (tri_b * (tri_b + 1) >> 1)
    hits = [np.zeros((5, 0), ity)]
    for a in range(1, amax + 1):
        f, e = np.divmod(np.arange((a + 1) ** 2, dtype=ity), a + 1)
        ff, ee, ef, step = f * f, e * e, e * f, max(1, _SCAN_BLOCK // len(f))
        bc = (3 * a * a + isqrt(9 * a**4 + 12 * a * disc)) // (6 * a)
        stop = np.searchsorted(tri_b, min(_scan_bound_b(disc, a), bc), "right")
        for lo in range(a * (a + 1) >> 1, stop, step):
            b, d = (x[lo:min(lo + step, stop), None] for x in (tri_b, tri_d))
            den, base, dfe = 4 * a * b - ff, disc + a * d * d + b * ee, d * ef
            num = np.stack((base - dfe, base + dfe))
            c = np.rint(num.astype(fty) / den.astype(fty)).astype(ity)
            s, i, j = np.nonzero(c * den == num)
            if len(s):  # most blocks hold no hit: keep no array for them
                hits.append(np.stack((np.full_like(s, a), s, i + lo, j, c[s, i, j])))
    a, s, i, j, c = np.concatenate(hits, axis=1)
    (f, e), b, sg = np.divmod(j, a + 1), tri_b[i], 1 - 2 * s
    d, e, f = sg * tri_d[i], sg * e, sg * f
    keep = (c >= b) & _eisenstein(a, b, c, d, e, f)
    keep &= np.gcd(np.gcd(np.gcd(a, b), np.gcd(c, d)), np.gcd(e, f)) == 1
    return set(zip(*(x[keep].tolist() for x in (a, b, c, d, e, f))))


@lru_cache(maxsize=None)
def enumerate_classes(disc: int) -> tuple[TernaryForm, ...]:
    """The Eisenstein forms of the primitive classes of a discriminant, sorted.

    Each class has one, inside the region of _candidates: none is reduced.
    Imprimitive forms, t times a form of discriminant disc/t^3 for their
    coefficient gcd t, belong to a smaller discriminant's classification.
    """
    if disc < 1:
        raise ValueError("discriminant must be positive")
    return tuple(TernaryForm(*t) for t in sorted(_candidates(disc)))


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, via Euler's criterion."""
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


# Miller-Rabin with the first 13 prime bases is a proof of primality
# below _PRIME_PROVEN: the least composite passing all of them is
# psi_13 = 3317044064679887385961981 (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_PROVEN = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above _PRIME_PROVEN."""
    if n >= _PRIME_PROVEN:
        raise ValueError(f"primality of {n} is not proven above {_PRIME_PROVEN - 1}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
