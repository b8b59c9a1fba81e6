"""Class-level arithmetic of positive definite ternary forms.

Reduction works through short vectors rather than coefficient moves: the
canonical representative of a class is the lexicographically smallest
coefficient tuple among all equivalent forms satisfying the size bounds
a <= b <= c, |f| <= a, |e| <= a, |d| <= b.  Its diagonal is exactly the
triple of successive minima (attained by a basis in rank 3), so the
search space is a provably complete finite set of short-vector triples.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .lattice import TernaryForm, short_vectors

Matrix = tuple[tuple[int, int, int], ...]

IDENTITY: Matrix = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


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


def mat_inverse_unimodular(u: Matrix) -> Matrix:
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


def apply_transform(form: TernaryForm, u: Matrix) -> TernaryForm:
    """Form with doubled Gram U^T G U; columns of U are the new basis."""
    g = form.gram2()
    ut = mat_transpose(u)
    m = mat_mul(mat_mul(ut, g), u)
    assert m[0][0] % 2 == 0 and m[1][1] % 2 == 0 and m[2][2] % 2 == 0
    return TernaryForm(
        m[0][0] // 2, m[1][1] // 2, m[2][2] // 2, m[1][2], m[0][2], m[0][1]
    )


def _icbrt(n: int) -> int:
    """Exact floor cube root of a non-negative integer."""
    if n < 0:
        raise ValueError
    r = round(n ** (1 / 3))
    while r * r * r > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def _minima(form: TernaryForm) -> tuple[int, int]:
    """First two successive minima of a positive definite ternary form."""
    d = form.disc()
    # lam1^3 <= 2 det(G) = D/2 by the rank-3 Hermite bound.
    vecs = short_vectors(form, _icbrt(d // 2) + 1)
    lam1 = min(v for _, v in vecs)
    # lam2 <= max(isqrt(D//lam1), 2*lam1), see _scan_bound_b.
    bound2 = max(isqrt(d // lam1), 2 * lam1) + 1
    vecs = short_vectors(form, bound2)
    vecs.sort(key=lambda p: p[1])
    first = next(v for v, val in vecs if val == lam1)
    lam2 = None
    for v, val in vecs:
        if not _parallel(v, first):
            lam2 = val
            break
    assert lam2 is not None
    return lam1, lam2


def _parallel(u, v) -> bool:
    return (
        u[0] * v[1] == u[1] * v[0]
        and u[0] * v[2] == u[2] * v[0]
        and u[1] * v[2] == u[2] * v[1]
    )


def _det_cols(v1, v2, v3) -> int:
    return mat_det(mat_transpose((v1, v2, v3)))


def reduce_form_with_transform(form: TernaryForm) -> tuple[TernaryForm, Matrix]:
    """Canonical representative and a transform U with U^T G_F U = G_canonical.

    Searches bases (v1, v2, v3) with values (lam1, lam2, c) and cross
    terms inside the size bounds; the first feasible c is the third
    minimum, and the smallest (d, e, f) at that c is the canonical tail.
    The vector bound D/(3*lam1*lam2) + lam2 provably covers every
    admissible third diagonal; enumeration starts much lower and doubles
    toward it, since the third minimum is usually near the cube root.
    """
    d = form.disc()
    lam1, lam2 = _minima(form)
    hard_bound = d // (3 * lam1 * lam2) + lam2 + 1
    bound = min(hard_bound, max(lam2 + 1, 2 * _icbrt(d)))
    while True:
        found = _reduce_search(form, lam1, lam2, bound)
        if found is not None:
            best, best_basis = found
            break
        assert bound < hard_bound, "reduction search must find a basis"
        bound = min(2 * bound, hard_bound)
    u = mat_transpose(best_basis)
    reduced = TernaryForm(*best)
    assert apply_transform(form, u) == reduced
    return reduced, u


def _reduce_search(form, lam1, lam2, bound):
    by_value: dict[int, list] = {}
    for v, val in short_vectors(form, bound):
        by_value.setdefault(val, []).append(v)
    pairs = []
    for v1 in by_value[lam1]:
        for v2 in by_value[lam2]:
            fcoef = form.bilinear(v1, v2)
            if abs(fcoef) <= lam1:
                pairs.append((v1, v2, fcoef))
    best = None
    best_basis = None
    for cval in sorted(v for v in by_value if v >= lam2):
        for v1, v2, fcoef in pairs:
            for v3 in by_value[cval]:
                ecoef = form.bilinear(v1, v3)
                if abs(ecoef) > lam1:
                    continue
                dcoef = form.bilinear(v2, v3)
                if abs(dcoef) > lam2:
                    continue
                if _det_cols(v1, v2, v3) not in (1, -1):
                    continue
                key = (lam1, lam2, cval, dcoef, ecoef, fcoef)
                if best is None or key < best:
                    best = key
                    best_basis = (v1, v2, v3)
        if best is not None:
            return best, best_basis
    return None


def reduce_form(form: TernaryForm) -> TernaryForm:
    return reduce_form_with_transform(form)[0]


def equivalent_forms(f: TernaryForm, g: TernaryForm):
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


def automorphs(form: TernaryForm) -> list[Matrix]:
    """All integer changes of variables fixing the form (a finite group)."""
    a, b, c, d, e, f = form.as_tuple()
    vecs = short_vectors(form, max(a, b, c))
    by_value: dict[int, list] = {}
    for v, val in vecs:
        by_value.setdefault(val, []).append(v)
    result = []
    for v1 in by_value.get(a, ()):
        for v2 in by_value.get(b, ()):
            if form.bilinear(v1, v2) != f:
                continue
            for v3 in by_value.get(c, ()):
                if form.bilinear(v1, v3) != e:
                    continue
                if form.bilinear(v2, v3) != d:
                    continue
                # Matching the full Gram forces det = +-1.
                u = mat_transpose((v1, v2, v3))
                assert mat_det(u) in (1, -1)
                result.append(u)
    return result


def automorph_count(form: TernaryForm) -> int:
    return len(automorphs(form))


def _primitive(*coeffs: int) -> bool:
    from math import gcd

    g = 0
    for c in coeffs:
        g = gcd(g, c)
    return g == 1


def _scan_bound_b(disc: int, a: int) -> int:
    """Upper bound for b over canonical forms with leading coefficient a.

    From D = c(4ab-f^2) + def - ad^2 - be^2 and the size bounds: either
    a <= b/2, which forces a*b^2 <= D, or b < 2a.
    """
    return max(isqrt(disc // a), 2 * a)


@lru_cache(maxsize=None)
def enumerate_classes(disc: int) -> tuple[TernaryForm, ...]:
    """Canonical representatives of every primitive class of a discriminant.

    Scans the complete region containing all size-reduced forms (leading
    coefficient up to the Hermite bound, sign-coupled off-diagonals) and
    merges the candidates into classes by reducing every one of them to
    its canonical form.  Imprimitive forms are excluded: a form with
    coefficient gcd t is t times a form of discriminant disc/t^3, so it
    belongs to a smaller discriminant's classification.
    """
    if disc < 1:
        raise ValueError("discriminant must be positive")
    candidates = set()
    # Sign flips of the variables couple the off-diagonal signs pairwise,
    # so every class has a size-reduced form with d, e, f all >= 0 or all
    # strictly negative; scanning those two patterns is complete.
    for a in range(1, _icbrt(disc // 2) + 1):
        for b in range(a, _scan_bound_b(disc, a) + 1):
            for f in range(0, a + 1):
                den = 4 * a * b - f * f
                for e in range(0, a + 1):
                    base = disc + b * e * e
                    for dd in range(0, b + 1):
                        num = base - dd * e * f + a * dd * dd
                        cc, rem = divmod(num, den)
                        if rem == 0 and cc >= b and _primitive(a, b, cc, dd, e, f):
                            candidates.add((a, b, cc, dd, e, f))
                        if dd and e and f:
                            num2 = base + dd * e * f + a * dd * dd
                            cc2, rem2 = divmod(num2, den)
                            if (
                                rem2 == 0
                                and cc2 >= b
                                and _primitive(a, b, cc2, dd, e, f)
                            ):
                                candidates.add((a, b, cc2, -dd, -e, -f))
    canon = {reduce_form(TernaryForm(*t)).as_tuple() for t in candidates}
    return tuple(TernaryForm(*t) for t in sorted(canon))


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, via Euler's criterion."""
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True
