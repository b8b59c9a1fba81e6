"""Reference counts for ternary quadratic forms, written apart from the program.

Nothing here imports `threesquares`, so the benchmark can check the
program's outputs against counts that share no code with it.  A form is
a coefficient tuple (a, b, c, d, e, f) for
a x^2 + b y^2 + c z^2 + d yz + e zx + f xy, with Gram matrix A such that
Q(v) = v^T A v.

Box bounds: on the ellipsoid Q(v) <= n, the largest |v_i| is
sqrt(n * (A^-1)_ii) (Cauchy-Schwarz in the inner product A).  The diagonal
of A^-1 is taken exactly as cofactor / determinant in `Fraction`s, so
every bound is an exact integer floor.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, isqrt

import numpy as np

# Float square roots are exact to within one unit below 2^52, which the
# one-step correction in `_isqrt_array` then repairs.
_FLOAT_EXACT = 1 << 52
_BLOCK = 1 << 17


def gram(form) -> list[list[Fraction]]:
    a, b, c, d, e, f = form
    h = Fraction(1, 2)
    return [
        [Fraction(a), f * h, e * h],
        [f * h, Fraction(b), d * h],
        [e * h, d * h, Fraction(c)],
    ]


def _det3(m) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def disc(form) -> int:
    """4 det(A): the discriminant convention under which x^2+y^2+z^2 has 4."""
    d4 = 4 * _det3(gram(form))
    if d4.denominator != 1:
        raise ValueError(f"form {form} has a non-integral discriminant")
    return int(d4)


def box(form, n: int) -> tuple[int, int, int]:
    """Per-coordinate bounds B_i with |v_i| <= B_i whenever Q(v) <= n."""
    m = gram(form)
    det = _det3(m)
    if m[0][0] <= 0 or m[0][0] * m[1][1] - m[0][1] ** 2 <= 0 or det <= 0:
        raise ValueError(f"form {form} is not positive definite")
    bounds = []
    for i in range(3):
        j, k = [t for t in range(3) if t != i]
        cof = m[j][j] * m[k][k] - m[j][k] * m[k][j]
        bounds.append(isqrt(floor(n * cof / det)))
    return tuple(bounds)


def _isqrt_array(v: np.ndarray) -> np.ndarray:
    """Exact floor square roots of a non-negative int64 array."""
    s = np.sqrt(v.astype(np.float64)).astype(np.int64)
    s -= s * s > v
    s += (s + 1) * (s + 1) <= v
    return s


def count(form, n: int) -> int:
    """r_Q(n): the number of integer vectors v with Q(v) = n.

    Every (x, y) in the box is tried; for each, the quadratic in z is
    solved exactly (an integer root needs a square discriminant and a
    numerator divisible by 2c).
    """
    if n < 0:
        return 0
    a, b, c, d, e, f = form
    bx, by, _bz = box(form, n)
    ys = np.arange(-by, by + 1, dtype=np.int64)
    rows = max(1, _BLOCK // len(ys))
    total = 0
    for x0 in range(-bx, bx + 1, rows):
        xs = np.arange(x0, min(x0 + rows, bx + 1), dtype=np.int64)[:, None]
        lin = d * ys + e * xs
        rest = a * xs * xs + b * ys * ys + f * xs * ys - n
        dz = lin * lin - 4 * c * rest
        if dz.size and int(dz.max()) >= _FLOAT_EXACT:
            raise OverflowError(f"discriminant too large for count({form}, {n})")
        real = dz >= 0
        dz = np.where(real, dz, 0)
        s = _isqrt_array(dz)
        square = real & (s * s == dz)
        plus = square & ((s - lin) % (2 * c) == 0)
        minus = square & (s > 0) & ((-s - lin) % (2 * c) == 0)
        total += int(plus.sum()) + int(minus.sum())
    return total


def bilinear(form, u, v) -> int:
    """Q(u + v) - Q(u) - Q(v)."""
    w = tuple(p + q for p, q in zip(u, v))
    return value(form, w) - value(form, u) - value(form, v)


def value(form, v) -> int:
    a, b, c, d, e, f = form
    x, y, z = v
    return a * x * x + b * y * y + c * z * z + d * y * z + e * z * x + f * x * y


def automorph_count(form) -> int:
    """|Aut(Q)|: integer matrices U with U^T A U = A, counted column by column.

    Column i of U is a vector of value A_ii; the Gram condition fixes the
    three cross terms, and any matrix meeting it has determinant +-1.
    """
    a, b, c, d, e, f = form
    bx, by, bz = box(form, max(a, b, c))
    by_value: dict[int, list] = {a: [], b: [], c: []}
    for x in range(-bx, bx + 1):
        for y in range(-by, by + 1):
            for z in range(-bz, bz + 1):
                q = value(form, (x, y, z))
                if q in by_value:
                    by_value[q].append((x, y, z))
    total = 0
    for v1 in by_value[a]:
        for v2 in by_value[b]:
            if bilinear(form, v1, v2) != f:
                continue
            for v3 in by_value[c]:
                if (
                    bilinear(form, v1, v3) == e
                    and bilinear(form, v2, v3) == d
                ):
                    total += 1
    return total


def legendre(a: int, p: int) -> int:
    """(a|p) for an odd prime p, by Euler's criterion a^((p-1)/2) mod p."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


SUM_OF_SQUARES = (1, 1, 1, 0, 0, 0)
# The paper's h(n) form: 2x^2 + 2y^2 + 2z^2 - yz + zx + xy.
H_FORM = (2, 2, 2, -1, 1, 1)


def s(n: int) -> int:
    return count(SUM_OF_SQUARES, n)
