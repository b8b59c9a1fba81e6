"""Exact representation counts and theta series of definite quadratic forms.

All enumeration bounds are derived in integer arithmetic (isqrt on exact
discriminants), never floating point, so every reported count is provably
complete.  Ternary forms are written a*x^2 + b*y^2 + c*z^2 + d*yz + e*zx
+ f*xy and binary forms a*m^2 + b*mn + c*n^2, optionally with a linear
part (u, v) and a constant shift added to the exponent.

Points come from one run generator per arity (_runs, over the rows of
_ternary_rows; the n-loop of theta_series_binary) and one expansion of
runs into int64 arrays, _spread.  Every caller proves its int64 bound
before expanding, or raises ValueError.  short_vectors expands all its
runs into one array.  The ternary theta streams them instead: it
expands and counts about _CHUNK points at a time and never holds them
all.  A constrained ternary theta walks only the rows (y, z) whose
residues some allowed tuple has, and masks x on those; the binary
theta builds every row, since it checks each point for a negative
affine exponent.

s_table returns a read-only prefix view of the largest s table built so
far.  That table is held for the whole process in the module dict
_S_CACHE, and a larger request grows it.  Its z-sum runs on uint16 r2
values, summed in uint16 partial sums whose group size the exact max
of r2 certifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .qseries import _INT64_SAFE, QSeries


@dataclass(frozen=True)
class TernaryForm:
    a: int
    b: int
    c: int
    d: int
    e: int
    f: int

    def __post_init__(self) -> None:
        if not self.is_positive_definite():
            raise ValueError(f"form {self.as_tuple()} is not positive definite")

    def is_positive_definite(self) -> bool:
        a, b, c, d, e, f = self.as_tuple()
        if a <= 0 or 4 * a * b - f * f <= 0:
            return False
        return self.gram2_det() > 0

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    def gram2(self) -> tuple[tuple[int, int, int], ...]:
        """Doubled Gram matrix (symmetric, even diagonal)."""
        a, b, c, d, e, f = self.as_tuple()
        return ((2 * a, f, e), (f, 2 * b, d), (e, d, 2 * c))

    def gram2_det(self) -> int:
        a, b, c, d, e, f = self.as_tuple()
        return 2 * (4 * a * b * c + d * e * f - a * d * d - b * e * e - c * f * f)

    def disc(self) -> int:
        """Half the determinant of the doubled Gram matrix (always integral)."""
        det = self.gram2_det()
        assert det % 2 == 0
        return det // 2

    def value(self, x: int, y: int, z: int) -> int:
        a, b, c, d, e, f = self.as_tuple()
        return (
            a * x * x + b * y * y + c * z * z
            + d * y * z + e * z * x + f * x * y
        )

    def bilinear(self, u, v) -> int:
        """u^T G v for the doubled Gram G, i.e. Q(u+v) - Q(u) - Q(v)."""
        g = self.gram2()
        return sum(u[i] * g[i][j] * v[j] for i in range(3) for j in range(3))

    def __str__(self) -> str:
        return "({},{},{},{},{},{})".format(*self.as_tuple())


@dataclass(frozen=True)
class BinaryForm:
    """a*m^2 + b*mn + c*n^2, plus an optional affine part u*m + v*n + w."""

    a: int
    b: int
    c: int
    linear: tuple[int, int] = (0, 0)
    const: int = 0

    def __post_init__(self) -> None:
        if self.a <= 0 or self.b * self.b - 4 * self.a * self.c >= 0:
            raise ValueError(
                f"binary quadratic part ({self.a},{self.b},{self.c}) "
                "is not positive definite"
            )

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def value(self, m: int, n: int) -> int:
        u, v = self.linear
        return (
            self.a * m * m + self.b * m * n + self.c * n * n
            + u * m + v * n + self.const
        )


@dataclass(frozen=True)
class Constraint:
    """Admissible residue tuples for the variables, modulo a fixed modulus."""

    modulus: int
    allowed: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("constraint modulus must be >= 1")
        arities = {len(t) for t in self.allowed}
        if len(arities) > 1:
            raise ValueError("constraint tuples have inconsistent arity")
        for t in self.allowed:
            if any(not 0 <= r < self.modulus for r in t):
                raise ValueError("constraint residues must lie in [0, modulus)")


def _x_range(aa: int, bb: int, cc: int, n: int):
    """Integer solutions of aa*x^2 + bb*x + cc <= n (aa > 0), as lo, hi.

    With disc = bb^2 - 4*aa*(cc-n) and s = isqrt(disc), the admissible
    integers are exactly -((bb+s)//(2aa)) .. (-bb+s)//(2aa): an integer
    multiple of 2aa can never fall strictly between the integer bb+s and
    the real bb+sqrt(disc), so the floors agree.
    """
    disc = bb * bb - 4 * aa * (cc - n)
    if disc < 0:
        return 1, 0
    s = isqrt(disc)
    return -((bb + s) // (2 * aa)), (-bb + s) // (2 * aa)


def _ternary_rows(form: TernaryForm, bound: int, admit=None):
    """Yield (y, z, b1, c1) for every row holding a triple of value <= bound.

    On row (y, z) the value is a*x^2 + b1*x + c1.  Completing the square
    in x (Fincke & Pohst, Math. Comp. 44, 1985) turns the bound into
    P2(y,z) <= 4*a*bound, with P2 = (4ab-f^2) y^2 + (4ad-2ef) yz
    + (4ac-e^2) z^2 and 4*(4ab-f^2)*(4ac-e^2) - (4ad-2ef)^2 = 16*a*disc.
    So every yielded row has b1^2 - 4*a*(c1 - bound) = 4*a*bound - P2 >= 0.

    Rows come z ascending, then y ascending.  An (m, m) boolean table
    admit keeps only the rows with admit[y % m, z % m]: a z with no
    admitted y is skipped, and on any other z each admitted residue
    class of y is walked upwards in steps of m, one class after
    another, so a rejected row costs nothing.  Without admit the walk
    is the one class of m = 1.
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


def _runs(form: TernaryForm, bound: int, admit=None):
    """Yield runs (xlo, count, b1, c1, y, z) covering every triple v != 0
    with form(v) <= bound, one per row of _ternary_rows with x ascending.

    The run is x = xlo .. xlo + count - 1 at value a*x^2 + b1*x + c1.  The
    row through the origin is split in two runs, xlo..-1 and 1..-xlo.
    """
    a = form.a
    for y, z, b1, c1 in _ternary_rows(form, bound, admit):
        xlo, xhi = _x_range(a, b1, c1, bound)
        if y == z == 0:
            yield xlo, -xlo, b1, c1, y, z
            xlo = 1
        if xlo <= xhi:
            yield xlo, xhi - xlo + 1, b1, c1, y, z


def _certify_ternary(form: TernaryForm, bound: int) -> None:
    """Raise ValueError unless every run of _runs(form, bound) expands in
    int64.

    Every coordinate obeys x_i^2 <= bound * adj(G)_ii / disc (adj of the
    doubled Gram G), so bounding each term of a*x^2 + b1*x + c1 by those
    maxima bounds every intermediate of _spread.
    """
    a, b, c, d, e, f = form.as_tuple()
    disc = form.disc()
    n = max(bound, 0)
    xm, ym, zm = (
        isqrt(n * adj // disc) + 1
        for adj in (4 * b * c - d * d, 4 * a * c - e * e, 4 * a * b - f * f)
    )
    worst = (
        a * xm * xm + (abs(f) * ym + abs(e) * zm) * xm
        + b * ym * ym + c * zm * zm + abs(d) * ym * zm
    )
    if worst >= _INT64_SAFE:
        raise ValueError(
            f"short vectors up to {bound} of {form} overflow int64 "
            f"(worst intermediate {worst} >= 2^62)"
        )


def _spread(a: int, rows: list, ncoord: int) -> np.ndarray:
    """Expand runs (xlo, count, b1, c1, *coords) into rows
    (x, *coords[:ncoord], value); coordinates past ncoord are dropped.

    A run is x = xlo .. xlo + count - 1 with value a*x^2 + b1*x + c1; rows
    come out run by run, x ascending.  The caller certifies int64.
    """
    width = len(rows[0]) if rows else 4 + ncoord
    runs = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    xlo, count, b1, c1, *coords = runs.T
    starts = np.cumsum(count) - count
    out = np.empty((int(count.sum()), ncoord + 2), dtype=np.int64)
    x = out[:, 0]
    x[:] = np.repeat(xlo - starts, count)
    x += np.arange(len(out), dtype=np.int64)
    for i, col in enumerate(coords[:ncoord], 1):
        out[:, i] = np.repeat(col, count)
    val = out[:, -1]
    np.multiply(x, a, out=val)
    val += np.repeat(b1, count)
    val *= x
    val += np.repeat(c1, count)
    return out


def short_vectors(form: TernaryForm, bound: int, admit=None) -> np.ndarray:
    """All integer triples v != 0 with form(v) <= bound, with their values.

    One (n, 4) int64 array of rows (x, y, z, value): the runs of _runs,
    expanded by one _spread in their order.  An (m, m) boolean table
    admit keeps only the rows (y, z) with admit[y % m, z % m] (see
    _ternary_rows).  The int64 certificate (_certify_ternary) is checked
    before any row is walked; a larger bound raises ValueError.
    """
    _certify_ternary(form, bound)
    return _spread(form.a, list(_runs(form, bound, admit)), 2)


def _residue_table(constraint, arity: int):
    """None, or a constraint's allowed residues as a boolean table of
    shape (modulus,) * arity; a tuple of another arity raises ValueError.
    """
    if constraint is None:
        return None
    if any(len(t) != arity for t in constraint.allowed):
        raise ValueError(f"constraint arity does not match {arity} variables")
    table = np.zeros((constraint.modulus,) * arity, dtype=bool)
    for t in constraint.allowed:
        table[t] = True
    return table


def _histogram(trunc: int, points: np.ndarray, table) -> np.ndarray:
    """Counts of the values 0..trunc in the last column of points.

    A residue table (see _residue_table) keeps the rows whose
    coordinates' residues it allows.
    """
    values = points[:, -1]
    if table is not None:
        values = values[table[tuple((points[:, :-1] % len(table)).T)]]
    return np.bincount(values, minlength=trunc + 1)


# Points a streamed theta expands per batch.  An unconstrained batch,
# its (x, value) rows and _spread's temporaries, peaks near 1 MB, inside
# a 2 MB L2 cache; 2^14 and 2^16 were no faster on a 2-vCPU Xeon.
_CHUNK = 1 << 15


def _batches(runs):
    """Group runs into lists of at least _CHUNK points, the last excepted."""
    batch, size = [], 0
    for run in runs:
        batch.append(run)
        size += run[1]
        if size >= _CHUNK:
            yield batch
            batch, size = [], 0
    if batch:
        yield batch


def theta_series_ternary(
    form: TernaryForm, trunc: int, constraint: Constraint | None = None
) -> QSeries:
    """Theta series: coefficient of q^n counts triples with form value n.

    The nonzero triples are those of short_vectors(form, trunc), walked
    by the same _runs, but no array of them is built: batches of about
    _CHUNK points are expanded and counted in turn, so memory is set by
    _CHUNK and trunc, not by the number of points.
    The constraint's arity, trunc >= 0 and the int64 certificate are
    checked in that order, before any run is walked.  A constraint's
    points are built only on the rows (y, z) whose residues some allowed
    tuple has, and the full constraint keeps the points whose x it
    allows too; without one, a point is only (x, value).  The origin is
    counted by the same constraint rule.
    """
    table = _residue_table(constraint, 3)
    if trunc < 0:
        raise ValueError("truncation order must be >= 0")
    _certify_ternary(form, trunc)
    admit = None if table is None else table.any(axis=0)
    ncoord = 0 if table is None else 2
    counts = np.zeros(trunc + 1, dtype=np.int64)
    for batch in _batches(_runs(form, trunc, admit)):
        counts += _histogram(trunc, _spread(form.a, batch, ncoord), table)
    counts[0] += 1 if table is None else int(table[0, 0, 0])
    return QSeries(trunc, counts)


def theta_series_binary(
    bform: BinaryForm, trunc: int, constraint: Constraint | None = None
) -> QSeries:
    """Theta series of a binary form, affine part included in the exponent.

    One _spread run of m per admissible n.  Both |m| and |n| are at most
    xm (complete the square in the other variable), which certifies int64
    before any array is built.  A failed bound raises ValueError, as does
    an affine instance that reaches a negative exponent.
    """
    a, b, c = bform.as_tuple()
    u, v = bform.linear
    w = bform.const
    # n is admissible iff (4ac-b^2) n^2 + (4av-2bu) n + (4aw-u^2) <= 4a*trunc,
    # and m iff the same holds with a, c and u, v swapped.
    d = 4 * a * c - b * b
    nlo, nhi = _x_range(d, 4 * a * v - 2 * b * u, 4 * a * w - u * u, 4 * a * trunc)
    mlo, mhi = _x_range(d, 4 * c * u - 2 * b * v, 4 * c * w - v * v, 4 * c * trunc)
    xm = max(abs(mlo), abs(mhi), abs(nlo), abs(nhi))
    worst = (a + abs(b) + c) * xm * xm + (abs(u) + abs(v)) * xm + abs(w)
    if worst >= _INT64_SAFE:
        raise ValueError(
            f"binary theta up to {trunc} of {bform} overflows int64 "
            f"(worst intermediate {worst} >= 2^62)"
        )
    rows = []
    for n in range(nlo, nhi + 1):
        b1 = b * n + u
        c1 = c * n * n + v * n + w
        lo, hi = _x_range(a, b1, c1, trunc)
        if lo <= hi:
            rows.append((lo, hi - lo + 1, b1, c1, n))
    points = _spread(a, rows, 1)
    negative = np.flatnonzero(points[:, 2] < 0)
    if len(negative):
        m, n, val = points[negative[0]].tolist()
        raise ValueError(f"affine exponent {val} is negative at (m,n)=({m},{n})")
    table = _residue_table(constraint, 2)
    if trunc < 0:
        raise ValueError("truncation order must be >= 0")
    return QSeries(trunc, _histogram(trunc, points, table))


def rep_count_ternary(form: TernaryForm, n: int) -> int:
    """Exact number of integer triples representing n."""
    four_a, two_a = 4 * form.a, 2 * form.a
    count = 0
    for _y, _z, b1, c1 in _ternary_rows(form, n):
        disc_x = b1 * b1 - four_a * (c1 - n)
        s = isqrt(disc_x)
        if s * s == disc_x:
            # The roots x = (-b1 +- s) / 2a; each integral one counts once.
            count += (s - b1) % two_a == 0
            if s:
                count += (-s - b1) % two_a == 0
    return count


def identity_form() -> TernaryForm:
    """The sum of three squares form x^2 + y^2 + z^2."""
    return TernaryForm(1, 1, 1, 0, 0, 0)


def s_of_n(n: int) -> int:
    """Number of representations of n as a sum of three squares."""
    return rep_count_ternary(identity_form(), n)


def point_array_bytes(arity: int, num: int, den: int = 1) -> int:
    """A bound on the bytes of the int64 rows (coordinates, value) of the
    integer v with Q(v + h) <= num/den, for any integral positive form Q
    in arity variables and any real shift h.

    Distinct points differ by a vector of value >= 1, so balls of radius
    1/2 about them, in the metric of Q, are disjoint inside the ball of
    radius R + 1/2, R^2 = num/den: at most (2R + 1)^arity points, and
    2R < isqrt(4*num // den) + 1.
    """
    if num < 0:
        return 0
    return 8 * (arity + 1) * (isqrt(4 * num // den) + 2) ** arity


# Every point of x^2 + y^2 + z^2 = n has |x|, |y| <= isqrt(n), and each
# (x, y) leaves at most two z, so s(n) <= 2*(2*isqrt(n) + 1)^2.  That is
# below 2^31 exactly while isqrt(n) <= 16383, i.e. n < 16384^2.
_S_MAX = 16384 * 16384 - 1
# Exclusive limit of the uint16 r2 and partial sums of the z-sum.  Each a
# with |a| <= isqrt(n) leaves at most two b, so for n <= _S_MAX
# r2(n) <= 2*(2*isqrt(n) + 1) <= 65534 < _S_ACC, and every z-group of
# _z_group(r2) >= 1 values fits.
_S_ACC = 1 << 16
# Output entries summed per block: 1 MB of int32 plus a 512 KB uint16
# accumulator, which stay in L2.
_S_BLOCK = 1 << 18


# The largest s table built so far, under the one key "s".  Every table
# is a prefix of every larger one; clear() gives the memory back.
_S_CACHE: dict[str, np.ndarray] = {}


def _z_group(r2: np.ndarray) -> int:
    """z values per uint16 partial sum, so that group*max(r2) < _S_ACC."""
    return _S_ACC // (int(r2.max()) + 1)


def s_table(n_max: int) -> np.ndarray:
    """s(0..n_max) as an int32 array, from s(n) = r2(n) + 2*sum r2(n - z^2).

    The result is a read-only prefix view of the largest table built so
    far, held in _S_CACHE.  A request beyond it copies the cached
    entries into a new array, drops the old one, and computes only the
    new entries: r2 comes from enumerating every (a, b) with
    a^2 + b^2 <= n_max, and the z-sum is taken one output block of
    _S_BLOCK entries at a time, so the partial sums stay in cache while
    each z adds its shifted slice of r2.  r2 is uint16, and each block
    sums _z_group(r2) slices at a time in a uint16 accumulator and
    flushes it into the block's int32 slice, which halves the bytes each
    add moves.  All counts fit int32 because s(n) <= 2*(2*isqrt(n) + 1)^2
    < 2^31 for n_max <= _S_MAX; a larger n_max raises ValueError before
    anything is allocated.
    """
    if n_max > _S_MAX:
        raise ValueError(
            f"s table up to {n_max} overflows int32 "
            f"(s(n) <= 2*(2*isqrt(n)+1)^2 < 2^31 needs n <= {_S_MAX})"
        )
    if n_max < 0:
        raise ValueError(f"s table size must be non-negative, got {n_max}")
    old = _S_CACHE.get("s", np.zeros(0, dtype=np.int32))
    done = len(old)
    if n_max < done:
        return old[: n_max + 1]
    s = np.zeros(n_max + 1, dtype=np.int32)
    s[:done] = old
    # The old table goes before r2 comes, so the peak is one s, one r2
    # and one accumulator.
    _S_CACHE.clear()
    del old
    top = isqrt(n_max)
    r2 = np.zeros(n_max + 1, dtype=np.uint16)
    squares = np.arange(top + 1, dtype=np.int64) ** 2
    for a in range(top + 1):
        rem = n_max - a * a
        k = isqrt(rem)
        idx = a * a + squares[: k + 1]
        w = np.full(k + 1, 2, dtype=np.uint16)
        w[0] = 1
        if a > 0:
            w *= 2
        r2[idx] += w
    group = _z_group(r2)
    acc = np.empty(min(_S_BLOCK, n_max + 1 - done), dtype=np.uint16)
    for lo in range(done, n_max + 1, _S_BLOCK):
        hi = min(lo + _S_BLOCK, n_max + 1)
        block = s[lo:hi]
        zmax = isqrt(hi - 1)
        for first in range(1, zmax + 1, group):
            # Sum up to group shifted slices in acc, then flush into s.
            cut = max(lo, first * first) - lo
            part = acc[cut:hi - lo]
            part[:] = 0
            for z in range(first, min(first + group, zmax + 1)):
                m = z * z
                start = max(lo, m)
                acc[start - lo:hi - lo] += r2[start - m:hi - m]
            block[cut:] += part
        block *= 2
        block += r2[lo:hi]
    s.flags.writeable = False
    _S_CACHE["s"] = s
    return s
