"""Exact representation counts and theta series of definite quadratic forms.

Ternary forms are written a*x^2 + b*y^2 + c*z^2 + d*yz + e*zx + f*xy and
binary forms a*m^2 + b*mn + c*n^2, optionally with a linear part (u, v)
and a constant shift added to the exponent.  Every enumeration bound is
exact: isqrt of an exact discriminant, in Python ints or, in the ternary
array walk, a rounded float root corrected by one exact step (_isqrt).

Points come from one run generator per arity (_walk, the ternary rows as
arrays, at most _ROWS at a time; the n-loop of theta_series_binary), each
covering every point up to its bound, and one expansion of runs into
int64 arrays, _spread.  Every caller proves its int64 bound before
expanding, or raises ValueError.  short_vectors expands all its runs into
one array less the origin; the ternary theta counts about _CHUNK points
at a time, and with a constraint walks only the rows (y, z) whose
residues some allowed tuple has.  The binary theta builds every row,
since it checks each point for a negative affine exponent.

s(n), the number of representations as three squares, comes two ways,
both from the r2 of _r2_planes.  s_table returns a read-only prefix view
of the largest s table built so far, held for the whole process in the
module dict _S_CACHE.  s_multiples returns s(step*n) for n <= count
alone, for one or more steps over one r2, one strided slice of it per z
and step, and holds no s table: the route of a check that reads s only
at multiples of p^2 (or of 9 and 25) and below its order.
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
        return self.disc() > 0

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    def gram2(self) -> tuple[tuple[int, int, int], ...]:
        """Doubled Gram matrix (symmetric, even diagonal)."""
        a, b, c, d, e, f = self.as_tuple()
        return ((2 * a, f, e), (f, 2 * b, d), (e, d, 2 * c))

    def disc(self) -> int:
        """Half the determinant of the doubled Gram matrix."""
        a, b, c, d, e, f = self.as_tuple()
        return 4 * a * b * c + d * e * f - a * d * d - b * e * e - c * f * f

    def value(self, x: int, y: int, z: int) -> int:
        a, b, c, d, e, f = self.as_tuple()
        return (
            a * x * x + b * y * y + c * z * z
            + d * y * z + e * z * x + f * x * y
        )

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


# Rows of a block of _walk, at about 150 bytes each.
_ROWS = 1 << 10
# The rows of a run that _spread repeats for ncoord coordinates.
_HEADS = {k: np.array([0, *range(4, 4 + k), 2, 3]) for k in range(3)}


def _certify_ternary(form: TernaryForm, bound: int) -> type:
    """Raise ValueError unless every run of _walk(form, bound) expands in
    int64; return the dtype in which _walk's rows are exact.

    Real v with form(v) <= bound have v_i^2 <= bound * adj(G)_ii / disc
    (G the doubled Gram), so |x|, |y|, |z| <= xm, ym, zm; bounding each
    term of a*x^2 + b1*x + c1 gives worst.  _walk's quadratics have
    partial sums at most 4*a*(worst + bound) + (|f|*ym + |e|*zm)^2.
    """
    a, b, c, d, e, f = form.as_tuple()
    n, disc = max(bound, 0), form.disc()
    xm = isqrt(n * (4 * b * c - d * d) // disc) + 1
    ym = isqrt(n * (4 * a * c - e * e) // disc) + 1
    zm = isqrt(n * (4 * a * b - f * f) // disc) + 1
    b1 = abs(f) * ym + abs(e) * zm
    worst = a * xm * xm + b1 * xm + b * ym * ym + c * zm * zm + abs(d) * ym * zm
    if worst >= _INT64_SAFE:
        raise ValueError(
            f"short vectors up to {bound} of {form} overflow int64 "
            f"(worst intermediate {worst} >= 2^62)"
        )
    return np.int64 if 4 * a * (worst + n) + b1 * b1 < _INT64_SAFE else object


def _isqrt(n: np.ndarray) -> np.ndarray:
    """isqrt of each entry of n >= 0: int64 below 2^62, or Python ints.

    Below 2^62, n and its float sqrt each round by a relative 2^-53, so
    the float root is within sqrt(n) * 2^-52 < 2^-21 of the true one:
    its nearest integer k is isqrt(n) or isqrt(n) + 1, and one exact
    step, k^2 > n (k <= 2^31 squares below 2^63), tells which.
    """
    if n.dtype == object:
        return np.frompyfunc(isqrt, 1, 1)(n)
    s = np.rint(np.sqrt(n)).astype(np.int64)
    s -= s * s > n
    return s


def _walk(form: TernaryForm, bound: int, dtype, admit=None, rows=None):
    """Yield runs covering every triple v with form(v) <= bound, in
    blocks of at most rows (or _ROWS) rows, as arrays of shape (6, k) with
    rows xlo, count, b1, c1, y, z: z ascending, then y, x ascending.

    On row (y, z) the value is a*x^2 + b1*x + c1, and its run is x = xlo
    .. xlo + count - 1 by _x_range's floors on s = isqrt(disc), disc =
    b1^2 - 4*a*(c1 - bound) = 4*a*bound - P2(y, z) by completing the
    square (Fincke & Pohst, Math. Comp. 44, 1985).  The rows of a z are
    y = ylo..yhi by the floors on P2's discriminant in y, 16*a*((4ab-f^2)
    *bound - disc(form)*z^2) >= 0, in Python ints, cut to fill blocks;
    runs may be empty.  A boolean (m, m) admit keeps rows admit[y % m, z % m].
    """
    if bound < 0:
        return
    a, b, c, d, e, f = form.as_tuple()
    a2, b2, c2 = 4 * a * b - f * f, 4 * a * d - 2 * e * f, 4 * a * c - e * e
    top, step = 16 * a * a2 * bound, 16 * a * form.disc()
    zmax, rows = isqrt(top // step), rows or _ROWS
    m, some_y = (1, [True]) if admit is None else (len(admit), admit.any(0).tolist())
    table, lens, total = [], [], 0
    for z in (z for z in range(-zmax, zmax + 1) if some_y[z % m]):
        root = isqrt(top - step * z * z)
        lo, hi = -((b2 * z + root) // (2 * a2)), (root - b2 * z) // (2 * a2)
        while lo <= hi:
            k = min(hi - lo + 1, rows - total)
            # disc, 2a - b1, b1, c1 at y = 0, y - index, z, y^2 and y factors.
            table += (
                4 * a * bound - c2 * z * z, 2 * a - e * z, e * z, c * z * z,
                lo - total, z, -a2, 0, 0, b, -b2 * z, -f, f, d * z,
            )
            lens.append(k)
            total, lo = total + k, lo + k
            if total == rows:
                yield _block(a, dtype, table, lens, admit)
                table, lens, total = [], [], 0
    if total:
        yield _block(a, dtype, table, lens, admit)


def _block(a: int, dtype, table: list, lens: list, admit):
    """_walk's runs from its pieces' table rows and lens."""
    rows = np.array(table, dtype=dtype).reshape(-1, 14).T.repeat(lens, axis=1)
    rows[4] += np.arange(rows.shape[1], dtype=dtype)
    if admit is not None:
        m = len(admit)
        keep = admit[(rows[4] % m).astype(int), (rows[5] % m).astype(int)]
        # Unlike the F-ordered rows[:, keep], compress keeps rows contiguous.
        rows = np.compress(keep, rows, axis=1)
    horner = rows[6:10] * rows[4]
    horner += rows[10:]
    horner *= rows[4]
    rows[:4] += horner
    # xhi + 1 and -xlo: floor((s - b1 + 2a) / 2a), floor((s + b1) / 2a).
    ends = rows[1:3] + _isqrt(rows[0])
    ends //= 2 * a
    runs = rows[:6]
    np.negative(ends[1], out=runs[0])
    np.add(ends[0], ends[1], out=runs[1])
    return runs


def _spread(a: int, runs: np.ndarray, ncoord: int) -> np.ndarray:
    """Expand runs, an array of rows xlo, count, b1, c1, *coords, into the
    int64 points (x, *coords[:ncoord], value), an F-ordered view, run by
    run: x = xlo .. xlo + count - 1 at a*x^2 + b1*x + c1, in certified int64.
    """
    runs = runs.astype(np.int64, copy=False)
    count = runs[1]
    # xlo, the coordinates, b1 and c1, with xlo less its first point's index.
    heads = runs.take(_HEADS[ncoord], axis=0)
    heads[0] += count
    heads[0] -= count.cumsum()
    points = heads.repeat(count, axis=1)
    x, val = points[0], points[-2]
    x += np.arange(len(x), dtype=np.int64)
    val += a * x
    val *= x
    val += points[-1]
    return points[:-1].T


def short_vectors(form: TernaryForm, bound: int) -> np.ndarray:
    """All integer triples v != 0 with form(v) <= bound, with their values.

    One (n, 4) int64 array of rows (x, y, z, value), _walk's runs in its
    order by one _spread, less the one point of value 0, the origin (the
    form is positive definite).  The int64 certificate (_certify_ternary)
    is checked before any row is built.
    """
    blocks = _walk(form, bound, _certify_ternary(form, bound))
    runs = np.concatenate([np.zeros((6, 0), np.int64), *blocks], axis=1)
    points = _spread(form.a, runs, 2)
    return points[points[:, 3] > 0]


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


# Points a streamed theta expands per batch.  With blocks of _ROWS rows an
# unconstrained theta peaks near 0.75 MB beside its counts; 2^15 points
# and 2^12 rows ran 12% faster on a 2-vCPU Xeon but peaked near 1.8 MB.
_CHUNK = 1 << 14


def theta_series_ternary(
    form: TernaryForm, trunc: int, constraint: Constraint | None = None
) -> QSeries:
    """Theta series: coefficient of q^n counts triples with form value n.

    The triples are those of _walk(form, trunc), the origin included, but
    each block is cut after the runs reaching each multiple of _CHUNK
    points, and the batches are expanded and counted in turn.  The
    constraint's arity, trunc >= 0 and the int64 certificate are checked
    in that order, before any row is built.  A constraint walks only the
    rows (y, z) whose residues some allowed tuple has and keeps the points
    whose x it allows too; without one, a point is only (x, value).
    """
    table = _residue_table(constraint, 3)
    if trunc < 0:
        raise ValueError("truncation order must be >= 0")
    dtype = _certify_ternary(form, trunc)
    admit, ncoord = (None, 0) if table is None else (table.any(axis=0), 2)
    counts = np.zeros(trunc + 1, dtype=np.int64)
    for runs in _walk(form, trunc, dtype, admit):
        # Cut after each run but the last whose end passes a multiple of _CHUNK.
        cuts = np.flatnonzero(np.diff(np.cumsum(runs[1, :-1]) // _CHUNK, prepend=0))
        for batch in np.split(runs, cuts + 1, axis=1):
            counts += _histogram(trunc, _spread(form.a, batch, ncoord), table)
    return QSeries(trunc, counts)


def theta_series_binary(
    bform: BinaryForm, trunc: int, constraint: Constraint | None = None
) -> QSeries:
    """Theta series of a binary form, affine part included in the exponent.

    One _spread run of m per admissible n.  Both |m| and |n| are at most
    xm (complete the square in the other variable), which gives the int64
    certificate.  The constraint's arity, trunc >= 0 and that certificate
    are checked in that order, before any row is built.  A failed check
    raises ValueError, as does an affine instance that reaches a negative
    exponent.
    """
    table = _residue_table(constraint, 2)
    if trunc < 0:
        raise ValueError("truncation order must be >= 0")
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
    runs = np.array(rows, dtype=np.int64).reshape(len(rows), 5).T
    points = _spread(a, runs, 1)
    negative = np.flatnonzero(points[:, 2] < 0)
    if len(negative):
        m, n, val = points[negative[0]].tolist()
        raise ValueError(f"affine exponent {val} is negative at (m,n)=({m},{n})")
    return QSeries(trunc, _histogram(trunc, points, table))


def rep_count_ternary(form: TernaryForm, n: int) -> int:
    """Exact number of integer triples representing n.

    A point of value exactly n is a root of its row's quadratic, so it
    ends its run of _walk(form, n): each run counts its first x and, when
    longer, its last x at value n (at n = 0 the one run is x = 0..0).
    Holding no points, it walks blocks of 16 * _ROWS rows (a 4.5 MB peak).
    """
    try:
        dtype = _certify_ternary(form, n)
    except ValueError:  # beyond int64: the walk in Python ints
        dtype = object
    count = 0
    for runs in _walk(form, n, dtype, rows=16 * _ROWS):
        xlo, length, b1, c1 = runs[:4]
        for x, ok in ((xlo, length > 0), (xlo + length - 1, length > 1)):
            count += int(np.count_nonzero(ok & ((form.a * x + b1) * x + c1 == n)))
    return count


def identity_form() -> TernaryForm:
    """The sum of three squares form x^2 + y^2 + z^2."""
    return TernaryForm(1, 1, 1, 0, 0, 0)


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
# Output entries summed per block, rounded up to whole columns of 8; the
# two uint16 accumulators of a block, 576 KB, stay in L2.
_S_BLOCK = 1 << 18

# The rows of the r2 planes: row k holds r2(8c + _R2_ROWS[k]) in column
# c, so row 0 is residue 5 one column later (r2(-3) = 0 at c = 0).  The
# residues of n - z^2 that an output class needs are then one run of
# rows for each class of z: an odd z (z^2 = 8t + 1) takes rows 2:7 to
# outputs 3, 2, 6, 1, 5; z = 0 mod 4 (z^2 = 8t) rows 2:5 to outputs
# 2, 1, 5; z = 2 mod 4 (z^2 = 8t + 4) rows 0:3 to outputs 1, 5, 6.
_R2_ROWS = (-3, 1, 2, 1, 5, 0, 4)
# Output residues of the odd-z accumulator's rows, then of the even one's.
_S_ODD_OUT = (3, 2, 6, 1, 5)
_S_EVEN_OUT = (2, 1, 5, 6)


# The largest s table built so far, under the one key "s".  Every table
# is a prefix of every larger one; clear() gives the memory back.
_S_CACHE: dict[str, np.ndarray] = {}


def _z_group(r2: np.ndarray) -> int:
    """z values per uint16 partial sum, so that group*max(r2) < _S_ACC."""
    return _S_ACC // (int(r2.max()) + 1)


def _r2_planes(width: int) -> np.ndarray:
    """r2(n) = #{(a, b) : a^2 + b^2 = n} for n < 8*width, as a (7, width)
    uint16 table laid out by _R2_ROWS.

    Only the points 0 <= a <= b are walked, each of weight 8 (its orbit
    under signs and swap); the axis points (0, b) and the diagonal ones
    (a, a) have orbits of 4, so 4 comes off at b^2 and 2a^2, and r2(0)
    is set to 1.  The uint16 sums may wrap on the way, but every final
    r2(n) is below 2^16 (see _S_ACC), so arithmetic mod 2^16 leaves it
    exact.  The flat index of n is (its row)*width + (n >> 3), tabulated
    once for each a^2 mod 8 over all b^2.  A sum of two squares is never
    3, 6 or 7 mod 8, and those residues are given row 7, past the
    planes, so that a write there would raise IndexError.
    """
    n_top = 8 * width - 1
    flat = np.zeros(7 * width, dtype=np.uint16)
    rows = [_R2_ROWS.index(r) if r in _R2_ROWS else 7 for r in range(8)]
    offsets = np.array(rows, dtype=np.int64) * width

    def index(n):
        return offsets[n & 7] + (n >> 3)

    squares = np.arange(isqrt(n_top) + 1, dtype=np.int64) ** 2
    tables = {e: index(e + squares) for e in (0, 1, 4)}
    for a in range(isqrt(n_top // 2) + 1):
        aa = a * a
        flat[tables[aa & 7][a:isqrt(n_top - aa) + 1] + (aa >> 3)] += 8
    flat[index(squares[1:])] -= 4
    flat[index(2 * squares[1:isqrt(n_top // 2) + 1])] -= 4
    planes = flat.reshape(7, width)
    # r2(0), then the second row of residue 1 and residue 5 moved on a
    # column.
    planes[5, 0] = 1
    planes[3] = planes[1]
    planes[0, 1:] = planes[4, :-1]
    return planes


def s_table(n_max: int) -> np.ndarray:
    """s(0..n_max) as an int32 array, from s(n) = r2(n) + 2*sum r2(n - z^2).

    The result is a read-only prefix view of the largest table built so
    far, held in _S_CACHE.  A request beyond it copies the cached
    entries up to the last multiple of 8 into a new array, drops the old
    one, and computes only the rest (up to 7 old entries again).

    Squares are 0, 1 or 4 mod 8, so r2 vanishes on n = 3, 6, 7 mod 8,
    s(8j + 7) = 0, and x^2 + y^2 + z^2 = 0 mod 4 forces x, y, z even, so
    s(4m) = s(m) (Legendre; Gauss, Disquisitiones art. 291).  The z-sum
    therefore runs only on the outputs n = 1, 2, 3, 5, 6 mod 8: s(8j + 7)
    stays the new array's 0, and s(4m) is copied from s(m) in strided
    chunks m in [m0, 4*m0), whose own multiples of 4 an earlier chunk
    or the old table has filled.  r2 comes from _r2_planes, and the
    z-sum is taken one block of _S_BLOCK entries (whole columns of 8) at
    a time: each z adds one 2-D slice of r2 rows (see _R2_ROWS) into a
    5-row uint16 accumulator (odd z) or a 4-row one (even z), half the
    bytes of a full-length slice, and every _z_group(r2) values of z the
    accumulators are flushed into the int32 outputs, so no partial sum
    can wrap.  At the peak s holds 4 bytes an entry, r2 1.75 and the
    accumulators 18 bytes a column of one block.  All counts fit int32
    because s(n) <= 2*(2*isqrt(n) + 1)^2 < 2^31 for n_max <= _S_MAX; a
    larger n_max raises ValueError before anything is allocated.
    """
    if n_max > _S_MAX:
        raise ValueError(
            f"s table up to {n_max} overflows int32 "
            f"(s(n) <= 2*(2*isqrt(n)+1)^2 < 2^31 needs n <= {_S_MAX})"
        )
    if n_max < 0:
        raise ValueError(f"s table size must be non-negative, got {n_max}")
    old = _S_CACHE.get("s", np.zeros(0, dtype=np.int32))
    if n_max < len(old):
        return old[: n_max + 1]
    c0 = len(old) >> 3
    s = np.zeros(n_max + 1, dtype=np.int32)
    s[: 8 * c0] = old[: 8 * c0]
    s[0] = 1
    # The old table goes before r2 comes, so the peak is one s, one r2
    # and the accumulators.
    _S_CACHE.clear()
    del old
    width = (n_max >> 3) + 1
    r2 = _r2_planes(width)
    group = _z_group(r2)
    cols = -(-_S_BLOCK // 8)
    odd = np.empty((5, min(cols, width - c0)), dtype=np.uint16)
    even = np.empty((4, odd.shape[1]), dtype=np.uint16)
    # (r2 rows, accumulator rows) for z = 0, 1, 2, 3 mod 4.
    classes = (
        (r2[2:5], even[0:3]), (r2[2:7], odd),
        (r2[0:3], even[1:4]), (r2[2:7], odd),
    )
    for lo in range(c0, width, cols):
        hi = min(lo + cols, width)
        zmax = isqrt(min(8 * hi - 1, n_max))
        for first in range(1, zmax + 1, group):
            # Sum up to group shifted slices, then flush into s.
            cut = max(lo, first * first >> 3) - lo
            odd[:, cut:hi - lo] = 0
            even[:, cut:hi - lo] = 0
            for z in range(first, min(first + group, zmax + 1)):
                t = z * z >> 3
                start = max(lo, t)
                rows, acc = classes[z & 3]
                acc[:, start - lo:hi - lo] += rows[:, start - t:hi - t]
            for acc, outs in ((odd, _S_ODD_OUT), (even, _S_EVEN_OUT)):
                for row, rho in zip(acc, outs):
                    out = s[8 * (lo + cut) + rho:8 * hi:8]
                    out += row[cut:cut + len(out)]
        # s = r2 + 2*(the sum over z >= 1) on the five summed residues,
        # the outputs of the odd accumulator; r2 is 0 on 3 and 6.
        for rho in _S_ODD_OUT:
            out = s[8 * lo + rho:8 * hi:8]
            out *= 2
            if rho in (1, 2, 5):
                out += r2[_R2_ROWS.index(rho), lo:lo + len(out)]
    # s(4m) = s(m), in chunks whose sources are all filled already.
    m0 = max(2 * c0, 1)
    while m0 <= n_max >> 2:
        m1 = min(4 * m0, (n_max >> 2) + 1)
        s[4 * m0:4 * m1:4] = s[m0:m1]
        m0 = m1
    s.flags.writeable = False
    _S_CACHE["s"] = s
    return s


def s_multiples(steps: tuple[int, ...], count: int) -> np.ndarray:
    """s(step*n) for n = 0..count, one int64 row per step in steps, with
    no s table.

    r2 up to top = max(steps)*count is built once, from _r2_planes,
    unplaned into one flat uint16 array (rows 1:7 of _R2_ROWS; row 0 is
    residue 5 one column later and row 3 repeats row 1).  In s(m) =
    r2(m) + 2*sum_{z >= 1} r2(m - z^2) the points step*n - z^2 of one z,
    n >= n0 = ceil(z^2 / step), are one strided slice of r2, added into
    the step's row.  r2 is exact by s_table's certificate, r2(n) < 2^16
    for n <= _S_MAX; a larger top raises ValueError before anything is
    allocated.
    """
    if count < 0:
        raise ValueError(f"s at multiples needs count >= 0, got {count}")
    top = max(steps) * count
    if top > _S_MAX:
        raise ValueError(
            f"s up to {top} overflows the uint16 r2 "
            f"(r2(n) <= 2*(2*isqrt(n)+1) < 2^16 needs n <= {_S_MAX})"
        )
    width = (top >> 3) + 1
    planes = _r2_planes(width)
    r2 = np.zeros((width, 8), dtype=np.uint16)
    r2[:, list(_R2_ROWS[1:])] = planes[1:].T
    del planes
    r2 = r2.reshape(-1)
    acc = np.zeros((len(steps), count + 1), dtype=np.int64)
    for row, step in zip(acc, steps):
        end = step * count + 1
        for z in range(1, isqrt(end - 1) + 1):
            zz = z * z
            n0 = -(-zz // step)
            row[n0:] += r2[step * n0 - zz:end - zz:step]
        row *= 2
        row += r2[:end:step]
    return acc
