"""Exact truncated formal power series in q over the integers.

A series is a value: a truncation order N and the exact coefficients
of q^0 .. q^N.  Every operation returns a fresh series and is exact for
all exponents up to the truncation order.

Storage is one read-only numpy array.  Its dtype is int64 when every
coefficient is below 2^62 in absolute value, and `object` (exact Python
integers) otherwise; the same slice code runs on both.  Each series
keeps the exact max-abs of its coefficients, and an operation runs on
int64 only when a bound derived from its operands' max-abs proves every
partial result stays below 2^62:
  add, sub       bound(x) + bound(y)
  scale by k     |k| * bound(x)
  product        nz * bound(x) * bound(y), nz the nonzero count of the
                 side that is looped over (see _conv)
  prod_ap        a running bound on every radix-2^32 limb over the
                 binomial steps and the terms of Euler's series (see
                 _expand_ap and _certified)
A failed certificate never raises, and the result is stored as int64
again if its values fit.  add, sub and scale run on the object dtype.
A product runs on signed int64 limbs narrow enough that every limb-pair
sum is certified, and joins them once as Python ints.  prod_ap carries
its int64 limbs: when its bound fails it does one exact carry pass, and
only a final result of more than one limb is rebuilt as Python ints.  A
carry certifies only steps of an order below 2^30, so prod_ap raises
ValueError for orders at or above 2^30.
Truncation and sifting are array views; read-only arrays let the
catalog memo and those views share memory safely.

Combining series with different truncation orders is an error rather
than a silent re-truncation: long derivation chains must not lose
precision by accident.
"""

from __future__ import annotations

from math import ceil, exp, isqrt, log, log1p, pi, sqrt

import numpy as np

# Every int64 coefficient, and every partial sum an int64 operation may
# form, stays below this bound in absolute value.
_INT64_SAFE = 1 << 62

# prod_ap's limbs: a coefficient is the sum of limb k times 2^(k * bits).
_LIMB_BITS = 32

# The outer-product path of _conv: pairs per chunk, and the cost of one
# pair in slice multiply-adds (11 to 26 measured on phi*phi to order
# 529 000).  The path wins while the denser side has fewer nonzeros
# than the output length / _OUTER_COST.
_OUTER_CHUNK = 1 << 18
_OUTER_COST = 16


class TruncationMismatch(ValueError):
    """Two series with different truncation orders were combined."""


def _max_abs(arr: np.ndarray) -> int:
    return max(int(arr.max()), -int(arr.min()))


def _dtype(bound: int):
    """The dtype an operation whose partial results are below bound runs on."""
    return np.int64 if bound < _INT64_SAFE else object


def _from_ints(values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class QSeries:
    """Integer power series known exactly for exponents 0..trunc."""

    __slots__ = ("trunc", "array", "bound", "_coeffs")

    def __init__(self, trunc: int, coeffs) -> None:
        """coeffs: a sequence of ints, or an integer array the series takes over."""
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        arr = coeffs if isinstance(coeffs, np.ndarray) else _from_ints(coeffs)
        if arr.ndim != 1 or len(arr) != trunc + 1:
            raise ValueError(f"need {trunc + 1} coefficients, got {len(arr)}")
        if arr.dtype != object:
            arr = arr.astype(np.int64, copy=False)
        # The exact max-abs picks the dtype: int64 below 2^62, else object.
        bound = _max_abs(arr)
        arr = arr.astype(_dtype(bound), copy=False)
        arr.flags.writeable = False
        self.trunc = trunc
        self.array = arr
        self.bound = bound
        self._coeffs = None

    # -- basic access ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The coefficients as a tuple of Python ints (built once, on demand)."""
        if self._coeffs is None:
            self._coeffs = tuple(self.array.tolist())
        return self._coeffs

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.trunc:
            raise IndexError(f"exponent {n} outside known range 0..{self.trunc}")
        return self.array.item(n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.trunc == other.trunc
            and self.bound == other.bound
            and bool(np.array_equal(self.array, other.array))
        )

    def __hash__(self) -> int:
        return hash((self.trunc, self.coeffs))

    def __repr__(self) -> str:
        return f"QSeries(trunc={self.trunc}, coeffs={self.coeffs!r})"

    def is_zero(self) -> bool:
        return self.bound == 0

    def truncate(self, new_trunc: int) -> "QSeries":
        """Forget coefficients above new_trunc (new_trunc <= trunc)."""
        if new_trunc > self.trunc:
            raise ValueError("cannot extend a series by truncating")
        return QSeries(new_trunc, self.array[: new_trunc + 1])

    def _check(self, other: "QSeries") -> None:
        if self.trunc != other.trunc:
            raise TruncationMismatch(
                f"orders differ: {self.trunc} vs {other.trunc}"
            )

    # -- ring operations -------------------------------------------------

    def _pair(self, other: "QSeries"):
        self._check(other)
        dt = _dtype(self.bound + other.bound)
        return self.array.astype(dt, copy=False), other.array.astype(dt, copy=False)

    def __add__(self, other: "QSeries") -> "QSeries":
        a, b = self._pair(other)
        return QSeries(self.trunc, a + b)

    def __sub__(self, other: "QSeries") -> "QSeries":
        a, b = self._pair(other)
        return QSeries(self.trunc, a - b)

    def scale(self, k: int) -> "QSeries":
        dt = _dtype(max(abs(k), 1) * max(self.bound, 1))
        return QSeries(self.trunc, self.array.astype(dt, copy=False) * k)

    def __mul__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        return _conv(self, other, 1, 0, self.trunc)

    def pow(self, k: int) -> "QSeries":
        if k < 0:
            raise ValueError("negative power; use divide_exact")
        if k == 0:
            return one(self.trunc)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def divide_exact(self, other: "QSeries") -> "QSeries":
        """Quotient Q with Q * other == self; other must have unit constant term."""
        self._check(other)
        b0 = other[0]
        if b0 not in (1, -1):
            raise ValueError("divisor constant term must be +1 or -1")
        n = self.trunc
        b = other.array.tolist()
        nz_b = [(j, b[j]) for j in np.flatnonzero(other.array).tolist() if j]
        q = self.array.tolist()
        for i in range(n + 1):
            acc = q[i]
            for j, c in nz_b:
                if j > i:
                    break
                acc -= c * q[i - j]
            q[i] = acc * b0  # b0 is +-1, so this is exact division
        return QSeries(n, q)

    # -- exponent transforms ----------------------------------------------

    def alternate(self) -> "QSeries":
        """Send q to -q: negate every odd-exponent coefficient."""
        out = self.array.copy()
        out[1::2] = -out[1::2]
        return QSeries(self.trunc, out)

    def sift(self, t: int, s: int) -> "QSeries":
        """Keep coefficients at exponents congruent to s mod t, reindexed.

        Output coefficient k is the input coefficient at t*k + s; the
        output is truncated at floor((trunc - s) / t).
        """
        if not 0 <= s < t:
            raise ValueError("sift needs 0 <= s < t")
        if self.trunc < s:
            raise ValueError("series too short to sift at this residue")
        return QSeries((self.trunc - s) // t, self.array[s::t])

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"trunc": self.trunc, "coeffs": list(self.coeffs)}

    @staticmethod
    def from_json_dict(data: dict) -> "QSeries":
        return QSeries(int(data["trunc"]), tuple(int(c) for c in data["coeffs"]))


def _first_mismatch(lhs, rhs, keep=None) -> tuple | None:
    """(n, lhs[n], rhs[n]) at the least n (with keep[n], if given) where
    the coefficient arrays lhs and rhs differ, in Python ints, or None."""
    differ = np.asarray(lhs != rhs, dtype=bool)
    if keep is not None:
        differ &= keep
    bad = np.flatnonzero(differ)
    if not len(bad):
        return None
    n = int(bad[0])
    return n, int(lhs[n]), int(rhs[n])


# -- the convolution kernel ---------------------------------------------------


def _conv(x: QSeries, y: QSeries, t: int, s: int, n: int) -> QSeries:
    """Coefficients t*k + s, k = 0..n, of the product x*y, as a series of order n.

    Both factors must be known to order t*n + s; plain multiplication is
    t = 1, s = 0.  The sparser side is looped over: each of its nonzeros
    j adds one strided slice of the other side, so the work is
    nz * (n + 1) whatever t is.  Every output coefficient is a sum of at
    most nz products, each at most bound(x) * bound(y), which certifies
    int64; otherwise the loop runs on signed int64 limbs (_conv_limbs).
    When the denser side is also sparse next to the output length, the
    certified product runs as an outer product of the two nonzero lists
    instead.  Both sides' nonzeros are counted, but only the lists a
    path loops over are built.
    """
    top = t * n + s
    if x.trunc < top or y.trunc < top:
        raise ValueError(f"factors known to order {min(x.trunc, y.trunc)}, need {top}")
    a, b = x.array[: top + 1], y.array[: top + 1]
    # Python ints: a numpy count would wrap in the certificate's product.
    na, nb = int(np.count_nonzero(a)), int(np.count_nonzero(b))
    bounds = x.bound, y.bound
    if nb < na:
        a, b, na, nb, bounds = b, a, nb, na, bounds[::-1]
    if not na:
        return zero(n)
    ja = np.flatnonzero(a)
    if na * x.bound * y.bound >= _INT64_SAFE:
        return QSeries(n, _conv_limbs(a, b, ja, *bounds, t, s, n))
    if _OUTER_COST * nb < n + 1:
        return QSeries(n, _outer(a, b, ja, np.flatnonzero(b), t, s, n))
    out = np.zeros(n + 1, dtype=np.int64)
    _strided(out, a, b, ja, t, s)
    return QSeries(n, out)


def _strided(out, a, b, ja, t, s) -> None:
    """In place, out[k] += a[j] * b[t*k + s - j] over j in ja.

    b and out may be 2-D: each row is then a run of limbs.
    """
    n1 = len(out)
    for j in ja.tolist():
        k0 = max(0, -((s - j) // t))  # least k with t*k + s >= j
        out[k0:] += a[j] * b[t * k0 + s - j :: t][: n1 - k0]


def _conv_limbs(a, b, ja, bound_a, bound_b, t, s, n) -> np.ndarray:
    """_conv's coefficients when nz * bound_a * bound_b fails: Python ints.

    Each factor is split into signed int64 limbs of radix 2^w (_split),
    each at most 2^w in absolute value; a factor below 2^w is one limb,
    bounded by its own bound.  Limb p of a times limb q of b lands in
    column p + q, so a column sums at most nz * min(la, lb) products of
    two limbs; w is the widest radix whose limb bounds certify this.
    The columns are joined once (_join).
    """
    nz = len(ja)
    for w in range(62, 0, -1):
        la = -(-bound_a.bit_length() // w)
        lb = -(-bound_b.bit_length() // w)
        cap_a = bound_a if la == 1 else 1 << w
        cap_b = bound_b if lb == 1 else 1 << w
        if nz * min(la, lb) * cap_a * cap_b < _INT64_SAFE:
            break
    limbs_a, limbs_b = _split(a, w, la), _split(b, w, lb)
    out = np.zeros((n + 1, la + lb - 1), dtype=np.int64)
    for p in range(la):
        col = limbs_a[:, p]
        _strided(out[:, p : p + lb], col, limbs_b, ja[col[ja] != 0], t, s)
    return _join(out, w)


def _split(arr: np.ndarray, bits: int, count: int) -> np.ndarray:
    """count int64 limbs of radix 2^bits per value, limb k in column k.

    Every limb but the top one is in [0, 2^bits); the arithmetic shift
    floors, so the top one carries the sign, and it is at most 2^bits in
    absolute value when every value is below 2^(bits * count).
    """
    out = np.empty((len(arr), count), dtype=np.int64)
    mask = (1 << bits) - 1
    for k in range(count - 1):
        out[:, k] = (arr >> (bits * k)) & mask
    out[:, -1] = arr >> (bits * (count - 1))
    return out


def _join(limbs: np.ndarray, bits: int) -> np.ndarray:
    """The values sum over k of limbs[:, k] * 2^(k * bits).

    One column is returned as is; more are joined as Python ints.  Any
    int64 column values are exact, not only those _split or _carry leave.
    """
    if limbs.shape[1] == 1:
        return limbs[:, 0]
    out = limbs[:, -1].astype(object)
    for k in range(limbs.shape[1] - 2, -1, -1):
        out *= 1 << bits
        out += limbs[:, k]
    return out


def _outer(a, b, ja, jb, t, s, n) -> np.ndarray:
    """int64 sum of a[i]*b[j] into slot (i + j - s) / t, over nonzero pairs."""
    out = np.zeros(n + 1, dtype=np.int64)
    vb = b[jb]
    step = max(1, _OUTER_CHUNK // len(jb))
    for lo in range(0, len(ja), step):
        i = ja[lo : lo + step, None]
        e = i + jb - s
        keep = (e >= 0) & (e <= t * n)
        if t > 1:
            keep &= e % t == 0
        np.add.at(out, e[keep] // t, (a[i] * vb)[keep])
    return out


# -- constructors ---------------------------------------------------------


def zero(trunc: int) -> QSeries:
    return QSeries(trunc, np.zeros(trunc + 1, dtype=np.int64))


def one(trunc: int) -> QSeries:
    return monomial(trunc, 0)


def monomial(trunc: int, exponent: int, coeff: int = 1) -> QSeries:
    if not 0 <= exponent <= trunc:
        raise ValueError("monomial exponent outside 0..trunc")
    out = np.zeros(trunc + 1, dtype=_dtype(abs(coeff)))
    out[exponent] = coeff
    return QSeries(trunc, out)


def theta_f(r: int, s: int, trunc: int) -> QSeries:
    """Two-parameter theta sum of q^(r*n(n-1)/2 + s*n(n+1)/2) over all n."""
    if r < 1 or s < 1:
        raise ValueError("theta parameters must be positive")
    bound = isqrt(4 * trunc // (r + s)) + 2
    n = np.arange(-bound, bound + 1, dtype=np.int64)
    e = (r * n * (n - 1) + s * n * (n + 1)) // 2
    e = e[(e >= 0) & (e <= trunc)]
    return QSeries(trunc, np.bincount(e, minlength=trunc + 1))


def prod_ap(factors, trunc: int) -> QSeries:
    """Expand a product of factors (1 + sign*q^(a*j+b))^e, j >= 0.

    Each factor is a tuple (a, b, sign, e) with a >= 1, b >= 1 (an
    exponent of zero at j = 0 is rejected), sign in {+1, -1} and e a
    nonzero integer; negative e divides instead of multiplying.  A
    factor (a, b, +1, e > 0) whose binomials no factor divides by is
    expanded by Euler's series, in about sqrt(2 * trunc / a) terms; the
    others, where they name the same binomial 1 + sign*q^m, are expanded
    there once, at their summed exponent, and where it is zero nothing
    is done.
    """
    return QSeries(trunc, _expand_ap(factors, trunc))


def prod_ap_bytes(factors, trunc: int) -> int:
    """A bound on the bytes prod_ap(factors, trunc) holds at once.

    _expand_ap first applies some factors (1 + q^m over a progression)
    by Euler's series, then expands each other binomial 1 + sign*q^m
    once, at its net exponent.  Every array it forms is a partial
    product of these merged powers times a product X of series factors;
    or, inside a division by 1 + sign*q^m, such a product times (1 -
    sign*q^m)(1 + q^2m)(1 + q^4m)...; or, inside the series of a factor
    F, X times a partial sum of the series, or X times one term's
    division 1 / ((1 - q^a)...(1 - q^ka)) or a prefix of its doubling
    steps.  Put (1 + q^m)^e in place of each factor term (1 +
    sign*q^m)^e with e > 0, and 1 / (1 - q^m)^-e in place of one with e
    < 0, and call the product M.  At one binomial let P and N be the
    sums of the positive and of the negated negative exponents, so its
    net exponent is P - N and its terms in M give (1 + x^m)^P / (1 -
    x^m)^N.  That series has nonnegative coefficients and dominates both
    (1 + x^m)^(P - N) when P > N and 1 / (1 - x^m)^(N - P) when N > P,
    since (1 + x)(1 + x^2)...(1 + x^(2^k)) is a truncation of 1 / (1 -
    x).  Every term of Euler's series is nonnegative and their sum is
    F, so X times a partial sum is at most X F, and term k's division
    shifted by its exponent c_k is at most F; a series factor's
    binomials have N = 0.  So coefficient i of every array is at most
    coefficient i (or i + c_k) of M in absolute value, and each
    coefficient up to trunc is at most M(x) / x^trunc for 0 < x = e^-u
    < 1.  log M(x) is at most
    the sum over factors (a, b, _, e) of e * (log(1 + x^b) + pi^2 / (12
    a u)) for e > 0, and of -e * (-log(1 - x^b) + pi^2 / (6 a u)) for e
    < 0: the first term of the sum over j, plus an integral for the
    rest.  u = sqrt(C / trunc) balances the C / u part against trunc *
    u.  A coefficient below 2^bits takes L limbs, the top one below
    2^31.  Per coefficient:
      series      co, the term's array v and a division's shift-add
                  temporary, or in a carry or a widening the old and the
                  new array beside the third: 24 L bytes.  The net
                  table does not exist yet, and v is freed after each
                  application.
      binomials   the limbs and one equal shift-add temporary (16 L
                  bytes), the (2, trunc + 1) int64 net-exponent table (16
                  bytes) and at most one entry of a run of it as a list
                  (a pointer and an int below 2^63: at most 56 bytes).
      rebuild     past one limb, after the table is freed: the limbs, an
                  int of 32 L bits with its pointer (at most 40 + 8 L
                  bytes) and one limb column cast to ints (48 bytes).
    So the count is 16 L + 88 bytes, or max(24 L, 16 L + 88) when some
    factor (a, b, +1, e > 0) may take the series; 24 L is the larger only
    past 11 limbs.

    The majorant cannot see the cancellation in a product of
    (1 - q^m) factors, so its bits grow as sqrt(trunc): E(2)^5 / (E(4)^2
    E(1)^2) takes 3 limbs at order 4000, and this bound counts 15.
    """
    rows = trunc + 1
    if not factors:
        return 8 * rows
    c = sum(
        e * pi**2 / (12 * a) if e > 0 else -e * pi**2 / (6 * a)
        for a, _b, _sign, e in factors
    )
    u = sqrt(c / max(trunc, 1))
    log_max = trunc * u + c / u + sum(
        e * log1p(exp(-u * b)) if e > 0 else e * log1p(-exp(-u * b))
        for _a, b, _sign, e in factors
    )
    bits = ceil(log_max / log(2)) + 1
    limbs = 1 + max(0, -(-(bits - 30) // _LIMB_BITS))
    per = 16 * limbs + 88
    if any(sign == 1 and e > 0 for _a, _b, sign, e in factors):
        per = max(per, 24 * limbs)
    return rows * per


def _expand_ap(factors, trunc: int) -> np.ndarray:
    """The coefficient array of prod_ap: int64, or Python ints past one limb.

    The product runs on an int64 array co of shape (trunc + 1, L), row i
    holding the radix-2^_LIMB_BITS limbs of coefficient i, and every
    step acts on all limbs at once.  First each factor (a, b, +1, e > 0)
    that _euler_factors selects is applied e times by Euler's series
    (Andrews, The Theory of Partitions, Cor. 2.2): the product of 1 +
    q^(a*j + b) over j >= 0 is the sum over k >= 0 of q^c_k / ((1 -
    q^a)(1 - q^2a)...(1 - q^ka)), c_k = b*k + a*k*(k - 1)/2.  So with
    v_0 = co and v_k = v_(k-1) / (1 - q^ka), term k adds q^c_k v_k into
    co: about sqrt(2 * trunc / a) terms instead of one shift-add per
    binomial.  v_k is needed only to trunc - c_k, so each division runs
    on a shorter prefix of one array.  A carry may give co or v more
    limbs than the other; the narrower is then widened with zero limbs,
    so each add runs on whole rows (an add into a column slice would
    take numpy's iteration buffers).  The other factors expand
    each distinct binomial 1 + sign*q^m once, at its net exponent: the
    sum of the exponents they give it (see _net_exponents).  Merging
    saves work only where exponents cancel, and no such binomial takes
    the series.

    Multiplying by 1 + sign*q^m adds a shifted copy, so it at most
    doubles the max-abs of any limb; dividing runs partial sums of at
    most ceil(rows / m) terms, rows the length of the array divided; a
    series term adds two arrays, each certified for a grow of 2.
    Running bounds on co and v track this, and _certified keeps each
    below _INT64_SAFE before every step.  The series runs inline, so an
    array a carry or a widening replaces is freed at once (see
    prod_ap_bytes).
    """
    if trunc + 1 > _INT64_SAFE >> _LIMB_BITS:
        raise ValueError(
            f"prod_ap order {trunc} needs steps that no carry can certify"
        )
    series, rest = _euler_factors(factors, trunc)
    co = np.zeros((trunc + 1, 1), dtype=np.int64)
    co[0] = 1
    bound = 1
    for a, b, _sign, e in series:
        for _ in range(e):
            rows, k = trunc + 1 - b, 1
            v, v_bound = co[: max(rows, 0)].copy(), bound
            while rows > 0:
                v = v[:rows]
                grow = -(-rows // (k * a))
                v, v_bound = _certified(v, v_bound, grow)
                v_bound *= grow
                _divide_binomial(v, k * a, -1)
                v, v_bound = _certified(v, v_bound, 2)
                co, bound = _certified(co, bound, 2)
                co, v = _widen(co, v.shape[1]), _widen(v, co.shape[1])
                co[trunc + 1 - rows :] += v
                bound += v_bound
                rows -= b + k * a
                k += 1
            del v  # else its base lives on through the steps below
    for m, sign, e in _net_exponents(rest, trunc):
        grow = 2 if e > 0 else -(-(trunc + 1) // m)
        for _ in range(abs(e)):
            co, bound = _certified(co, bound, grow)
            bound *= grow
            if e < 0:
                _divide_binomial(co, m, sign)
            elif sign == 1:
                co[m:] += co[:-m]  # numpy buffers the overlapping read
            else:
                co[m:] -= co[:-m]
    return _join(co, _LIMB_BITS)


def _certified(co: np.ndarray, bound: int, grow: int):
    """co and a bound on its limbs, the bound times grow below _INT64_SAFE.

    While there is one limb, a bound that fails is first replaced by
    the exact max-abs of the array; past one limb the low limbs double
    with every shift-add, so a scan would not certify the step, and the
    bound goes straight to the carry.  _carry brings every limb below
    2^_LIMB_BITS, which certifies any grow up to the order cap of
    _expand_ap, _INT64_SAFE >> _LIMB_BITS.
    """
    if bound * grow >= _INT64_SAFE and co.shape[1] == 1:
        bound = _max_abs(co)
    if bound * grow >= _INT64_SAFE:
        co = _carry(co)
        bound = (1 << _LIMB_BITS) - 1
    return co, bound


def _euler_factors(factors, trunc: int):
    """(series, rest): the factors _expand_ap applies by Euler's series,
    (a, b, +1, e > 0) with no binomial 1 + q^m, m <= trunc, that any
    factor gives a negative exponent, and the others, each in order.
    Every factor is checked first."""
    for a, b, sign, e in factors:
        if a < 1:
            raise ValueError("factor step must be >= 1")
        if b < 1:
            raise ValueError(
                "factor offset must be >= 1 (a j=0 factor with exponent 0 "
                "is not a valid infinite-product term)"
            )
        if sign not in (1, -1):
            raise ValueError("factor sign must be +1 or -1")
        if e == 0:
            raise ValueError("factor exponent must be nonzero")
    divided = np.zeros(trunc + 1, dtype=bool)
    for a, b, sign, e in factors:
        if sign == 1 and e < 0:
            divided[b::a] = True
    eligible = [
        sign == 1 and e > 0 and not divided[b::a].any()
        for a, b, sign, e in factors
    ]
    series = [f for f, ok in zip(factors, eligible) if ok]
    rest = [f for f, ok in zip(factors, eligible) if not ok]
    return series, rest


def _net_exponents(factors, trunc: int):
    """Yield (m, sign, e) for each binomial 1 + sign*q^m, m <= trunc,
    whose exponents over the factors sum to e != 0.

    The binomials come in the order the factors first name them.  The
    sums live in one int64 table indexed by (sign, m); a factor's run of
    it is zeroed once read, and the table is freed when the generator
    ends.
    """
    net = np.zeros((2, trunc + 1), dtype=np.int64)
    for a, b, sign, e in factors:
        net[(1 - sign) // 2, b::a] += e
    for a, b, sign, _e in factors:
        run = net[(1 - sign) // 2, b::a]
        exponents = run.tolist()
        run[:] = 0
        for m, e in zip(range(b, trunc + 1, a), exponents):
            if e:
                yield m, sign, e


def _widen(co: np.ndarray, limbs: int) -> np.ndarray:
    """co with zero limbs appended up to limbs columns."""
    if co.shape[1] >= limbs:
        return co
    pad = np.zeros((len(co), limbs - co.shape[1]), dtype=np.int64)
    return np.concatenate((co, pad), axis=1)


def _carry(co: np.ndarray) -> np.ndarray:
    """The same limb values, every limb but the top one in [0, 2^bits).

    Each limb passes its floor quotient by 2^bits up to the next; the
    arithmetic shift floors, so negative coefficients stay exact.  A
    limb is added while the top one is 2^(bits - 1) or more in absolute
    value, so afterwards every limb is below 2^bits in absolute value.
    """
    mask = (1 << _LIMB_BITS) - 1
    k = 0
    while True:
        if k == co.shape[1] - 1:
            if _max_abs(co[:, k]) < 1 << (_LIMB_BITS - 1):
                return co
            co = _widen(co, k + 2)
        co[:, k + 1] += co[:, k] >> _LIMB_BITS
        co[:, k] &= mask
        k += 1


def _divide_binomial(co: np.ndarray, m: int, sign: int) -> None:
    """In place, divide by 1 + sign*q^m: q[i] = co[i] - sign*q[i-m].

    With x = q^m, 1 / (1 + sign*x) = (1 - sign*x)(1 + x^2)(1 + x^4)...
    up to the truncation order, so the division is ceil(log2(rows))
    shift-adds on every limb at once, rows = ceil((trunc + 1) / m).
    Each partial product sums at most rows terms of co, so the bound
    that certifies the division certifies every step of it.
    """
    if sign == 1:
        co[m:] -= co[:-m]
    else:
        co[m:] += co[:-m]
    step = 2 * m
    while step < len(co):
        co[step:] += co[:-step]
        step *= 2
