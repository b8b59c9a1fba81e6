"""Genus partitioning and the two distinguished genus constructions.

Two forms of equal discriminant lie in the same genus when they are
equivalent over the p-adic integers at every prime dividing twice the
discriminant (both are positive definite, so the real place agrees).
Local equivalence is decided through Jordan splittings: at odd p the
scaled ranks and unit-determinant characters form a complete invariant;
at 2 the per-scale data (rank, determinant class mod 8, parity type,
oddity) is normalized with compartment fusion and train sign-walking to
a canonical symbol before comparison (Conway & Sloane, SPLAG ch. 15).
The splitting itself runs on Python ints, as integer numerators over one
common denominator with fraction-free Schur complements, and reads each
valuation and unit residue from a (numerator, denominator) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .lattice import TernaryForm, theta_series_ternary
from .forms import (
    apply_transform,
    automorph_count,
    enumerate_classes,
    is_prime,
    legendre,
    reduce_form,
)


# -- p-adic Jordan splitting over the integers -----------------------------


def _val(x: int, p: int) -> int:
    if x == 0:
        return 10**9
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _unit(num: int, den: int, p: int) -> tuple[int, int]:
    """num/den with every factor p taken out of both."""
    while num % p == 0:
        num //= p
    while den % p == 0:
        den //= p
    return num, den


def _residue(unit: tuple[int, int], p_power: int) -> int:
    """Residue of a p-adic unit num/den, mod p_power."""
    num, den = unit
    return num * pow(den, -1, p_power) % p_power


def _jordan_blocks(gram, p: int):
    """Split a nonsingular symmetric integer matrix over Z_p into blocks.

    Returns a list of ('one', scale, unit) and ('two', scale, det_unit)
    entries; each unit is the unimodular part as a pair (num, den) with
    p dividing neither.  The working matrix is integer numerators m over
    one common denominator den, so valuations compare on m alone.  A 1x1
    pivot w turns the rest into m_kl*w - m_kw*m_wl over den*w, a 2x2
    pivot with determinant det into m_kl*det - (row k) adj (column l)
    over den*det: fraction-free Schur complements.
    """
    n = len(gram)
    m = [list(row) for row in gram]
    den = 1
    active = list(range(n))
    blocks = []
    while active:
        best = None
        for i in active:
            for j in active:
                v = _val(m[i][j], p)
                if best is None or v < best[0]:
                    best = (v, i, j)
        low, bi, bj = best
        scale = low - _val(den, p)
        diag = [i for i in active if _val(m[i][i], p) == low]
        if not diag and p != 2:
            # Fold the off-diagonal minimum onto the diagonal: replacing
            # e_i by e_i + e_j gives a_ii + 2a_ij + a_jj, and 2 is a unit
            # at odd p, so the new diagonal entry attains the minimum.
            i, j = bi, bj
            new_diag = m[i][i] + 2 * m[i][j] + m[j][j]
            for l in active:
                m[i][l] = m[l][i] = m[i][l] + m[j][l]
            m[i][i] = new_diag
            diag = [i]
        if diag:
            i = diag[0]
            w = m[i][i]
            active.remove(i)
            for k in active:
                for l in active:
                    m[k][l] = m[k][l] * w - m[k][i] * m[i][l]
            blocks.append(("one", scale, _unit(w, den, p)))
            den *= w
        else:
            # 2-adic even case: minimal valuation sits off the diagonal.
            i, j = bi, bj
            bii, bij, bjj = m[i][i], m[i][j], m[j][j]
            det = bii * bjj - bij * bij
            active.remove(i)
            active.remove(j)
            for k in active:
                ki, kj = m[k][i], m[k][j]
                for l in active:
                    il, jl = m[i][l], m[j][l]
                    m[k][l] = m[k][l] * det - (
                        ki * (bjj * il - bij * jl) + kj * (bii * jl - bij * il)
                    )
            blocks.append(("two", scale, _unit(det, den * den, p)))
            den *= det
    return blocks


def _symbol_odd(gram, p: int):
    """Complete invariant at an odd prime: (scale, rank, character) list."""
    per_scale: dict[int, list[tuple[int, int]]] = {}
    for kind, scale, unit in _jordan_blocks(gram, p):
        assert kind == "one", "odd-prime splitting is diagonal"
        per_scale.setdefault(scale, []).append(unit)
    out = []
    for scale in sorted(per_scale):
        units = per_scale[scale]
        chi = 1
        for u in units:
            chi *= legendre(_residue(u, p), p)
        out.append((scale, len(units), chi))
    return tuple(out)


def _symbol_two_raw(gram):
    """Per-scale quintuples (scale, rank, sign, type_odd, oddity) at p = 2."""
    per_scale: dict[int, dict] = {}
    for kind, scale, unit in _jordan_blocks(gram, 2):
        slot = per_scale.setdefault(
            scale, {"rank": 0, "det": 1, "odd": False, "oddity": 0}
        )
        if kind == "one":
            r = _residue(unit, 8)
            slot["rank"] += 1
            slot["det"] = slot["det"] * r % 8
            slot["odd"] = True
            slot["oddity"] = (slot["oddity"] + r) % 8
        else:
            r = _residue(unit, 8)  # 7 for the hyperbolic type, 3 otherwise
            assert r in (3, 7), "even binary 2-adic block must have det 3 or 7"
            slot["rank"] += 2
            slot["det"] = slot["det"] * r % 8
    out = []
    for scale in sorted(per_scale):
        s = per_scale[scale]
        sign = 1 if s["det"] in (1, 7) else -1
        out.append([scale, s["rank"], sign, 1 if s["odd"] else 0, s["oddity"]])
    return out


def _compartments(symbol):
    """Maximal runs of type-odd constituents at consecutive scales."""
    comps = []
    i = 0
    while i < len(symbol):
        if symbol[i][3] == 1:
            comp = [i]
            while (
                i + 1 < len(symbol)
                and symbol[i + 1][3] == 1
                and symbol[i + 1][0] == symbol[i][0] + 1
            ):
                i += 1
                comp.append(i)
            comps.append(comp)
        i += 1
    return comps


def _trains(symbol):
    """Blocks connected by scale steps that each touch a type-odd block.

    A gap of one scale joins two blocks only if at least one is odd; a
    gap of two joins only if both are odd (the walk crosses an empty,
    even scale); larger gaps always split.
    """
    trains = []
    cur = [0]
    for i in range(1, len(symbol)):
        gap = symbol[i][0] - symbol[i - 1][0]
        odd_prev, odd_cur = symbol[i - 1][3], symbol[i][3]
        joined = (gap == 1 and (odd_prev or odd_cur)) or (
            gap == 2 and odd_prev and odd_cur
        )
        if joined:
            cur.append(i)
        else:
            trains.append(cur)
            cur = [i]
    trains.append(cur)
    return trains


def _symbol_two_canonical(gram):
    """Canonical 2-adic symbol: fuse oddities, walk signs up each train."""
    symbol = _symbol_two_raw(gram)
    comps = _compartments(symbol)
    for comp in comps:
        total = sum(symbol[i][4] for i in comp) % 8
        for i in comp:
            symbol[i][4] = 0
        symbol[comp[0]][4] = total
    trains = _trains(symbol)
    for train in trains:
        # Move every minus sign to the first block of its train; each
        # pairwise walk adds 4 to the oddity of any compartment touching
        # either end of the step.
        for idx in range(len(train) - 1, 0, -1):
            i = train[idx]
            if symbol[i][2] == -1:
                symbol[i][2] = 1
                j = train[idx - 1]
                symbol[j][2] *= -1
                for comp in comps:
                    if i in comp or j in comp:
                        symbol[comp[0]][4] = (symbol[comp[0]][4] + 4) % 8
    return tuple(tuple(row) for row in symbol)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def genus_symbol(form: TernaryForm):
    """Local invariants at every prime dividing twice the discriminant."""
    gram = form.gram2()
    disc = form.disc()
    parts = [("disc", disc)]
    for p in _prime_factors(2 * disc):
        if p == 2:
            parts.append((2, _symbol_two_canonical(gram)))
        else:
            parts.append((p, _symbol_odd(gram, p)))
    return tuple(parts)


@dataclass(frozen=True)
class Genus:
    discriminant: int
    members: tuple[TernaryForm, ...]
    aut_counts: tuple[int, ...]

    def weights48(self) -> tuple[int, ...]:
        """48 / |Aut| per member; ArithmeticError if a count does not divide 48."""
        for n in self.aut_counts:
            if 48 % n:
                raise ArithmeticError(f"automorph count {n} does not divide 48")
        return tuple(48 // n for n in self.aut_counts)

    def to_json_dict(self) -> dict:
        return {
            "discriminant": self.discriminant,
            "members": [list(m.as_tuple()) for m in self.members],
            "autCounts": list(self.aut_counts),
            "weights48": list(self.weights48()),
        }


@lru_cache(maxsize=None)
def genus_partition(disc: int) -> tuple[Genus, ...]:
    """All classes of one discriminant, grouped by equal local symbols."""
    groups: dict[tuple, list[TernaryForm]] = {}
    for form in enumerate_classes(disc):
        groups.setdefault(genus_symbol(form), []).append(form)
    # The classes come sorted, so each genus's members are too, and the
    # genera are ordered by their first members.
    return tuple(
        Genus(disc, tuple(members), tuple(automorph_count(m) for m in members))
        for members in groups.values()
    )


def require_odd_prime(p: int) -> None:
    """The one guard on a prime argument: ValueError unless p is an odd
    prime that is_prime can prove."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")


def _require_eichler_mass(genus: Genus, name: str, p: int) -> Genus:
    """The genus, once its mass sum 1/|Aut| is checked to be (p - 1)/48.

    Eichler's mass of the maximal orders of the quaternion algebra
    ramified at p and infinity, to which the lattices of discriminant p^2
    correspond (Gross, CMS Conf. Proc. 7, 1987).
    """
    mass = sum(genus.weights48())
    if mass != p - 1:
        raise RuntimeError(
            f"{name}({p}) has Eichler mass {mass}/48, expected {p - 1}/48: "
            f"{p - 1 - mass}/48 missing"
        )
    return genus


def tg1(p: int) -> Genus:
    """The genus of all classes of discriminant p^2 (verified unique)."""
    require_odd_prime(p)
    partition = genus_partition(p * p)
    if len(partition) != 1:
        raise RuntimeError(
            f"discriminant {p * p} split into {len(partition)} genera; "
            "expected a single genus"
        )
    return _require_eichler_mass(partition[0], "tg1", p)


def overlattice(form: TernaryForm) -> TernaryForm:
    """The lattice 2M + Zx of a member M of tg1(p), reduced.

    x is the one nonzero x in {0, 1}^3 with G x = 0 mod 2 (G the doubled
    Gram), and Q(x) = 3 mod 4, else RuntimeError.  As Q(x + 2y) = Q(x) +
    2b(x, y) + 4Q(y) with 2b(x, y) = 0 mod 4, values are 0 mod 4 exactly
    on 2M, so r(4n) = r_M(n), Aut is Aut(M) and distinct M stay distinct:
    a Watson transformation read backwards (Watson, Proc. LMS 12, 1962).
    The basis, x in a column i with x_i = 1 and 2e_j in the other two,
    has determinant 4: the discriminant is 16 times that of M.
    """
    g = form.gram2()
    kernel = [
        x for x in product((0, 1), repeat=3)
        if any(x) and all(sum(r * c for r, c in zip(row, x)) % 2 == 0 for row in g)
    ]
    if len(kernel) != 1:
        raise RuntimeError(
            f"{form} has {len(kernel)} nonzero vectors x in {{0,1}}^3 with "
            "Gx = 0 mod 2; expected exactly one"
        )
    x = kernel[0]
    if form.value(*x) % 4 != 3:
        raise RuntimeError(f"{form} has Q{x} = {form.value(*x)}, not 3 mod 4")
    i = x.index(1)
    u = tuple(
        tuple(x[r] if j == i else 2 * (r == j) for j in range(3)) for r in range(3)
    )
    return reduce_form(apply_transform(form, u))


def tg2(p: int) -> Genus:
    """The distinguished genus of discriminant 16 p^2: the overlattices of tg1(p).

    Automorph counts are computed afresh, so the mass check is a real one;
    RuntimeError when two members coincide or one has another discriminant.
    """
    disc = 16 * p * p
    members = sorted(map(overlattice, tg1(p).members), key=TernaryForm.as_tuple)
    if len(set(members)) != len(members) or any(m.disc() != disc for m in members):
        raise RuntimeError(
            f"the overlattices of tg1({p}) are not distinct classes of "
            f"discriminant {disc}: {[m.as_tuple() for m in members]}"
        )
    genus = Genus(disc, tuple(members), tuple(automorph_count(m) for m in members))
    return _require_eichler_mass(genus, "tg2", p)


# -- the pullback bijection -------------------------------------------------


@dataclass(frozen=True)
class HResult:
    status: str  # "ok" | "none" | "ambiguous"
    mapping: tuple[tuple[TernaryForm, TernaryForm], ...]
    detail: str = ""


def find_h_between(src: Genus, dst: Genus, max_n: int) -> HResult:
    """Bijection H: src -> dst with equal automorph counts and
    member(4n) = H(member)(n) for all n <= max_n, if one exists uniquely."""
    if len(src.members) != len(dst.members):
        return HResult("none", (), "genus cardinalities differ")
    dst_keys = [
        (aut, theta_series_ternary(g, max_n))
        for g, aut in zip(dst.members, dst.aut_counts)
    ]
    # Partners have equal keys (automorph count, series), so each row is
    # a whole key group and the group sizes decide existence and uniqueness.
    rows = []
    for f, aut in zip(src.members, src.aut_counts):
        pulled = theta_series_ternary(f, 4 * max_n).sift(4, 0).truncate(max_n)
        row = tuple(j for j, key in enumerate(dst_keys) if key == (aut, pulled))
        if not row:
            return HResult("none", (), f"no partner for {f}")
        rows.append(row)
    if any(rows.count(row) != len(row) for row in rows):
        return HResult("none", (), "no complete matching")
    if any(len(row) > 1 for row in rows):
        return HResult("ambiguous", (), "more than one matching")
    pairing = zip(src.members, (dst.members[row[0]] for row in rows))
    return HResult("ok", tuple(pairing))


def find_h(p: int, max_n: int = 500) -> HResult:
    """The automorph-preserving pullback bijection tg2(p) -> tg1(p)."""
    return find_h_between(tg2(p), tg1(p), max_n)
