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

from .lattice import TernaryForm, theta_series_ternary
from .forms import (
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


def same_genus(f: TernaryForm, g: TernaryForm) -> bool:
    if f.disc() != g.disc():
        raise ValueError("genus comparison requires equal discriminants")
    return genus_symbol(f) == genus_symbol(g)


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

    def contains(self, form: TernaryForm) -> bool:
        target = reduce_form(form).as_tuple()
        return any(m.as_tuple() == target for m in self.members)

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
    genera = []
    for symbol in groups:
        members = tuple(sorted(groups[symbol], key=lambda f: f.as_tuple()))
        genera.append(
            Genus(disc, members, tuple(automorph_count(m) for m in members))
        )
    genera.sort(key=lambda g: g.members[0].as_tuple())
    return tuple(genera)


def genus_of(form: TernaryForm) -> Genus:
    canonical = reduce_form(form)
    key = canonical.as_tuple()
    for genus in genus_partition(canonical.disc()):
        if any(m.as_tuple() == key for m in genus.members):
            return genus
    raise RuntimeError(f"form {form} missing from its own discriminant")


def require_odd_prime(p: int) -> None:
    """The one guard on a prime argument: ValueError unless p is an odd prime."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")


@lru_cache(maxsize=None)
def tg1(p: int) -> Genus:
    """The genus of all classes of discriminant p^2 (verified unique)."""
    require_odd_prime(p)
    partition = genus_partition(p * p)
    if len(partition) != 1:
        raise RuntimeError(
            f"discriminant {p * p} split into {len(partition)} genera; "
            "expected a single genus"
        )
    return partition[0]


# -- binary forms of discriminant -p and their ternary lift ----------------


@dataclass(frozen=True)
class BinaryClass:
    """Reduced binary form a*x^2 + b*xz + c*z^2 with b^2 - 4ac = -p."""

    a: int
    b: int
    c: int

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def binary_classes(p: int) -> tuple[BinaryClass, ...]:
    """All reduced binary classes of discriminant -p (p ≡ 3 mod 4)."""
    require_odd_prime(p)
    if p % 4 != 3:
        raise ValueError("discriminant -p requires p ≡ 3 mod 4")
    out = []
    b = 1
    while b * b <= p // 3 + 1:
        if (b * b + p) % 4 == 0:
            m = (b * b + p) // 4
            a = b
            while a * a <= m:
                if a >= b and m % a == 0:
                    c = m // a
                    if abs(b) <= a <= c:
                        out.append(BinaryClass(a, b, c))
                        if b < a < c:
                            out.append(BinaryClass(a, -b, c))
                a += 1
        b += 2
    return tuple(sorted(out, key=lambda f: (f.a, -f.b, f.c)))


def lift_binary_to_ternary(bform: BinaryClass, p: int) -> TernaryForm:
    """4a x^2 + p y^2 + 4c z^2 + 4|b| xz; checked to have discriminant 16p^2."""
    if bform.disc() != -p:
        raise ValueError(f"binary discriminant {bform.disc()} is not -{p}")
    if p % 4 != 3:
        raise ValueError("lift requires p ≡ 3 mod 4")
    lifted = TernaryForm(4 * bform.a, p, 4 * bform.c, 0, 4 * abs(bform.b), 0)
    if lifted.disc() != 16 * p * p:
        raise RuntimeError(f"lift of {bform} has discriminant {lifted.disc()}")
    return lifted


def _tg2_seed(p: int) -> TernaryForm | None:
    if p % 4 == 3:
        return lift_binary_to_ternary(BinaryClass(1, 1, (p + 1) // 4), p)
    if p % 3 == 2:
        big = (4 * p + 1) // 3
        return TernaryForm(3, big, big, (2 - 4 * p) // 3, 2, 2)
    if p % 8 == 5:
        return TernaryForm(8, (p + 1) // 2, p + 2, 2, 8, 4)
    return None


def _vanishes_mod4(form: TernaryForm, bound: int = 200) -> bool:
    theta = theta_series_ternary(form, bound).array
    return not (theta[1::4].any() or theta[2::4].any())


@lru_cache(maxsize=None)
def tg2(p: int) -> Genus:
    """The distinguished genus of discriminant 16 p^2.

    Seeded by congruence family when p ≡ 3 mod 4, p ≡ 2 mod 3 or
    p ≡ 5 mod 8; otherwise selected as the unique genus whose members
    vanish on exponents ≡ 1, 2 mod 4 and admit an automorph-preserving
    pullback bijection onto tg1(p).
    """
    require_odd_prime(p)
    seed = _tg2_seed(p)
    if seed is not None:
        genus = genus_of(seed)
        if genus.discriminant != 16 * p * p:
            raise RuntimeError("seed produced the wrong discriminant")
        return genus
    matches = []
    for genus in genus_partition(16 * p * p):
        if all(_vanishes_mod4(m) for m in genus.members):
            if find_h_between(genus, tg1(p), 500).status == "ok":
                matches.append(genus)
    if not matches:
        raise RuntimeError(f"no genus of discriminant 16*{p}^2 qualifies")
    if len(matches) > 1:
        raise RuntimeError(
            f"ambiguous selection for p={p}: {len(matches)} genera qualify"
        )
    return matches[0]


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
    dst_thetas = [theta_series_ternary(g, max_n) for g in dst.members]
    candidates = []
    for f, aut_f in zip(src.members, src.aut_counts):
        theta4 = theta_series_ternary(f, 4 * max_n)
        pulled = theta4.sift(4, 0).truncate(max_n)
        row = [
            j
            for j, (g, aut_g) in enumerate(zip(dst.members, dst.aut_counts))
            if aut_f == aut_g and pulled == dst_thetas[j]
        ]
        if not row:
            return HResult("none", (), f"no partner for {f}")
        candidates.append(row)
    matchings = []
    _first_matchings(candidates, 0, [], matchings)
    if not matchings:
        return HResult("none", (), "no complete matching")
    if len(matchings) > 1:
        return HResult("ambiguous", (), "more than one matching")
    pairing = tuple(
        (src.members[i], dst.members[j]) for i, j in enumerate(matchings[0])
    )
    return HResult("ok", pairing)


def _first_matchings(rows, i, used, out):
    """Collect complete matchings into out, stopping once it holds two."""
    if i == len(rows):
        out.append(list(used))
        return
    for j in rows[i]:
        if j not in used:
            used.append(j)
            _first_matchings(rows, i + 1, used, out)
            used.pop()
            if len(out) > 1:
                return


def find_h(p: int, max_n: int = 500) -> HResult:
    """The automorph-preserving pullback bijection tg2(p) -> tg1(p)."""
    return find_h_between(tg2(p), tg1(p), max_n)
