"""Verification engines: catalog runs, coefficient theorems, genus checks.

Everything here compares exact integers; a check either passes or
reports the first failing exponent.  The q-series route (sifted series
built from theta sums and products) and the lattice route (counts from
direct enumeration) are kept separate so each confirms the other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .catalog import (
    PHI3,
    IdentitySpec,
    catalog as full_catalog,
    dilate,
    evaluate,
    lookup,
    scale,
    sift,
    sub,
    theta3,
)
from .forms import is_prime, legendre
from .genera import Genus, HResult, _vanishes_mod4, find_h, tg1, tg2
from .lattice import s_table


@dataclass(frozen=True)
class VerificationReport:
    id: str
    order: int
    status: str  # "pass" | "fail"
    first_mismatch: tuple | None  # (exponent, lhs, rhs)
    elapsed: float

    def to_json_dict(self, with_elapsed: bool = False) -> dict:
        out = {
            "id": self.id,
            "order": self.order,
            "status": self.status,
            "firstMismatch": list(self.first_mismatch)
            if self.first_mismatch
            else None,
        }
        if with_elapsed:
            out["elapsed"] = self.elapsed
        return out


def verify_identity(spec_or_id, order: int) -> VerificationReport:
    spec = spec_or_id
    if isinstance(spec_or_id, str):
        spec = lookup(spec_or_id)
        if spec is None:
            raise KeyError(f"unknown identity id {spec_or_id!r}")
    start = time.perf_counter()
    lhs = evaluate(spec.lhs, order)
    rhs = evaluate(spec.rhs, order)
    differ = np.asarray(lhs.array != rhs.array, dtype=bool)
    if spec.mask is not None:
        modulus, residues = spec.mask
        differ &= np.isin(np.arange(order + 1) % modulus, residues)
    bad = np.flatnonzero(differ)
    mismatch = None
    if len(bad):
        i = int(bad[0])
        mismatch = (i, lhs[i], rhs[i])
    elapsed = time.perf_counter() - start
    status = "pass" if mismatch is None else "fail"
    return VerificationReport(spec.id, order, status, mismatch, elapsed)


def run_catalog(order: int, ids=None) -> list[VerificationReport]:
    specs = full_catalog()
    if ids is not None:
        wanted = set(ids)
        unknown = wanted - {s.id for s in specs}
        if unknown:
            raise KeyError(f"unknown identity ids: {sorted(unknown)}")
        specs = [s for s in specs if s.id in wanted]
    return [verify_identity(s, order) for s in specs]


# -- the prime-square recursion for sums of three squares -------------------

# End results of the degree-5 sifting chain, one per residue branch,
# plus their degree-3 analogues assembled from the cubic dissections.
_CHAIN_IDS_P5 = [
    "E2.3", "E2.4", "E2.5", "E2.6", "E2.7", "E2.8",
    "E2.9r1", "E2.9r4", "E2.10", "E2.11", "E2.12r1", "E2.12r4",
    "E2.15", "E2.16r2", "E2.16r3", "E2.18", "E2.19",
]
_CHAIN_IDS_P3 = ["E1.15", "E4.13", "E4.14", "E4.15", "E4.20", "E4.21"]

_HS3_SPECS = [
    IdentitySpec(
        "HS3.n1",
        sift(27, 9, PHI3),
        scale(5, sift(3, 1, PHI3)),
        "S(27,9) phi^3 = 5 S(3,1) phi^3  (arguments = 1 mod 3)",
    ),
    IdentitySpec(
        "HS3.n2",
        sift(27, 18, PHI3),
        scale(3, sift(3, 2, PHI3)),
        "S(27,18) phi^3 = 3 S(3,2) phi^3  (arguments = 2 mod 3)",
    ),
    IdentitySpec(
        "HS3.n0",
        sift(27, 0, PHI3),
        sub(
            scale(4, sift(3, 0, PHI3)),
            scale(3, dilate(3, PHI3)),
        ),
        "S(27,0) phi^3 = 4 S(3,0) phi^3 - 3 phi^3(q^3)  (3 | argument)",
    ),
]

_HS5_SPECS = [
    IdentitySpec(
        "HS5.n1",
        sift(125, 25, PHI3),
        scale(5, sift(5, 1, PHI3)),
        "S(125,25) phi^3 = 5 S(5,1) phi^3",
    ),
    IdentitySpec(
        "HS5.n4",
        sift(125, 100, PHI3),
        scale(5, sift(5, 4, PHI3)),
        "S(125,100) phi^3 = 5 S(5,4) phi^3",
    ),
    IdentitySpec(
        "HS5.n2",
        sift(125, 50, PHI3),
        scale(7, sift(5, 2, PHI3)),
        "S(125,50) phi^3 = 7 S(5,2) phi^3",
    ),
    IdentitySpec(
        "HS5.n3",
        sift(125, 75, PHI3),
        scale(7, sift(5, 3, PHI3)),
        "S(125,75) phi^3 = 7 S(5,3) phi^3",
    ),
    IdentitySpec(
        "HS5.n0",
        sift(125, 0, PHI3),
        sub(
            scale(6, sift(5, 0, PHI3)),
            scale(5, dilate(5, PHI3)),
        ),
        "S(125,0) phi^3 = 6 S(5,0) phi^3 - 5 phi^3(q^5)",
    ),
]


@dataclass(frozen=True)
class HSReport:
    p: int
    max_n: int
    status: str
    first_fail: int | None
    chain_order: int | None
    chain_reports: tuple[VerificationReport, ...]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "maxN": self.max_n,
            "status": self.status,
            "firstFail": self.first_fail,
            "chainOrder": self.chain_order,
            "chain": [r.to_json_dict() for r in self.chain_reports],
        }


def verify_hs(p: int, max_n: int, chain_order: int = 500) -> HSReport:
    """Check s(p^2 n) = (p + 1 - (-n|p)) s(n) - p s(n/p^2) for n <= max_n.

    The counts come from lattice enumeration.  For p = 3 and p = 5 the
    same statement is re-derived as sifted series identities (the
    residue-branch endpoints of the dissection chains) at chain_order.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    table = s_table(p * p * max_n)
    first_fail = None
    for n in range(1, max_n + 1):
        expected = (p + 1 - legendre(-n, p)) * int(table[n])
        if n % (p * p) == 0:
            expected -= p * int(table[n // (p * p)])
        if int(table[p * p * n]) != expected:
            first_fail = n
            break
    chain_reports: tuple[VerificationReport, ...] = ()
    chain_used = None
    if p in (3, 5) and first_fail is None:
        chain_used = chain_order
        if p == 5:
            specs = [lookup(i) for i in _CHAIN_IDS_P5] + _HS5_SPECS
        else:
            specs = [lookup(i) for i in _CHAIN_IDS_P3] + _HS3_SPECS
        chain_reports = tuple(verify_identity(s, chain_order) for s in specs)
    ok = first_fail is None and all(r.status == "pass" for r in chain_reports)
    return HSReport(
        p, max_n, "pass" if ok else "fail", first_fail, chain_used,
        chain_reports,
    )


# -- coefficient-level theorems ----------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    id: str
    max_n: int
    status: str
    first_fail: int | None

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "maxN": self.max_n,
            "status": self.status,
            "firstFail": self.first_fail,
        }


def _coefficient_check(max_n, lhs, rhs, residues=None):
    for n in range(1, max_n + 1):
        if residues is not None and n % 4 not in residues:
            continue
        if lhs(n) != rhs(n):
            return n
    return None


def verify_theorems(max_n: int) -> list[TheoremReport]:
    """The four representation-number theorems, from lattice counts alone.

    The two parity-restricted statements hold for n = 1, 2 mod 4; their
    extensions subtract a second form's counts and hold for every n.
    """
    s9 = s_table(25 * max_n)
    g = evaluate(theta3(1, 1, 3, 0, 0, 1), max_n)
    h = evaluate(theta3(2, 2, 2, -1, 1, 1), max_n)
    g2 = evaluate(theta3(4, 3, 4, 0, 4, 0), max_n)
    h2 = evaluate(theta3(8, 3, 7, 2, 8, 4), max_n)
    checks = [
        (
            "T1.1",
            _coefficient_check(
                max_n,
                lambda n: int(s9[25 * n]) - 5 * int(s9[n]),
                lambda n: 4 * h[n],
                residues=(1, 2),
            ),
        ),
        (
            "T1.2",
            _coefficient_check(
                max_n,
                lambda n: int(s9[9 * n]) - 3 * int(s9[n]),
                lambda n: 2 * g[n],
                residues=(1, 2),
            ),
        ),
        (
            "T5.2",
            _coefficient_check(
                max_n,
                lambda n: int(s9[9 * n]) - 3 * int(s9[n]),
                lambda n: 2 * g[n] - 4 * g2[n],
            ),
        ),
        (
            "T5.3",
            _coefficient_check(
                max_n,
                lambda n: int(s9[25 * n]) - 5 * int(s9[n]),
                lambda n: 4 * h[n] - 8 * h2[n],
            ),
        ),
    ]
    return [
        TheoremReport(tid, max_n, "pass" if fail is None else "fail", fail)
        for tid, fail in checks
    ]


# -- the weighted two-genus identity ------------------------------------------


@dataclass(frozen=True)
class Prop54Report:
    p: int
    max_n: int
    status: str
    first_fail: int | None
    tg1_terms: tuple[tuple[int, tuple], ...]  # (coefficient, form tuple)
    tg2_terms: tuple[tuple[int, tuple], ...]

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "maxN": self.max_n,
            "status": self.status,
            "firstFail": self.first_fail,
            "tg1Terms": [[c, list(t)] for c, t in self.tg1_terms],
            "tg2Terms": [[c, list(t)] for c, t in self.tg2_terms],
        }


def _weighted_sum(genus: Genus, thetas, n: int) -> Fraction:
    total = Fraction(0)
    for theta, aut in zip(thetas, genus.aut_counts):
        total += Fraction(theta[n], aut)
    return total


def verify_prop54(p: int, max_n: int) -> Prop54Report:
    """s(p^2 n) - p s(n) as 48 and -96 times automorph-weighted counts
    over the two distinguished genera, checked exactly for 1 <= n <= max_n.

    The s table comes first: a size it refuses fails before any genus work."""
    table = s_table(p * p * max_n)
    genus1, genus2 = tg1(p), tg2(p)
    t1 = [evaluate(theta3(*m.as_tuple()), max_n) for m in genus1.members]
    t2 = [evaluate(theta3(*m.as_tuple()), max_n) for m in genus2.members]
    first_fail = None
    for n in range(1, max_n + 1):
        lhs = int(table[p * p * n]) - p * int(table[n])
        rhs = 48 * _weighted_sum(genus1, t1, n) - 96 * _weighted_sum(
            genus2, t2, n
        )
        if rhs.denominator != 1:
            raise ArithmeticError(
                f"weighted sum is not integral at n={n} (p={p})"
            )
        if lhs != rhs:
            first_fail = n
            break
    terms1 = tuple(
        (48 // aut, m.as_tuple())
        for m, aut in zip(genus1.members, genus1.aut_counts)
    )
    terms2 = tuple(
        (96 // aut, m.as_tuple())
        for m, aut in zip(genus2.members, genus2.aut_counts)
    )
    return Prop54Report(
        p,
        max_n,
        "pass" if first_fail is None else "fail",
        first_fail,
        terms1,
        terms2,
    )


# -- signature properties of the second genus ---------------------------------


@dataclass(frozen=True)
class SignatureReport:
    p: int
    max_n: int
    status: str
    h_status: str
    mapping: tuple[tuple[tuple, tuple], ...]
    pullback_ok: bool
    vanishing_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "maxN": self.max_n,
            "status": self.status,
            "hStatus": self.h_status,
            "mapping": [[list(a), list(b)] for a, b in self.mapping],
            "pullbackOk": self.pullback_ok,
            "vanishingOk": self.vanishing_ok,
        }


def verify_signature(p: int, max_n: int) -> SignatureReport:
    """The pullback bijection and mod-4 vanishing of the second genus.

    find_h pairs f with g only if f(4n) == g(n) for every n <= max_n.
    """
    result: HResult = find_h(p, max_n)
    pullback_ok = result.status == "ok"
    vanishing_ok = pullback_ok and all(
        _vanishes_mod4(f, max_n) for f, _g in result.mapping
    )
    return SignatureReport(
        p,
        max_n,
        "pass" if vanishing_ok else "fail",
        result.status,
        tuple((f.as_tuple(), g.as_tuple()) for f, g in result.mapping),
        pullback_ok,
        vanishing_ok,
    )


# -- quadratic-character vanishing (conjecture-level) --------------------------


@dataclass(frozen=True)
class JagyReport:
    p: int
    max_n: int
    status: str
    failures: tuple[tuple[tuple, int], ...]  # (form, n) pairs that represent

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "maxN": self.max_n,
            "status": self.status,
            "failures": [[list(t), n] for t, n in self.failures],
        }


def verify_jagy(p: int, max_n: int) -> JagyReport:
    """Neither distinguished genus represents n with (-n|p) = 1.

    This is a conjecture-level check: any counterexample is reported as
    a hard failure for investigation, never suppressed.
    """
    members = list(tg1(p).members) + list(tg2(p).members)
    bad = []
    targets = [n for n in range(1, max_n + 1) if legendre(-n, p) == 1]
    for form in members:
        theta = evaluate(theta3(*form.as_tuple()), max_n)
        for n in targets:
            if theta[n] != 0:
                bad.append((form.as_tuple(), n))
    return JagyReport(
        p, max_n, "pass" if not bad else "fail", tuple(bad)
    )
