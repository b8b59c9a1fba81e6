"""Verification engines: catalog runs, coefficient theorems, genus checks.

Every check builds its two sides as exact integer arrays indexed by the
exponent n and hands them to one comparison, _first_mismatch, which
returns the least failing n.  The lattice-count checks run over
1 <= n <= N, as the paper states them.  The slices of the int32 s table
a check reads are widened to int64 before any arithmetic: the table's
certificate bounds s(n), not p*s(n).  The weighted two-genus identity
takes its coefficients from Genus.weights48, so the terms a report
prints are the terms that were checked.  The q-series route (sifted
series built from theta sums and products) and the lattice route
(counts from direct enumeration) are kept separate so each confirms
the other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .catalog import (
    PHI,
    PHI3,
    IdentitySpec,
    catalog as full_catalog,
    evaluate,
    lookup,
    plan,
    planned,
    power,
    scale,
    sift,
    sub,
    theta3,
)
from .forms import legendre
from .genera import HResult, find_h, require_odd_prime, tg1, tg2
from .lattice import point_array_bytes, s_table, theta_series_ternary
from .qseries import prod_ap_bytes


@dataclass(frozen=True)
class VerificationReport:
    id: str
    order: int
    status: str  # "pass" | "fail"
    first_mismatch: tuple | None  # (exponent, lhs, rhs)
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "order": self.order,
            "status": self.status,
            "firstMismatch": list(self.first_mismatch)
            if self.first_mismatch
            else None,
        }


def _first_mismatch(lhs, rhs, keep=None) -> int | None:
    """The least index n (with keep[n], if given) where lhs and rhs differ."""
    differ = np.asarray(lhs != rhs, dtype=bool)
    if keep is not None:
        differ &= keep
    bad = np.flatnonzero(differ)
    return int(bad[0]) if len(bad) else None


def _from_one(max_n: int) -> np.ndarray:
    """The mask of n = 1..max_n over the indices 0..max_n."""
    return np.arange(max_n + 1) > 0


def _minus_chi(p: int, max_n: int) -> np.ndarray:
    """(-n|p) for n = 0..max_n, read from a table over the residues mod p."""
    residues = range(min(p, max_n + 1))
    table = np.array([legendre(-r, p) for r in residues], dtype=np.int64)
    return table[np.arange(max_n + 1) % p]


def verify_identity(spec_or_id, order: int) -> VerificationReport:
    spec = spec_or_id
    if isinstance(spec_or_id, str):
        spec = lookup(spec_or_id)
        if spec is None:
            raise KeyError(f"unknown identity id {spec_or_id!r}")
    start = time.perf_counter()
    lhs = evaluate(spec.lhs, order)
    rhs = evaluate(spec.rhs, order)
    keep = None
    if spec.mask is not None:
        modulus, residues = spec.mask
        keep = np.isin(np.arange(order + 1) % modulus, residues)
    i = _first_mismatch(lhs.array, rhs.array, keep)
    mismatch = None if i is None else (i, lhs[i], rhs[i])
    elapsed = time.perf_counter() - start
    status = "pass" if mismatch is None else "fail"
    return VerificationReport(spec.id, order, status, mismatch, elapsed)


def cap_bytes(exprs: list, order: int) -> tuple[int, int]:
    """Two byte bounds on evaluating exprs at order, each subtree at the
    deepest order the run asks of it (catalog.plan): the int64 rows of
    the points its ternary thetas walk, a bound on their work, since a
    theta holds only a batch of them at once; and the largest array
    any other node builds.
    """
    nodes = plan(exprs, order).items()
    walk = [_node_bytes(node, at) for node, at in nodes if node[0] == "theta3"]
    arrays = [_node_bytes(node, at) for node, at in nodes if node[0] != "theta3"]
    return max(walk, default=0), max(arrays, default=0)


def _node_bytes(expr: tuple, order: int) -> int:
    """A bound on the bytes one node costs at order: for a ternary theta
    point_array_bytes(3, order), the int64 rows of the points it walks.
    """
    op = expr[0]
    if op == "theta3":
        return point_array_bytes(3, order)
    if op == "theta2":
        # Completing the square, a binary leaf's exponent is <= N where
        # its quadratic part at (m, n) + h is <= N - w +
        # (c u^2 - b u v + a v^2) / (4ac - b^2).
        (a, b, c), (u, v), w = expr[1:4]
        d = 4 * a * c - b * b
        shift = c * u * u - b * u * v + a * v * v
        return point_array_bytes(2, (order - w) * d + shift, d)
    if op == "prodap":
        return prod_ap_bytes(expr[1], order)
    return 8 * (order + 1)


def _verify_planned(specs, order: int) -> list[VerificationReport]:
    """verify_identity on each spec in turn, every subtree of the specs
    built once, at the deepest order any of them asks of it."""
    with planned([x for spec in specs for x in (spec.lhs, spec.rhs)], order):
        return [verify_identity(spec, order) for spec in specs]


def run_catalog(order: int, ids=None) -> list[VerificationReport]:
    specs = full_catalog()
    if ids is not None:
        wanted = set(ids)
        unknown = wanted - {s.id for s in specs}
        if unknown:
            raise KeyError(f"unknown identity ids: {sorted(unknown)}")
        specs = [s for s in specs if s.id in wanted]
    return _verify_planned(specs, order)


# -- the prime-square recursion for sums of three squares -------------------

# Catalog entries the sifting chains run beside the residue branches:
# the degree-5 chain's steps, and the degree-3 analogues assembled from
# the cubic dissections.
_CHAIN_IDS = {
    3: ["E1.15", "E4.13", "E4.14", "E4.15", "E4.20", "E4.21"],
    5: [
        "E2.3", "E2.4", "E2.5", "E2.6", "E2.7", "E2.8",
        "E2.9r1", "E2.9r4", "E2.10", "E2.11", "E2.15", "E2.18",
    ],
}


def _branch_specs(p: int) -> list[IdentitySpec]:
    """The recursion as sifted series, one spec per residue r of n mod p:
    S(p^3, p^2 r) phi^3 = c_r S(p, r) phi^3 - [r = 0] p phi^3(q^p),
    with c_r = p + 1 - (-r|p), the coefficient the lattice route uses."""
    coefficients = p + 1 - _minus_chi(p, p - 1)
    specs = []
    for r in (*range(1, p), 0):
        c = int(coefficients[r])
        lhs, rhs = sift(p**3, p * p * r, PHI3), scale(c, sift(p, r, PHI3))
        text = f"S({p**3},{p * p * r}) phi^3 = {c} S({p},{r}) phi^3"
        if r == 0:
            rhs = sub(rhs, scale(p, power(PHI(p), 3)))
            text += f" - {p} phi^3(q^{p})"
        specs.append(IdentitySpec(f"HS{p}.n{r}", lhs, rhs, text))
    return specs


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
    same statement is re-derived at chain_order as sifted series: one
    branch per residue of n mod p, generated from the same coefficient,
    beside the catalog steps of that prime's dissection chain.
    """
    require_odd_prime(p)
    q = p * p
    s = s_table(q * max_n)
    s_n = s[: max_n + 1].astype(np.int64)
    rhs = (p + 1 - _minus_chi(p, max_n)) * s_n
    rhs[::q] -= p * s_n[: max_n // q + 1]
    first_fail = _first_mismatch(s[::q], rhs, _from_one(max_n))
    chain_reports: tuple[VerificationReport, ...] = ()
    chain_used = None
    if p in _CHAIN_IDS and first_fail is None:
        chain_used = chain_order
        specs = [lookup(i) for i in _CHAIN_IDS[p]] + _branch_specs(p)
        chain_reports = tuple(_verify_planned(specs, chain_order))
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


def verify_theorems(max_n: int) -> list[TheoremReport]:
    """The four representation-number theorems, from lattice counts alone.

    The two parity-restricted statements hold for n = 1, 2 mod 4; their
    extensions subtract a second form's counts and hold for every n.
    """
    s = s_table(25 * max_n)
    g, h, g2, h2 = (
        evaluate(theta3(*form), max_n).array
        for form in (
            (1, 1, 3, 0, 0, 1),
            (2, 2, 2, -1, 1, 1),
            (4, 3, 4, 0, 4, 0),
            (8, 3, 7, 2, 8, 4),
        )
    )
    s_n = s[: max_n + 1].astype(np.int64)
    d9 = s[::9][: max_n + 1].astype(np.int64) - 3 * s_n
    d25 = s[::25].astype(np.int64) - 5 * s_n
    residue = np.arange(max_n + 1) % 4
    parity = (residue == 1) | (residue == 2)
    from_one = _from_one(max_n)
    checks = [
        ("T1.1", _first_mismatch(d25, 4 * h, parity)),
        ("T1.2", _first_mismatch(d9, 2 * g, parity)),
        ("T5.2", _first_mismatch(d9, 2 * g - 4 * g2, from_one)),
        ("T5.3", _first_mismatch(d25, 4 * h - 8 * h2, from_one)),
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


def verify_prop54(p: int, max_n: int) -> Prop54Report:
    """s(p^2 n) - p s(n) as 48 and -96 times automorph-weighted counts
    over the two distinguished genera, checked exactly for 1 <= n <= max_n.

    The s table comes first: a size it refuses fails before any genus work."""
    s = s_table(p * p * max_n)
    genus1, genus2 = tg1(p), tg2(p)
    terms1 = tuple(
        (c, m.as_tuple()) for c, m in zip(genus1.weights48(), genus1.members)
    )
    terms2 = tuple(
        (2 * c, m.as_tuple())
        for c, m in zip(genus2.weights48(), genus2.members)
    )
    rhs = np.zeros(max_n + 1, dtype=np.int64)
    for sign, terms in ((1, terms1), (-1, terms2)):
        for c, form in terms:
            rhs += sign * c * evaluate(theta3(*form), max_n).array
    lhs = s[:: p * p].astype(np.int64) - p * s[: max_n + 1].astype(np.int64)
    first_fail = _first_mismatch(lhs, rhs, _from_one(max_n))
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
    thetas = [theta_series_ternary(f, max_n).array for f, _g in result.mapping]
    vanishing_ok = pullback_ok and not any(
        t[1::4].any() or t[2::4].any() for t in thetas
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
    targets = _minus_chi(p, max_n) == 1
    bad = []
    for member in tg1(p).members + tg2(p).members:
        form = member.as_tuple()
        theta = evaluate(theta3(*form), max_n).array
        hits = np.flatnonzero(targets & (theta != 0))
        bad.extend((form, int(n)) for n in hits)
    return JagyReport(
        p, max_n, "pass" if not bad else "fail", tuple(bad)
    )
