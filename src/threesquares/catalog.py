"""Machine-checkable catalog of the q-series and lattice identities.

Each catalog entry is a pair of expression trees over series builders;
one interpreter evaluates both sides so every entry is auditable as
data.  Interior nodes are the ring and exponent operations; the leaves
are tuples of these kinds:
  ("f", r, s)                       f(r,s); phiK = f(K,K), psiK = f(K,3K)
  ("prodap", factors)               products, see qseries.prod_ap; an eta
                                    quotient is one leaf, a factor
                                    (k, k, -1, e) per E(k)^e, e signed
  ("zero",), ("q", m)               0 and q^m
  ("theta3", coeffs, constraint)    ternary lattice theta series
  ("theta2", coeffs, linear, const, constraint)
                                    binary, with an affine part
A constraint is None or a lattice.Constraint on the variables' residues.

A run over many specs plans them first (planned): one walk of the
trees records, for every subtree, the deepest order the run will ask of
it, by the same child-order rule evaluate follows (_children).  The
subtree is then built once, at that order, and every shallower request
is served as a read-only view of its prefix.  So a table's per-identity
elapsed time charges each deep build to the first identity that needs
it.  Outside planned(), evaluate builds each (tree, order) on its own.

Notation used in entry descriptions:
  phi      sum of q^(n^2) over all integers n; phiK means q -> q^K
  psi      sum of q^(n(n+1)/2) over n >= 0
  f(r,s)   sum of q^(r*n(n-1)/2 + s*n(n+1)/2) over all integers n
  E(k)     product of (1 - q^(k*j)) over j >= 1
  a(q)     theta series of m^2 + mn + n^2
  T        theta series of 2x^2 + 2y^2 + 2z^2 - yz + zx + xy
  X(r)     same sum restricted to y = r mod 4, z = -r mod 4
  R[t]     theta series of the ternary form with coefficient tuple t
  S(t,s)   sifting operator: keep exponents = s mod t, reindex by t
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from . import qseries as qs
from .lattice import (
    BinaryForm,
    Constraint,
    TernaryForm,
    theta_series_binary,
    theta_series_ternary,
)


@dataclass(frozen=True)
class IdentitySpec:
    id: str
    lhs: tuple
    rhs: tuple
    description: str
    # Optional (modulus, residues): compare only exponents in those classes.
    mask: tuple | None = None


# -- expression constructors ------------------------------------------------


def add(*xs):
    return ("add",) + xs


def sub(x, y):
    return ("sub", x, y)


def neg(x):
    return scale(-1, x)


def mul(*xs):
    return ("mul",) + xs


def scale(k, x):
    return ("scale", k, x)


def power(x, k):
    return ("pow", x, k)


def div(x, y):
    return ("div", x, y)


def alt(x):
    return ("alt", x)


def sift(t, s, x):
    return ("sift", t, s, x)


def PHI(k=1):
    return F(k, k)


def PSI(k=1):
    return F(k, 3 * k)


def F(r, s):
    return ("f", r, s)


def eta(*parts):
    """The eta quotient, product of E(k)^e over its (k, e) parts, e signed."""
    return prodap(*((k, k, -1, e) for k, e in parts))


def Q(m):
    return ("q", m)


def theta3(*coeffs, constraint=None):
    return ("theta3", coeffs, constraint)


def theta2(a, b, c, linear=(0, 0), const=0, constraint=None):
    return ("theta2", (a, b, c), linear, const, constraint)


def A(k=1):
    return theta2(k, k, k)


ZERO = ("zero",)
T_FORM = (2, 2, 2, -1, 1, 1)
PHI3 = power(PHI(), 3)


def X(r):
    allowed = frozenset((i, r % 4, (-r) % 4) for i in range(4))
    return theta3(*T_FORM, constraint=Constraint(4, allowed))


def prodap(*factors):
    return ("prodap", tuple(factors))


# -- evaluator ---------------------------------------------------------------

_CACHE: dict = {}

# The deepest order the running planned() block asks of each subtree.
_PLAN: dict = {}

_LEAVES = frozenset({"f", "prodap", "zero", "q", "theta3", "theta2"})


def _children(expr: tuple, order: int) -> list:
    """The (subtree, order) pairs evaluate(expr, order) asks for.

    A sift asks its child for t*order + s, or the two factors of a
    product child instead (see _two_factors); every other interior node
    asks its children for its own order.
    """
    op = expr[0]
    if op == "sift":
        deep = expr[1] * order + expr[2]
        return [(x, deep) for x in _two_factors(expr[3]) or (expr[3],)]
    if op in _LEAVES:
        return []
    # The tuple arguments of an interior node are its subtrees.
    return [(x, order) for x in expr[1:] if isinstance(x, tuple)]


def plan(exprs, order: int) -> dict:
    """The deepest order at which evaluating each of exprs at order asks
    for each of their subtrees."""
    deepest: dict = {}
    todo = [(expr, order) for expr in exprs]
    while todo:
        expr, at = todo.pop()
        # Every child order grows with its parent's, so a subtree already
        # walked at a deeper order needs no second walk.
        if deepest.get(expr, -1) < at:
            deepest[expr] = at
            todo.extend(_children(expr, at))
    return deepest


@contextmanager
def planned(exprs, order: int):
    """Within the block, evaluate builds every subtree of exprs once, at
    the deepest order evaluating exprs at order asks of it."""
    _PLAN.update(plan(exprs, order))
    try:
        yield
    finally:
        _PLAN.clear()


def evaluate(expr: tuple, order: int) -> qs.QSeries:
    """Evaluate an expression tree exactly at the given truncation order.

    Sift nodes request the deeper order t*order + s from their child, so
    the result is exact to the requested order at every level.  A sift
    of a product asks for its two factors at that order instead (see
    _children).  Inside planned(), a subtree the plan holds at a deeper
    order is built there and served as a read-only view of that entry's
    prefix, so each subtree is built once per run; a report's elapsed
    time then includes the deep builds of the first identity that needs
    them.  Every subtree is evaluated through this function, so each
    memo miss adds exactly one entry.
    """
    key = (expr, order)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    deepest = _PLAN.get(expr, order)
    op = expr[0]
    if deepest > order:
        out = evaluate(expr, deepest).truncate(order)
    elif op == "f":
        out = qs.theta_f(expr[1], expr[2], order)
    elif op == "prodap":
        out = qs.prod_ap(list(expr[1]), order)
    elif op == "zero":
        out = qs.zero(order)
    elif op == "q":
        out = (
            qs.monomial(order, expr[1]) if expr[1] <= order else qs.zero(order)
        )
    elif op == "theta3":
        out = theta_series_ternary(TernaryForm(*expr[1]), order, expr[2])
    elif op == "theta2":
        a, b, c = expr[1]
        out = theta_series_binary(
            BinaryForm(a, b, c, linear=expr[2], const=expr[3]), order, expr[4]
        )
    elif op == "add":
        out = evaluate(expr[1], order)
        for child in expr[2:]:
            out = out + evaluate(child, order)
    elif op == "sub":
        out = evaluate(expr[1], order) - evaluate(expr[2], order)
    elif op == "mul":
        out = evaluate(expr[1], order)
        for child in expr[2:]:
            out = out * evaluate(child, order)
    elif op == "scale":
        out = evaluate(expr[2], order).scale(expr[1])
    elif op == "pow":
        out = evaluate(expr[1], order).pow(expr[2])
    elif op == "div":
        out = evaluate(expr[1], order).divide_exact(evaluate(expr[2], order))
    elif op == "alt":
        out = evaluate(expr[1], order).alternate()
    elif op == "sift":
        t, s = expr[1], expr[2]
        parts = [evaluate(x, deep) for x, deep in _children(expr, order)]
        if len(parts) == 1:
            out = parts[0].sift(t, s)
        else:
            out = qs._conv(*parts, t, s, order)
    else:
        raise ValueError(f"unknown expression node {op!r}")
    _CACHE[key] = out
    return out


def _two_factors(expr: tuple):
    """Two trees whose product is expr, when it is a pow (k >= 2) or a mul.

    A sift of a product then needs only the sifted coefficients of one
    convolution; the product itself is never built at the deep order.
    """
    if expr[0] == "pow" and expr[2] >= 2:
        base, k = expr[1], expr[2]
        return base, base if k == 2 else power(base, k - 1)
    if expr[0] == "mul" and len(expr) > 2:
        rest = expr[1:-1]
        return rest[0] if len(rest) == 1 else mul(*rest), expr[-1]
    return None


# -- the catalog --------------------------------------------------------------


def _entries() -> list[IdentitySpec]:
    ff = mul(F(1, 9), F(3, 7))  # the degree-5 theta product
    phi_phi5sq = mul(PHI(), power(PHI(5), 2))
    out = [
        IdentitySpec(
            "E1.9",
            PHI(),
            eta((2, 5), (4, -2), (1, -2)),
            "phi = E(2)^5 / (E(4)^2 E(1)^2)",
        ),
        IdentitySpec("E1.11", PSI(), eta((2, 2), (1, -1)), "psi = E(2)^2 / E(1)"),
        IdentitySpec(
            "E1.12",
            ff,
            eta((20, 1), (5, 1), (2, 2), (4, -1), (1, -1)),
            "f(1,9) f(3,7) = E(20) E(5) E(2)^2 / (E(4) E(1))",
        ),
        IdentitySpec(
            "E1.13",
            mul(F(1, 4), F(2, 3)),
            eta((5, 3), (2, 1), (10, -1), (1, -1)),
            "f(1,4) f(2,3) = E(5)^3 E(2) / (E(10) E(1))",
        ),
        IdentitySpec(
            "E1.14",
            PHI(),
            add(PHI(4), scale(2, mul(Q(1), PSI(8)))),
            "phi = phi4 + 2 q psi8",
        ),
        IdentitySpec(
            "E1.15",
            PHI(),
            add(PHI(9), scale(2, mul(Q(1), F(3, 15)))),
            "phi = phi9 + 2 q f(3,15)",
        ),
        IdentitySpec(
            "E1.16",
            PHI(),
            add(
                PHI(25),
                scale(2, mul(Q(1), F(15, 35))),
                scale(2, mul(Q(4), F(5, 45))),
            ),
            "phi = phi25 + 2 q f(15,35) + 2 q^4 f(5,45)",
        ),
        IdentitySpec(
            "E1.19",
            power(PHI(), 2),
            add(power(PHI(2), 2), scale(4, mul(Q(1), power(PSI(4), 2)))),
            "phi^2 = phi2^2 + 4 q psi4^2",
        ),
        IdentitySpec(
            "E1.20",
            power(PHI(), 2),
            add(
                power(PHI(4), 2),
                scale(4, mul(Q(1), power(PSI(4), 2))),
                scale(4, mul(Q(2), power(PSI(8), 2))),
            ),
            "phi^2 = phi4^2 + 4 q psi4^2 + 4 q^2 psi8^2",
        ),
        IdentitySpec(
            "E1.21",
            mul(power(F(1, 9), 2), power(F(3, 7), 2)),
            add(
                mul(power(F(4, 16), 2), power(F(8, 12), 2)),
                scale(
                    2,
                    mul(Q(1), F(4, 16), F(8, 12), F(6, 14), F(2, 18)),
                ),
                mul(Q(2), power(F(6, 14), 2), power(F(2, 18), 2)),
            ),
            "f(1,9)^2 f(3,7)^2 = f(4,16)^2 f(8,12)^2"
            " + 2 q f(4,16) f(8,12) f(6,14) f(2,18)"
            " + q^2 f(6,14)^2 f(2,18)^2",
        ),
        IdentitySpec(
            "E1.22",
            mul(PHI(), F(2, 8), F(4, 6)),
            add(
                mul(PSI(4), PHI(5), PHI(10)),
                scale(2, mul(Q(1), PSI(2), PSI(10), PHI(5))),
                mul(Q(2), PSI(20), PHI(2), PHI(5)),
            ),
            "phi f(2,8) f(4,6) = psi4 phi5 phi10 + 2 q psi2 psi10 phi5"
            " + q^2 psi20 phi2 phi5",
        ),
        IdentitySpec(
            "E1.23",
            add(mul(PHI(), PHI(5)), theta2(2, 2, 3)),
            scale(2, eta((10, 1), (5, 1), (4, 1), (2, 1), (20, -1), (1, -1))),
            "phi phi5 + R[2,2,3] = 2 E(10) E(5) E(4) E(2) / (E(20) E(1))",
        ),
        IdentitySpec(
            "E1.24",
            add(
                mul(PSI(10), PHI(), PHI(5)),
                mul(PSI(10), theta2(2, 2, 3)),
            ),
            scale(2, mul(PSI(2), ff)),
            "psi10 (phi phi5 + R[2,2,3]) = 2 psi2 f(1,9) f(3,7)",
        ),
        IdentitySpec(
            "E2.1",
            sub(power(PHI(), 2), power(PHI(5), 2)),
            scale(4, mul(Q(1), ff)),
            "phi^2 - phi5^2 = 4 q f(1,9) f(3,7)",
        ),
        IdentitySpec(
            "E2.1c",
            sub(power(PSI(), 2), mul(Q(1), power(PSI(5), 2))),
            mul(F(1, 4), F(2, 3)),
            "psi^2 - q psi5^2 = f(1,4) f(2,3)",
        ),
        IdentitySpec(
            "E2.3",
            sift(5, 0, power(PHI(), 2)),
            add(power(PHI(5), 2), scale(8, mul(Q(1), ff))),
            "S(5,0) phi^2 = phi5^2 + 8 q f(1,9) f(3,7)",
        ),
        IdentitySpec(
            "E2.4",
            sift(5, 0, sub(power(PHI(), 2), power(PHI(5), 2))),
            add(
                neg(sub(power(PHI(), 2), power(PHI(5), 2))),
                scale(8, mul(Q(1), ff)),
            ),
            "S(5,0)(phi^2 - phi5^2) = -(phi^2 - phi5^2) + 8 q f(1,9) f(3,7)",
        ),
        IdentitySpec(
            "E2.5",
            sift(5, 0, mul(Q(1), ff)),
            mul(Q(1), ff),
            "S(5,0)(q f(1,9) f(3,7)) = q f(1,9) f(3,7)",
        ),
        IdentitySpec(
            "E2.6",
            sift(5, 0, PHI3),
            add(power(PHI(5), 3), scale(24, mul(Q(1), PHI(5), ff))),
            "S(5,0) phi^3 = phi5^3 + 24 q phi5 f(1,9) f(3,7)",
        ),
        IdentitySpec(
            "E2.7",
            sift(5, 1, PHI3),
            scale(6, mul(F(3, 7), power(PHI(), 2))),
            "S(5,1) phi^3 = 6 f(3,7) phi^2",
        ),
        IdentitySpec(
            "E2.8",
            sift(5, 4, PHI3),
            scale(6, mul(F(1, 9), power(PHI(), 2))),
            "S(5,4) phi^3 = 6 f(1,9) phi^2",
        ),
        IdentitySpec(
            "E2.9r1",
            sift(5, 1, sub(PHI3, scale(3, phi_phi5sq))),
            ZERO,
            "S(5,1)(phi^3 - 3 phi phi5^2) = 0",
        ),
        IdentitySpec(
            "E2.9r4",
            sift(5, 4, sub(PHI3, scale(3, phi_phi5sq))),
            ZERO,
            "S(5,4)(phi^3 - 3 phi phi5^2) = 0",
        ),
        IdentitySpec(
            "E2.10",
            sift(25, 0, PHI3),
            add(PHI3, scale(24, mul(Q(1), PHI(), ff))),
            "S(25,0) phi^3 = phi^3 + 24 q phi f(1,9) f(3,7)",
        ),
        IdentitySpec(
            "E2.11",
            sub(sift(25, 0, PHI3), scale(5, PHI3)),
            scale(2, sub(PHI3, scale(3, phi_phi5sq))),
            "S(25,0) phi^3 - 5 phi^3 = 2 (phi^3 - 3 phi phi5^2)",
        ),
        IdentitySpec(
            "E2.12r1",
            sub(sift(125, 25, PHI3), scale(5, sift(5, 1, PHI3))),
            ZERO,
            "S(125,25) phi^3 - 5 S(5,1) phi^3 = 0",
        ),
        IdentitySpec(
            "E2.12r4",
            sub(sift(125, 100, PHI3), scale(5, sift(5, 4, PHI3))),
            ZERO,
            "S(125,100) phi^3 - 5 S(5,4) phi^3 = 0",
        ),
        IdentitySpec(
            "E2.13",
            PHI3,
            theta3(1, 1, 1, 0, 0, 0),
            "phi^3 = R[1,1,1,0,0,0] (series route vs lattice route)",
        ),
        IdentitySpec(
            "E2.15",
            sub(sift(25, 0, PHI3), scale(7, PHI3)),
            neg(scale(6, phi_phi5sq)),
            "S(25,0) phi^3 - 7 phi^3 = -6 phi phi5^2",
        ),
        IdentitySpec(
            "E2.16r2",
            sift(5, 2, sub(sift(25, 0, PHI3), scale(7, PHI3))),
            ZERO,
            "S(5,2)(S(25,0) phi^3 - 7 phi^3) = 0",
        ),
        IdentitySpec(
            "E2.16r3",
            sift(5, 3, sub(sift(25, 0, PHI3), scale(7, PHI3))),
            ZERO,
            "S(5,3)(S(25,0) phi^3 - 7 phi^3) = 0",
        ),
        IdentitySpec(
            "E2.18",
            sift(5, 0, sub(sift(25, 0, PHI3), scale(6, PHI3))),
            sift(5, 0, sub(PHI3, scale(6, phi_phi5sq))),
            "S(5,0)(S(25,0) phi^3 - 6 phi^3) = S(5,0)(phi^3 - 6 phi phi5^2)",
        ),
        IdentitySpec(
            "E2.19",
            sub(sift(125, 0, PHI3), scale(6, sift(5, 0, PHI3))),
            neg(scale(5, power(PHI(5), 3))),
            "S(125,0) phi^3 - 6 S(5,0) phi^3 = -5 phi5^3",
        ),
        IdentitySpec(
            "ECH",
            sift(5, 1, PHI3),
            scale(
                6,
                prodap(
                    (2, 2, -1, 2),
                    (10, 10, -1, 1),
                    (2, 1, 1, 4),
                    (10, 7, 1, 1),
                    (10, 3, 1, 1),
                ),
            ),
            "S(5,1) phi^3 = 6 prod (1-q^2j)^2 (1-q^10j) (1+q^(2j-1))^4"
            " (1+q^(10j-3)) (1+q^(10j-7))",
        ),
        IdentitySpec(
            "E3.1r1",
            sub(sift(100, 25, PHI3), scale(5, sift(4, 1, PHI3))),
            scale(4, sift(4, 1, theta3(*T_FORM))),
            "S(100,25) phi^3 - 5 S(4,1) phi^3 = 4 S(4,1) T",
        ),
        IdentitySpec(
            "E3.1r2",
            sub(sift(100, 50, PHI3), scale(5, sift(4, 2, PHI3))),
            scale(4, sift(4, 2, theta3(*T_FORM))),
            "S(100,50) phi^3 - 5 S(4,2) phi^3 = 4 S(4,2) T",
        ),
        IdentitySpec(
            "E3.2",
            sift(4, 1, theta3(*T_FORM)),
            scale(6, sift(4, 1, X(1))),
            "S(4,1) T = 6 S(4,1) X(1)",
        ),
        IdentitySpec(
            "E3.3",
            sift(4, 2, theta3(*T_FORM)),
            scale(3, sift(4, 2, add(X(0), X(2)))),
            "S(4,2) T = 3 S(4,2)(X(0) + X(2))",
        ),
        IdentitySpec(
            "E3.6",
            add(X(0), X(2)),
            mul(PHI(2), PHI(10), PHI(20)),
            "X(0) + X(2) = phi2 phi10 phi20",
        ),
        IdentitySpec(
            "E3.7",
            sift(4, 2, theta3(*T_FORM)),
            scale(3, mul(PHI(5), sift(4, 2, mul(PHI(2), PHI(10))))),
            "S(4,2) T = 3 phi5 S(4,2)(phi2 phi10)",
        ),
        IdentitySpec(
            "E3.8",
            scale(4, sift(4, 2, theta3(*T_FORM))),
            scale(
                24,
                mul(
                    PHI(5),
                    add(mul(PSI(4), PHI(10)), mul(Q(2), PHI(2), PSI(20))),
                ),
            ),
            "4 S(4,2) T = 24 phi5 (psi4 phi10 + q^2 phi2 psi20)",
        ),
        IdentitySpec(
            "E3.10",
            add(
                scale(
                    24,
                    mul(
                        Q(1),
                        PHI(2),
                        sift(
                            4,
                            0,
                            theta2(
                                30, 20, 30, (20, 20), 0,
                                Constraint(2, frozenset({(0, 0), (1, 1)})),
                            ),
                        ),
                    ),
                ),
                scale(
                    48,
                    mul(
                        Q(1),
                        PSI(4),
                        sift(
                            4,
                            0,
                            theta2(
                                30, 20, 30, (20, 20), 2,
                                Constraint(2, frozenset({(0, 1), (1, 0)})),
                            ),
                        ),
                    ),
                ),
            ),
            add(
                scale(
                    24, mul(Q(1), PHI(2), theta2(20, 0, 10, (10, 0)))
                ),
                scale(
                    48,
                    mul(Q(4), PSI(4), theta2(20, 0, 10, (-10, -10))),
                ),
            ),
            "parity split of 24 q S(4,0) over the shifted binary lattice"
            " = 24 q phi2 A[20u^2+10u+10v^2]"
            " + 48 q^4 psi4 A[20u^2-10u+10v^2-10v]",
        ),
        IdentitySpec(
            "E3.11",
            scale(4, sift(4, 1, theta3(*T_FORM))),
            scale(24, mul(Q(1), PSI(10), theta2(2, 2, 3))),
            "4 S(4,1) T = 24 q psi10 R[2,2,3]",
        ),
        IdentitySpec(
            "E3.11b",
            theta2(2, 2, 3),
            add(mul(PHI(2), PHI(10)), scale(4, mul(Q(3), PSI(4), PSI(20)))),
            "R[2,2,3] = phi2 phi10 + 4 q^3 psi4 psi20",
        ),
        IdentitySpec(
            "E3.13",
            sift(4, 1, sub(PHI3, scale(3, phi_phi5sq))),
            sub(
                scale(24, mul(Q(1), PSI(2), ff)),
                scale(12, mul(Q(1), PHI(), PHI(5), PSI(10))),
            ),
            "S(4,1)(phi^3 - 3 phi phi5^2) = 24 q psi2 f(1,9) f(3,7)"
            " - 12 q phi phi5 psi10",
        ),
        IdentitySpec(
            "E3.14",
            sift(4, 2, sub(PHI3, scale(3, phi_phi5sq))),
            add(
                neg(scale(24, mul(Q(1), PSI(2), power(PSI(5), 2)))),
                scale(12, mul(PHI(), F(2, 8), F(4, 6))),
            ),
            "S(4,2)(phi^3 - 3 phi phi5^2) = -24 q psi2 psi5^2"
            " + 12 phi f(2,8) f(4,6)",
        ),
        IdentitySpec(
            "E3.15",
            sub(sift(100, 25, PHI3), scale(5, sift(4, 1, PHI3))),
            sub(
                scale(48, mul(Q(1), PSI(2), ff)),
                scale(24, mul(Q(1), PHI(), PHI(5), PSI(10))),
            ),
            "S(100,25) phi^3 - 5 S(4,1) phi^3 = 48 q psi2 f(1,9) f(3,7)"
            " - 24 q phi phi5 psi10",
        ),
        IdentitySpec(
            "E3.16",
            sub(sift(100, 50, PHI3), scale(5, sift(4, 2, PHI3))),
            add(
                neg(scale(48, mul(Q(1), PSI(2), power(PSI(5), 2)))),
                scale(24, mul(PHI(), F(2, 8), F(4, 6))),
            ),
            "S(100,50) phi^3 - 5 S(4,2) phi^3 = -48 q psi2 psi5^2"
            " + 24 phi f(2,8) f(4,6)",
        ),
        IdentitySpec(
            "E4.1r1",
            sub(sift(36, 9, PHI3), scale(3, sift(4, 1, PHI3))),
            scale(2, sift(4, 1, mul(A(), PHI(3)))),
            "S(36,9) phi^3 - 3 S(4,1) phi^3 = 2 S(4,1)(a(q) phi3)",
        ),
        IdentitySpec(
            "E4.1r2",
            sub(sift(36, 18, PHI3), scale(3, sift(4, 2, PHI3))),
            scale(2, sift(4, 2, mul(A(), PHI(3)))),
            "S(36,18) phi^3 - 3 S(4,2) phi^3 = 2 S(4,2)(a(q) phi3)",
        ),
        IdentitySpec(
            "E4.2",
            scale(4, mul(A(2), PHI(3))),
            add(PHI3, scale(3, div(power(PHI(3), 4), PHI()))),
            "4 a(q^2) phi3 = phi^3 + 3 phi3^4 / phi",
        ),
        IdentitySpec(
            "E4.3",
            A(),
            add(A(3), scale(6, mul(Q(1), eta((9, 3), (3, -1))))),
            "a(q) = a(q^3) + 6 q E(9)^3 / E(3)",
        ),
        IdentitySpec(
            "E4.4",
            A(),
            add(mul(PHI(), PHI(3)), scale(4, mul(Q(1), PSI(2), PSI(6)))),
            "a(q) = phi phi3 + 4 q psi2 psi6",
        ),
        IdentitySpec(
            "E4.4b",
            A(),
            sub(scale(2, mul(PHI(), PHI(3))), mul(alt(PHI()), alt(PHI(3)))),
            "a(q) = 2 phi phi3 - phi(-q) phi3(-q)",
        ),
        IdentitySpec(
            "E4.4c",
            sub(scale(2, A(2)), A()),
            div(power(alt(PHI()), 3), alt(PHI(3))),
            "2 a(q^2) - a(q) = phi(-q)^3 / phi3(-q)",
        ),
        IdentitySpec(
            "E4.5",
            A(),
            add(A(4), scale(6, mul(Q(1), PSI(2), PSI(6)))),
            "a(q) = a(q^4) + 6 q psi2 psi6",
        ),
        IdentitySpec(
            "E4.6",
            scale(2, mul(Q(1), PSI(2), PSI(6))),
            theta2(
                1, 0, 3, constraint=Constraint(2, frozenset({(0, 1), (1, 0)}))
            ),
            "2 q psi2 psi6 = sum of q^(u^2+3v^2) over u, v of opposite parity",
        ),
        IdentitySpec(
            "E4.7",
            scale(2, mul(Q(1), PSI(2), PSI(6))),
            add(
                scale(2, mul(Q(1), PSI(8), PHI(12))),
                scale(2, mul(Q(3), PHI(4), PSI(24))),
            ),
            "2 q psi2 psi6 = 2 q psi8 phi12 + 2 q^3 phi4 psi24",
        ),
        IdentitySpec(
            "E4.8",
            A(),
            add(
                A(4),
                scale(6, mul(Q(1), PSI(8), PHI(12))),
                scale(6, mul(Q(3), PHI(4), PSI(24))),
            ),
            "a(q) = a(q^4) + 6 q psi8 phi12 + 6 q^3 phi4 psi24",
        ),
        IdentitySpec(
            "E4.9",
            sub(power(PHI(), 2), power(PHI(3), 2)),
            scale(4, div(mul(Q(1), PSI(), PSI(3), PSI(6)), PSI(2))),
            "phi^2 - phi3^2 = 4 q psi psi3 psi6 / psi2",
        ),
        IdentitySpec(
            "E4.10",
            add(power(PHI(), 2), power(PHI(3), 2)),
            scale(2, div(mul(PSI(), F(1, 2), F(2, 4)), PSI(2))),
            "phi^2 + phi3^2 = 2 psi f(1,2) f(2,4) / psi2",
        ),
        IdentitySpec(
            "E4.11",
            F(1, 2),
            eta((3, 2), (2, 1), (6, -1), (1, -1)),
            "f(1,2) = E(3)^2 E(2) / (E(6) E(1))",
        ),
        IdentitySpec(
            "E4.12",
            F(1, 5),
            eta((12, 1), (3, 1), (2, 2), (6, -1), (4, -1), (1, -1)),
            "f(1,5) = E(12) E(3) E(2)^2 / (E(6) E(4) E(1))",
        ),
        IdentitySpec(
            "E4.13",
            sub(power(PHI(), 4), power(PHI(3), 4)),
            scale(8, mul(Q(1), PHI(3), power(F(1, 5), 3))),
            "phi^4 - phi3^4 = 8 q phi3 f(1,5)^3",
        ),
        IdentitySpec(
            "E4.14",
            div(power(PHI(), 4), PHI(3)),
            add(power(PHI(3), 3), scale(8, mul(Q(1), power(F(1, 5), 3)))),
            "phi^4 / phi3 = phi3^3 + 8 q f(1,5)^3",
        ),
        IdentitySpec(
            "E4.15",
            sift(3, 0, PHI3),
            div(power(PHI(), 4), PHI(3)),
            "S(3,0) phi^3 = phi^4 / phi3",
        ),
        IdentitySpec(
            "E4.20",
            sift(9, 0, PHI3),
            div(
                sub(scale(4, power(PHI(), 4)), scale(3, power(PHI(3), 4))),
                PHI(),
            ),
            "S(9,0) phi^3 = (4 phi^4 - 3 phi3^4) / phi",
        ),
        IdentitySpec(
            "E4.21",
            sift(9, 0, PHI3),
            div(
                add(
                    power(PHI(3), 4),
                    scale(32, mul(Q(1), PHI(3), power(F(1, 5), 3))),
                ),
                PHI(),
            ),
            "S(9,0) phi^3 = (phi3^4 + 32 q phi3 f(1,5)^3) / phi",
        ),
        IdentitySpec(
            "E4.24",
            sub(sift(9, 0, PHI3), scale(5, PHI3)),
            neg(scale(4, mul(A(2), PHI(3)))),
            "S(9,0) phi^3 - 5 phi^3 = -4 a(q^2) phi3",
        ),
        IdentitySpec(
            "E4.24m",
            sub(sift(9, 0, PHI3), scale(5, PHI3)),
            sub(neg(PHI3), scale(3, div(power(PHI(3), 4), PHI()))),
            "S(9,0) phi^3 - 5 phi^3 = -phi^3 - 3 phi3^4 / phi",
        ),
        IdentitySpec(
            "E4.25",
            sub(sift(9, 0, PHI3), scale(3, PHI3)),
            sub(scale(2, PHI3), scale(4, mul(A(2), PHI(3)))),
            "S(9,0) phi^3 - 3 phi^3 = 2 phi^3 - 4 a(q^2) phi3",
        ),
        IdentitySpec(
            "E5.1r1",
            sift(4, 1, sub(PHI3, scale(2, mul(A(2), PHI(3))))),
            sift(4, 1, mul(A(), PHI(3))),
            "S(4,1)(phi^3 - 2 a(q^2) phi3) = S(4,1)(a(q) phi3)",
        ),
        IdentitySpec(
            "E5.1r2",
            sift(4, 2, sub(PHI3, scale(2, mul(A(2), PHI(3))))),
            sift(4, 2, mul(A(), PHI(3))),
            "S(4,2)(phi^3 - 2 a(q^2) phi3) = S(4,2)(a(q) phi3)",
        ),
        IdentitySpec(
            "E5.1a.r1",
            sub(sift(36, 9, PHI3), scale(3, sift(4, 1, PHI3))),
            scale(2, sift(4, 1, sub(PHI3, scale(2, mul(PHI(3), A(2)))))),
            "S(36,9) phi^3 - 3 S(4,1) phi^3"
            " = 2 S(4,1)(phi^3 - 2 phi3 a(q^2))",
        ),
        IdentitySpec(
            "E5.1a.r2",
            sub(sift(36, 18, PHI3), scale(3, sift(4, 2, PHI3))),
            scale(2, sift(4, 2, sub(PHI3, scale(2, mul(PHI(3), A(2)))))),
            "S(36,18) phi^3 - 3 S(4,2) phi^3"
            " = 2 S(4,2)(phi^3 - 2 phi3 a(q^2))",
        ),
        IdentitySpec(
            "E5.2",
            PHI3,
            mul(PHI(3), add(A(), scale(2, A(2)), neg(scale(2, A(4))))),
            "phi^3 = phi3 (a(q) + 2 a(q^2) - 2 a(q^4))",
        ),
        IdentitySpec(
            "E5.3",
            div(PHI3, PHI(3)),
            add(sub(scale(2, A(2)), A()), scale(2, sub(A(), A(4)))),
            "phi^3 / phi3 = 2 a(q^2) - a(q) + 2 (a(q) - a(q^4))",
        ),
        IdentitySpec(
            "E5.4",
            sub(div(PHI3, PHI(3)), div(power(alt(PHI()), 3), alt(PHI(3)))),
            scale(12, mul(Q(1), PSI(2), PSI(6))),
            "phi^3/phi3 - phi(-q)^3/phi3(-q) = 12 q psi2 psi6",
        ),
        IdentitySpec(
            "E5.5",
            sub(div(PHI3, PHI(3)), div(power(alt(PHI()), 3), alt(PHI(3)))),
            sub(A(), alt(A())),
            "phi^3/phi3 - phi(-q)^3/phi3(-q) = a(q) - a(-q)",
        ),
        IdentitySpec(
            "E5.5b",
            sub(A(), alt(A())),
            scale(
                3,
                sub(mul(PHI(), PHI(3)), mul(alt(PHI()), alt(PHI(3)))),
            ),
            "a(q) - a(-q) = 3 (phi phi3 - phi(-q) phi3(-q))",
        ),
        IdentitySpec(
            "E5.6",
            sub(mul(PHI(), PHI(3)), mul(alt(PHI()), alt(PHI(3)))),
            scale(4, mul(Q(1), PSI(2), PSI(6))),
            "phi phi3 - phi(-q) phi3(-q) = 4 q psi2 psi6",
        ),
        IdentitySpec(
            "E5.7",
            sub(div(PHI3, PHI(3)), div(power(alt(PHI()), 3), alt(PHI(3)))),
            scale(12, mul(Q(1), PSI(2), PSI(6))),
            "phi^3/phi3 - phi(-q)^3/phi3(-q) = 12 q psi2 psi6 (restated)",
        ),
        IdentitySpec(
            "E5.8",
            sub(sift(9, 0, PHI3), scale(3, PHI3)),
            sub(scale(2, mul(PHI(3), A())), scale(4, mul(PHI(3), A(4)))),
            "S(9,0) phi^3 - 3 phi^3 = 2 phi3 a(q) - 4 phi3 a(q^4)",
        ),
        IdentitySpec(
            "E5.9",
            sub(sift(9, 0, PHI3), scale(3, PHI3)),
            sub(
                scale(2, theta3(1, 1, 3, 0, 0, 1)),
                scale(4, theta3(4, 3, 4, 0, 4, 0)),
            ),
            "S(9,0) phi^3 - 3 phi^3 = 2 R[1,1,3,0,0,1] - 4 R[4,3,4,0,4,0]",
        ),
        IdentitySpec(
            "E5.10",
            sub(sift(25, 0, PHI3), scale(5, PHI3)),
            sub(
                scale(4, theta3(2, 2, 2, -1, 1, 1)),
                scale(8, theta3(8, 3, 7, 2, 8, 4)),
            ),
            "S(25,0) phi^3 - 5 phi^3 = 4 R[2,2,2,-1,1,1] - 8 R[8,3,7,2,8,4]",
        ),
        IdentitySpec(
            "E5.11",
            sub(sift(49, 0, PHI3), scale(7, PHI3)),
            sub(
                scale(6, theta3(1, 2, 7, 0, 0, 1)),
                scale(12, theta3(4, 7, 8, 0, 4, 0)),
            ),
            "S(49,0) phi^3 - 7 phi^3 = 6 R[1,2,7,0,0,1] - 12 R[4,7,8,0,4,0]",
        ),
        IdentitySpec(
            "E5.16p3r1",
            sift(4, 1, sub(sift(9, 0, PHI3), scale(3, PHI3))),
            scale(2, sift(4, 1, theta3(1, 1, 3, 0, 0, 1))),
            "S(4,1)(S(9,0) phi^3 - 3 phi^3) = 2 S(4,1) R[1,1,3,0,0,1]",
        ),
        IdentitySpec(
            "E5.16p3r2",
            sift(4, 2, sub(sift(9, 0, PHI3), scale(3, PHI3))),
            scale(2, sift(4, 2, theta3(1, 1, 3, 0, 0, 1))),
            "S(4,2)(S(9,0) phi^3 - 3 phi^3) = 2 S(4,2) R[1,1,3,0,0,1]",
        ),
        IdentitySpec(
            "E5.16p5r1",
            sift(4, 1, sub(sift(25, 0, PHI3), scale(5, PHI3))),
            scale(4, sift(4, 1, theta3(2, 2, 2, -1, 1, 1))),
            "S(4,1)(S(25,0) phi^3 - 5 phi^3) = 4 S(4,1) R[2,2,2,-1,1,1]",
        ),
        IdentitySpec(
            "E5.16p5r2",
            sift(4, 2, sub(sift(25, 0, PHI3), scale(5, PHI3))),
            scale(4, sift(4, 2, theta3(2, 2, 2, -1, 1, 1))),
            "S(4,2)(S(25,0) phi^3 - 5 phi^3) = 4 S(4,2) R[2,2,2,-1,1,1]",
        ),
        IdentitySpec(
            "E5.42",
            sub(sift(121, 0, PHI3), scale(11, PHI3)),
            add(
                scale(4, theta3(3, 4, 4, -3, 2, 2)),
                scale(6, theta3(1, 3, 11, 0, 0, 1)),
                neg(scale(8, theta3(3, 15, 15, -14, 2, 2))),
                neg(scale(12, theta3(4, 11, 12, 0, 4, 0))),
            ),
            "S(121,0) phi^3 - 11 phi^3 = 4 R[3,4,4,-3,2,2]"
            " + 6 R[1,3,11,0,0,1] - 8 R[3,15,15,-14,2,2]"
            " - 12 R[4,11,12,0,4,0]",
        ),
        IdentitySpec(
            "E5.43",
            sub(sift(169, 0, PHI3), scale(13, PHI3)),
            sub(
                scale(12, theta3(2, 5, 5, -3, 1, 1)),
                scale(24, theta3(8, 7, 15, 2, 8, 4)),
            ),
            "S(169,0) phi^3 - 13 phi^3 = 12 R[2,5,5,-3,1,1]"
            " - 24 R[8,7,15,2,8,4]",
        ),
        IdentitySpec(
            "E5.44",
            sub(sift(289, 0, PHI3), scale(17, PHI3)),
            add(
                scale(12, theta3(3, 5, 6, 1, 2, 3)),
                scale(4, theta3(3, 6, 6, -5, 2, 2)),
                neg(scale(24, theta3(7, 11, 20, -8, 4, 6))),
                neg(scale(8, theta3(3, 23, 23, -22, 2, 2))),
            ),
            "S(289,0) phi^3 - 17 phi^3 = 12 R[3,5,6,1,2,3]"
            " + 4 R[3,6,6,-5,2,2] - 24 R[7,11,20,-8,4,6]"
            " - 8 R[3,23,23,-22,2,2]",
        ),
        IdentitySpec(
            "E5.45",
            sub(sift(361, 0, PHI3), scale(19, PHI3)),
            add(
                scale(6, theta3(1, 5, 19, 0, 0, 1)),
                scale(12, theta3(4, 5, 6, 5, 1, 2)),
                neg(scale(12, theta3(4, 19, 20, 0, 4, 0))),
                neg(scale(24, theta3(7, 11, 23, -10, 6, 2))),
            ),
            "S(361,0) phi^3 - 19 phi^3 = 6 R[1,5,19,0,0,1]"
            " + 12 R[4,5,6,5,1,2] - 12 R[4,19,20,0,4,0]"
            " - 24 R[7,11,23,-10,6,2]",
        ),
        IdentitySpec(
            "E5.46",
            sub(sift(529, 0, PHI3), scale(23, PHI3)),
            add(
                scale(4, theta3(3, 8, 8, -7, 2, 2)),
                scale(6, theta3(1, 6, 23, 0, 0, 1)),
                scale(12, theta3(2, 3, 23, 0, 0, 1)),
                neg(scale(8, theta3(3, 31, 31, -30, 2, 2))),
                neg(scale(12, theta3(4, 23, 24, 0, 4, 0))),
                neg(scale(24, theta3(8, 23, 12, 0, 4, 0))),
            ),
            "S(529,0) phi^3 - 23 phi^3 = 4 R[3,8,8,-7,2,2]"
            " + 6 R[1,6,23,0,0,1] + 12 R[2,3,23,0,0,1]"
            " - 8 R[3,31,31,-30,2,2] - 12 R[4,23,24,0,4,0]"
            " - 24 R[8,23,12,0,4,0]",
        ),
        IdentitySpec(
            "EFINAL",
            mul(
                Q(1),
                scale(8, mul(alt(PSI()), eta((2, 2)))),
                sift(7, 5, prodap((2, 1, 1, 1))),
            ),
            add(
                PHI3,
                mul(
                    PHI(7),
                    sub(
                        theta2(1, 1, 2),
                        scale(2, theta2(4, 4, 8)),
                    ),
                ),
            ),
            "8 q psi(-q) E(2)^2 S(7,5)[(-q;q^2)inf] = phi^3"
            " + phi7 (R[1,1,2] - 2 R[1,1,2](q^4))",
        ),
        IdentitySpec(
            "E1.3",
            sub(sift(25, 0, PHI3), scale(5, PHI3)),
            scale(4, theta3(2, 2, 2, -1, 1, 1)),
            "S(25,0) phi^3 - 5 phi^3 = 4 R[2,2,2,-1,1,1]"
            " on exponents = 1, 2 mod 4",
            mask=(4, (1, 2)),
        ),
        IdentitySpec(
            "E1.4",
            sub(sift(9, 0, PHI3), scale(3, PHI3)),
            scale(2, theta3(1, 1, 3, 0, 0, 1)),
            "S(9,0) phi^3 - 3 phi^3 = 2 R[1,1,3,0,0,1]"
            " on exponents = 1, 2 mod 4",
            mask=(4, (1, 2)),
        ),
    ]
    # X(r) written through the shifted binary lattice, for r = 0, 1, 2.
    for r in (0, 1, 2):
        out.append(
            IdentitySpec(
                f"E3.5r{r}",
                X(r),
                mul(
                    PHI(2),
                    theta2(30, 20, 30, (20 * r, 20 * r), 5 * r * r),
                ),
                f"X({r}) = phi2 * A[30y^2+30z^2+20yz+20r(y+z)+5r^2], r={r}",
            )
        )
    out.sort(key=lambda spec: spec.id)
    return out


_CATALOG: list[IdentitySpec] | None = None


def catalog() -> list[IdentitySpec]:
    """The full identity catalog, deterministically ordered by id."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _entries()
    return list(_CATALOG)


def lookup(identity_id: str) -> IdentitySpec | None:
    for spec in catalog():
        if spec.id == identity_id:
            return spec
    return None
