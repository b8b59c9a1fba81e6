"""The four workloads: one timed call into the program each, and its checks.

A round calls one entry point with the program's caches cold.  Its
output is then checked against `oracle`, which shares no code with the
program, at points drawn from the run's seed.  The program's inputs are
fixed; the seed only chooses where the outputs are checked, so every
seed times the same work.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from fractions import Fraction

import oracle

ORDER = 1000


def run_cli(cli, argv):
    """Exit code and standard output of one in-process CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class Workload:
    """One entry point of the program, its timed call and its checks."""

    def __init__(self, ts):
        self.ts = ts
        self._counts: dict = {}

    def r(self, form, n: int) -> int:
        """Oracle count r_form(n), remembered across the rounds of a run."""
        key = ("r", tuple(form), n)
        if key not in self._counts:
            self._counts[key] = oracle.count(tuple(form), n)
        return self._counts[key]

    def aut(self, form) -> int:
        key = ("aut", tuple(form))
        if key not in self._counts:
            self._counts[key] = oracle.automorph_count(tuple(form))
        return self._counts[key]

    def s(self, n: int) -> int:
        return self.r(oracle.SUM_OF_SQUARES, n)

    def call(self):
        raise NotImplementedError

    def extract(self, raw):
        """What the checks need, taken right after the round."""
        return raw

    def problems(self, record) -> list[str]:
        raise NotImplementedError


class Catalog(Workload):
    """`threesquares verify --all` at order 1000."""

    argv = ["verify", "--all", "--order", str(ORDER), "--format", "json"]

    def __init__(self, ts, rng):
        super().__init__(ts)
        self.ns = sorted(rng.sample(range(ORDER + 1), 24))

    def call(self):
        return run_cli(self.ts.cli, self.argv)

    def extract(self, raw):
        # The leaves are read back through the evaluator, which answers
        # from its memo when the round filled it.
        cat = self.ts.catalog
        phi3 = cat.evaluate(cat.PHI3, ORDER)
        h = cat.evaluate(cat.theta3(*cat.T_FORM), ORDER)
        return raw, {n: (phi3[n], h[n]) for n in self.ns}

    def problems(self, record):
        (code, out), leaves = record
        bad = []
        if code != 0:
            bad.append(f"exit code {code}")
        rows = [json.loads(line) for line in out.splitlines()]
        ids = [row["id"] for row in rows]
        expected = sorted(spec.id for spec in self.ts.catalog.catalog())
        if sorted(ids) != expected or len(set(ids)) != len(ids):
            bad.append("reported ids differ from the catalog's")
        for row in rows:
            if row["status"] != "pass" or row["order"] != ORDER:
                bad.append(f"{row['id']}: {row['status']} at {row['order']}")
        if tuple(self.ts.catalog.T_FORM) != oracle.H_FORM:
            bad.append(f"T form is {self.ts.catalog.T_FORM}")
        for n, (s_n, h_n) in leaves.items():
            if s_n != self.s(n) or h_n != self.r(oracle.H_FORM, n):
                bad.append(f"leaf mismatch at n={n}: phi^3 {s_n}, T {h_n}")
        return bad


def _weighted(ws: Workload, genus: dict, n: int) -> Fraction:
    """Sum of r_g(n) / |Aut(g)| over a genus given as {member: automorphs}."""
    return sum((Fraction(ws.r(g, n), a) for g, a in genus.items()), Fraction(0))


class Genus73(Workload):
    """`threesquares genus --p 73 --format json`."""

    p = 73
    argv = ["genus", "--p", str(p), "--format", "json"]

    def __init__(self, ts, rng):
        super().__init__(ts)
        # The CLI's pairing depth is 500, so 4n stays within its check.
        self.pull_ns = sorted(rng.sample(range(1, 501), 6))
        self.sum_ns = sorted(rng.sample(range(1, 501), 3))

    def call(self):
        return run_cli(self.ts.cli, self.argv)

    def problems(self, record):
        code, out = record
        p = self.p
        doc = json.loads(out)
        bad = []
        if code != 0:
            bad.append(f"exit code {code}")
        if doc["hStatus"] != "ok" or doc["p"] != p:
            return bad + [f"hStatus {doc['hStatus']!r} for p={doc['p']}"]
        genera = {}
        for key, d in (("tg1", p * p), ("tg2", 16 * p * p)):
            g = doc[key]
            members = [tuple(m) for m in g["members"]]
            auts = g["autCounts"]
            if g["discriminant"] != d:
                bad.append(f"{key} discriminant {g['discriminant']}")
            for m, a in zip(members, auts):
                if oracle.disc(m) != d or self.aut(m) != a:
                    bad.append(f"{key} member {m}: disc or automorphs wrong")
            genera[key] = dict(zip(members, auts))
        pairs = [(tuple(f), tuple(g)) for f, g in doc["h"]]
        src = [f for f, _ in pairs]
        dst = [g for _, g in pairs]
        if sorted(src) != sorted(genera["tg2"]) or sorted(dst) != sorted(
            genera["tg1"]
        ):
            bad.append("h is not a bijection tg2 -> tg1")
        for f, g in pairs:
            if genera["tg2"].get(f) != genera["tg1"].get(g):
                bad.append(f"h({f}) = {g} changes the automorph count")
            for n in self.pull_ns:
                if self.r(f, 4 * n) != self.r(g, n):
                    bad.append(f"r_{f}(4*{n}) != r_{g}({n})")
        for n in self.sum_ns:
            lhs = self.s(p * p * n) - p * self.s(n)
            rhs = 48 * _weighted(self, genera["tg1"], n) - 96 * _weighted(
                self, genera["tg2"], n
            )
            if lhs != rhs:
                bad.append(f"weighted identity fails at n={n}: {lhs} != {rhs}")
        return bad


_TERM = re.compile(r"(\d+)\*R\[([-\d, ]+)\]")


def _terms(text: str):
    return [
        (int(c), tuple(int(x) for x in body.split(",")))
        for c, body in _TERM.findall(text)
    ]


class Prop54(Workload):
    """`threesquares prop54 --p 3,5,7,11,13,17,19,23 --max-n 1000`."""

    primes = (3, 5, 7, 11, 13, 17, 19, 23)
    max_n = 1000
    argv = [
        "prop54", "--p", ",".join(map(str, primes)),
        "--max-n", str(max_n), "--format", "json",
    ]

    def __init__(self, ts, rng):
        super().__init__(ts)
        self.ns = {p: sorted(rng.sample(range(1, self.max_n + 1), 3)) for p in self.primes}

    def call(self):
        return run_cli(self.ts.cli, self.argv)

    def problems(self, record):
        code, out = record
        bad = []
        if code != 0:
            bad.append(f"exit code {code}")
        rows = [json.loads(line) for line in out.splitlines()]
        if [row["p"] for row in rows] != list(self.primes):
            return bad + ["rows do not list each prime once, in order"]
        for row in rows:
            p = row["p"]
            if row["status"] != "pass" or row["maxN"] != self.max_n:
                bad.append(f"p={p}: {row['status']} to {row['maxN']}")
            t1, t2 = _terms(row["tg1"]), _terms(row["tg2"])
            for terms, d, weight in ((t1, p * p, 48), (t2, 16 * p * p, 96)):
                for c, form in terms:
                    if oracle.disc(form) != d or c * self.aut(form) != weight:
                        bad.append(f"p={p}: term {c}*R{list(form)} is wrong")
            for n in self.ns[p]:
                lhs = self.s(p * p * n) - p * self.s(n)
                rhs = sum(c * self.r(f, n) for c, f in t1) - sum(
                    c * self.r(f, n) for c, f in t2
                )
                if lhs != rhs:
                    bad.append(f"p={p}: identity fails at n={n}: {lhs} != {rhs}")
        return bad


class Recursion(Workload):
    """`verify_hs(p, 10000)` for p in 3, 5, 7, 11, 13, sifting chains included."""

    primes = (3, 5, 7, 11, 13)
    max_n = 10_000

    def __init__(self, ts, rng):
        super().__init__(ts)
        self.ns = {}
        self.table_idx = {}
        for p in self.primes:
            q = p * p
            # One n divisible by p^2, so the s(n/p^2) term is exercised.
            ns = [q * rng.randint(1, self.max_n // q)]
            ns += rng.sample(range(1, self.max_n + 1), 2)
            self.ns[p] = sorted(ns)
            idx = rng.sample(range(q * self.max_n + 1), 2)
            self.table_idx[q * self.max_n] = sorted(idx + [q * n for n in ns])

    def call(self):
        verify = self.ts.verify
        table_fn = verify.s_table
        samples = {}

        def sampled_table(n_max):
            # Keeps a few entries, not the table, so peak memory is unchanged.
            table = table_fn(n_max)
            samples[n_max] = {i: int(table[i]) for i in self.table_idx.get(n_max, ())}
            return table

        verify.s_table = sampled_table
        try:
            reports = [verify.verify_hs(p, self.max_n) for p in self.primes]
        finally:
            verify.s_table = table_fn
        return reports, samples

    def problems(self, record):
        reports, samples = record
        bad = []
        for p, rep in zip(self.primes, reports):
            if rep.p != p or rep.max_n != self.max_n or rep.status != "pass":
                bad.append(f"p={p}: {rep.status} to {rep.max_n}")
            chained = p in (3, 5)
            if chained != bool(rep.chain_reports) or any(
                r.status != "pass" for r in rep.chain_reports
            ):
                bad.append(f"p={p}: sifting chain missing or failing")
            n_max = p * p * self.max_n
            if samples.get(n_max, {}).keys() != set(self.table_idx[n_max]):
                bad.append(f"p={p}: s_table({n_max}) was not computed")
            for i, v in samples.get(n_max, {}).items():
                if v != self.s(i):
                    bad.append(f"s_table[{i}] = {v}, oracle {self.s(i)}")
            for n in self.ns[p]:
                rhs = (p + 1 - oracle.legendre(-n, p)) * self.s(n)
                if n % (p * p) == 0:
                    rhs -= p * self.s(n // (p * p))
                if self.s(p * p * n) != rhs:
                    bad.append(f"recursion fails on oracle counts: p={p}, n={n}")
        return bad


WORKLOADS = {
    "catalog": Catalog,
    "genus73": Genus73,
    "prop54": Prop54,
    "recursion": Recursion,
}
