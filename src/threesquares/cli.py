"""Command-line front end.

Subcommands: verify (identity catalog), count (single representation
count), s (sums of three squares), genus (genus reports), prop54 (the
weighted two-genus identity).  Exit codes: 0 all checks passed, 1 a
verification failed or a construction could not be completed, 2 usage
error, out of memory, or a report that cannot be written.  genus --p
exits 1 when a pair of the bijection tg2 built fails its check, never
for too shallow a --max-n; stderr names the pair and its witness.  Every
refusal, the parser's own included, is one `error:` line on stderr from
main.  Output is deterministic: JSON lines are sorted-key and timing is
confined to the human-readable table.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys
from contextlib import nullcontext

from .catalog import catalog
from .genera import find_h_between, genus_partition, require_odd_prime, tg1, tg2
from .lattice import (
    _S_MAX,
    TernaryForm,
    point_array_bytes,
    rep_count_ternary,
    s_table,
)
from .verify import cap_bytes, run_catalog, verify_prop54

DEFAULT_ORDER = 1000

# The depth to which genus --p checks the pullback bijection.
PAIRING_MAX_N = 500

USAGE_ERROR = 2

# count walks every (y, z) row of the ellipsoid as arrays, about pi*n rows
# for x^2 + y^2 + z^2: 10^7 takes about 1.5 s on a 2-vCPU Xeon and 10^6
# 0.4 s, each with 0.3 s of start-up.
COUNT_MAX_N = 10**7

# tg1(p) classifies every form of discriminant p^2, in time growing about
# as p^3: genus --p 547 takes about 1.1 s on a 2-vCPU Xeon, start-up included.
# genus_partition(D) for all genera of D costs more: 85264 takes about
# 0.3 s, 274576 about 1.4 s and 49 MB.  genus --p and prop54 --p refuse a
# larger p^2 before the primality test, and genus --disc a larger D.
CLASS_SCAN_MAX_DISC = 3 * 10**5

# No array may pass the largest s table the int32 certificate admits,
# 16384^2 entries of 4 bytes, and no ternary theta may walk more points
# than would fill it as int64 rows.  Commands check before any work.
ARRAY_CAP = 1 << 30

# What each cap bounds, in the words of its refusal.  A ternary theta
# holds only a batch of its points at once, so its bound is on work.
_WALK = "walks lattice points whose int64 rows would take {} bytes"
_ARRAYS = "needs {} bytes for the arrays of one series"

# Rows of `s --max` formatted per write: about 200 KB of text.
S_ROWS = 1 << 13


class _Parser(argparse.ArgumentParser):
    """A parser that raises its errors for main to print, with no usage dump."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _non_negative(text: str) -> int:
    """The value of --order, --max-n or --max."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def _require_cap(name: str, value: int, need: int, bounds: str) -> None:
    """Refuse value when need, a byte count that bounds words, passes ARRAY_CAP."""
    if need > ARRAY_CAP:
        raise ValueError(
            f"{name} {value} {bounds.format(need)}, over the {ARRAY_CAP}-byte cap"
        )


def _require_scan(name: str, value: int, disc: int) -> None:
    if disc > CLASS_SCAN_MAX_DISC:
        raise ValueError(
            f"{name} {value} needs a class scan of discriminant {disc}, "
            f"over the ceiling of {CLASS_SCAN_MAX_DISC}"
        )


def _odd_prime(p: int) -> int:
    """p, once p^2 is within the class-scan ceiling and p is an odd prime."""
    _require_scan("--p", p, p * p)
    require_odd_prime(p)
    return p


def _cell(row: dict, column: str) -> str:
    """A table cell; a JSON null prints empty, as the csv writer prints it."""
    value = row.get(column)
    return "" if value is None else str(value)


def _emit(
    rows: list[dict], fmt: str, output: str | None, columns, trailer: str = ""
) -> None:
    """Write the rows, then the trailer lines, to --output or stdout."""
    if fmt == "json":
        text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for r in rows:
            writer.writerow(r)
        text = buf.getvalue()
    else:
        widths = {
            c: max(len(c), *(len(_cell(r, c)) for r in rows)) if rows else len(c)
            for c in columns
        }
        lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
        for r in rows:
            lines.append("  ".join(_cell(r, c).ljust(widths[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    text += trailer
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_output(path: str) -> None:
    """Fail as opening path for writing would, before any work: the path
    must name a file, not a directory, in a directory that exists."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _parse_form(text: str) -> TernaryForm:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"malformed form tuple {text!r}")
    if len(parts) != 6:
        raise ValueError(
            "expected a 6-tuple a,b,c,d,e,f (coefficients of "
            "x^2, y^2, z^2, yz, zx, xy)"
        )
    return TernaryForm(*parts)


def _cmd_verify(args) -> int:
    specs = catalog()
    if args.id:
        known = {s.id for s in specs}
        for ident in args.id:
            if ident not in known:
                raise ValueError(f"unknown identity id {ident!r}")
        specs = [s for s in specs if s.id in args.id]
    order = args.order
    walk, arrays = cap_bytes([x for s in specs for x in (s.lhs, s.rhs)], order)
    _require_cap("--order", order, arrays, _ARRAYS)
    _require_cap("--order", order, walk, _WALK)
    reports = run_catalog(order, args.id)
    rows = []
    for r in reports:
        row = r.to_json_dict()
        if args.format != "json":
            row["firstMismatch"] = (
                "" if r.first_mismatch is None else str(tuple(r.first_mismatch))
            )
        if args.format == "table":
            row["elapsed"] = f"{r.elapsed:.3f}s"
        rows.append(row)
    columns = ["id", "order", "status", "firstMismatch"]
    if args.format == "table":
        columns.append("elapsed")
    _emit(rows, args.format, args.output, columns)
    failed = [r for r in reports if r.status != "pass"]
    if failed:
        print(f"{len(failed)} identities FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_count(args) -> int:
    form = _parse_form(args.form)
    if args.n > COUNT_MAX_N:
        raise ValueError(f"--n must be at most {COUNT_MAX_N}, got {args.n}")
    print(rep_count_ternary(form, args.n))
    return 0


def _cmd_s(args) -> int:
    """Write the rows of s(0..max) in chunks of S_ROWS, straight from the
    table, in the bytes _emit would give the rows {"n": n, "s": s(n)}."""
    table = s_table(args.max)
    if args.format == "json":
        head, row = "", '{{"n": {}, "s": {}}}\n'
    elif args.format == "csv":
        head, row = "n,s\r\n", "{},{}\r\n"
    else:
        wn = max(len("n"), len(str(args.max)))
        ws = max(len("s"), len(str(table.max())))
        head = f"{'n':<{wn}}  {'s':<{ws}}\n"
        row = f"{{:<{wn}}}  {{:<{ws}}}\n"
    with open(args.output, "w") if args.output else nullcontext(sys.stdout) as fh:
        fh.write(head)
        for lo in range(0, args.max + 1, S_ROWS):
            chunk = table[lo:lo + S_ROWS].tolist()
            fh.write("".join(row.format(n, v) for n, v in enumerate(chunk, lo)))
    return 0


def _genus_rows(genus, label):
    rows = []
    for member, aut, w in zip(
        genus.members, genus.aut_counts, genus.weights48()
    ):
        rows.append(
            {
                "genus": label,
                "form": ",".join(str(c) for c in member.as_tuple()),
                "aut": aut,
                "weight48": w,
            }
        )
    return rows


def _cmd_genus(args) -> int:
    if args.p is not None:
        _odd_prime(args.p)
        max_n = PAIRING_MAX_N if args.max_n is None else args.max_n
        # The pairing pulls tg2's theta series back from 4 * max_n.  The
        # cap is on the points those thetas walk, their work, though each
        # holds only a batch of them at a time.
        _require_cap("--max-n", max_n, point_array_bytes(3, 4 * max_n), _WALK)
        genus1, genus2 = tg1(args.p), tg2(args.p)
        pairing = find_h_between(genus2, genus1, max_n)
        if args.format == "json":
            doc = {
                "p": args.p,
                "tg1": genus1.to_json_dict(),
                "tg2": genus2.to_json_dict(),
                "hStatus": pairing.status,
                "h": [
                    [list(a.as_tuple()), list(b.as_tuple())]
                    for a, b in pairing.mapping
                ],
            }
            _emit([doc], "json", args.output, [])
        else:
            rows = _genus_rows(genus1, f"TG1,{args.p}") + _genus_rows(
                genus2, f"TG2,{args.p}"
            )
            trailer = f"pullback bijection: {pairing.status}\n" + "".join(
                f"  {a} -> {b}\n" for a, b in pairing.mapping
            )
            _emit(
                rows, args.format, args.output,
                ["genus", "form", "aut", "weight48"], trailer,
            )
        if pairing.status != "ok":
            print(f"error: pullback bijection: {pairing.detail}", file=sys.stderr)
            return 1
        return 0
    if args.max_n is not None:
        raise ValueError("genus --max-n goes with --p, not --disc")
    _require_scan("--disc", args.disc, args.disc)
    genera = genus_partition(args.disc)
    if args.format == "json":
        _emit([g.to_json_dict() for g in genera], "json", args.output, [])
        return 0
    rows = []
    for i, g in enumerate(genera):
        rows.extend(_genus_rows(g, f"G{i + 1}"))
    _emit(
        rows, args.format, args.output, ["genus", "form", "aut", "weight48"],
        f"{len(genera)} genera of discriminant {args.disc}\n",
    )
    return 0


def _cmd_prop54(args) -> int:
    primes = []
    for part in args.p.split(","):
        try:
            p = int(part)
        except ValueError:
            raise ValueError(f"malformed prime {part!r}")
        primes.append(_odd_prime(p))
    # s(p^2 max_n) from r2 in uint16, and the points each genus member's
    # theta walks.
    top = max(primes) ** 2 * args.max_n
    if top > _S_MAX:
        raise ValueError(
            f"--max-n {args.max_n} needs s({top}) from a uint16 r2, "
            f"exact only up to {_S_MAX}"
        )
    _require_cap("--max-n", args.max_n, point_array_bytes(3, args.max_n), _WALK)
    rows = []
    all_pass = True
    for p in primes:
        rep = verify_prop54(p, args.max_n)
        all_pass &= rep.status == "pass"
        mismatch = rep.first_mismatch
        rows.append(
            {
                "p": p,
                "maxN": rep.max_n,
                "status": rep.status,
                "firstFail": None if mismatch is None else mismatch[0],
                "tg1": " + ".join(f"{c}*R{list(t)}" for c, t in rep.tg1_terms),
                "tg2": " + ".join(f"{c}*R{list(t)}" for c, t in rep.tg2_terms),
            }
        )
    _emit(
        rows,
        args.format,
        args.output,
        ["p", "maxN", "status", "firstFail", "tg1", "tg2"],
    )
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="threesquares",
        description="Exact verification of sums-of-three-squares identities "
        "and ternary quadratic form genus constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run identity catalog checks")
    which = p_verify.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true", help="run every entry")
    which.add_argument("--id", action="append", help="identity id (repeatable)")
    p_verify.add_argument("--order", type=_non_negative, default=DEFAULT_ORDER)
    p_verify.set_defaults(func=_cmd_verify)

    p_count = sub.add_parser("count", help="representation count of one n")
    p_count.add_argument("--form", required=True, help="a,b,c,d,e,f")
    p_count.add_argument("--n", type=int, required=True)
    p_count.set_defaults(func=_cmd_count)

    p_s = sub.add_parser("s", help="sums-of-three-squares counts 0..max")
    p_s.add_argument("--max", type=_non_negative, required=True)
    p_s.set_defaults(func=_cmd_s)

    p_genus = sub.add_parser("genus", help="genus reports")
    which = p_genus.add_mutually_exclusive_group(required=True)
    which.add_argument("--p", type=int, help="odd prime: the two genera")
    which.add_argument("--disc", type=int, help="list genera of one discriminant")
    p_genus.add_argument("--max-n", type=_non_negative)
    p_genus.set_defaults(func=_cmd_genus)

    p54 = sub.add_parser("prop54", help="weighted two-genus identity")
    p54.add_argument("--p", required=True, help="comma-separated odd primes")
    p54.add_argument("--max-n", type=_non_negative, default=1000)
    p54.set_defaults(func=_cmd_prop54)

    for sp in (p_verify, p_s, p_genus, p54):
        sp.add_argument(
            "--format", choices=("json", "table", "csv"), default="table"
        )
        sp.add_argument("--output", help="write the report to a file")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "output", None):
            _check_output(args.output)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        # A report that cannot be written: a missing directory, a
        # directory path, or a reader that closed the pipe.
        if isinstance(exc, BrokenPipeError):
            # Stdout's flush at shutdown would fail on the pipe again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RuntimeError as exc:
        # A construction that cannot be completed (tg2, lifting) is a
        # failed check, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
