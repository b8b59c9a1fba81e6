"""The pullback bijection searched for across any two genera.

The package checks the pairing tg2 builds (genera.find_h_between).  The
tests still need to pick, among all genera of 16p^2, those that pull
back onto tg1(p), and to show that the built pairing is the only one to
a given depth; that takes this search.
"""

from dataclasses import dataclass

from threesquares.lattice import TernaryForm, theta_series_ternary


@dataclass(frozen=True)
class Search:
    status: str  # "ok" | "none" | "ambiguous"
    mapping: tuple[tuple[TernaryForm, TernaryForm], ...]
    detail: str = ""


def search_h(src, dst, max_n: int) -> Search:
    """The bijection H: src -> dst with equal automorph counts and
    member(4n) = H(member)(n) for all n <= max_n, if one exists uniquely."""
    if len(src.members) != len(dst.members):
        return Search("none", (), "genus cardinalities differ")
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
            return Search("none", (), f"no partner for {f}")
        rows.append(row)
    if any(rows.count(row) != len(row) for row in rows):
        return Search("none", (), "no complete matching")
    if any(len(row) > 1 for row in rows):
        return Search("ambiguous", (), "more than one matching")
    pairing = zip(src.members, (dst.members[row[0]] for row in rows))
    return Search("ok", tuple(pairing))
