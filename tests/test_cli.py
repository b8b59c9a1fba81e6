"""Command line behaviour: outputs, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from threesquares import cli, forms, verify
from threesquares.cli import main
from threesquares.lattice import identity_form, rep_count_ternary, s_table


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out, err = capsys.readouterr()
    return code, out, err


def test_s_table_output(capsys):
    code, out, _ = run_cli(["s", "--max", "3", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["n,s", "0,1", "1,6", "2,12", "3,8"]


def emit_s_rows(n_max, fmt, output):
    """`s --max` as it was written before: one dict per row, then _emit."""
    table = s_table(n_max)
    rows = [{"n": n, "s": int(table[n])} for n in range(n_max + 1)]
    cli._emit(rows, fmt, output, ["n", "s"])


@pytest.mark.parametrize("chunk", [7, cli.S_ROWS])
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("n_max", [0, 1, 2000])
def test_s_writes_the_bytes_of_the_row_path(
    n_max, fmt, chunk, capsys, tmp_path, monkeypatch
):
    monkeypatch.setattr(cli, "S_ROWS", chunk)
    emit_s_rows(n_max, fmt, None)
    expected = capsys.readouterr().out
    code, out, _ = run_cli(["s", "--max", str(n_max), "--format", fmt], capsys)
    assert code == 0
    # Bytes, so a failure reports the first difference, not a long diff.
    assert out.encode() == expected.encode()
    emit_s_rows(n_max, fmt, tmp_path / "rows")
    argv = ["s", "--max", str(n_max), "--format", fmt, "--output"]
    assert main(argv + [str(tmp_path / "chunks")]) == 0
    assert (tmp_path / "chunks").read_bytes() == (tmp_path / "rows").read_bytes()


def test_s_output_memory_does_not_grow_with_the_rows(capfd):
    # One dict per row and the whole text at once peaked near 70 MB;
    # the chunks keep the table, its r2 and one chunk of text.
    tracemalloc.start()
    try:
        code = main(["s", "--max", "200000", "--format", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 << 20, peak
    out = capfd.readouterr().out
    assert out.count("\n") == 200001
    last = rep_count_ternary(identity_form(), 200000)
    assert out.endswith(f'{{"n": 200000, "s": {last}}}\n')


def test_count_output(capsys):
    code, out, _ = run_cli(
        ["count", "--form", "1,1,1,0,0,0", "--n", "50"], capsys
    )
    assert code == 0
    assert out.strip() == "84"


def test_count_rejects_indefinite_form(capsys):
    code, _, err = run_cli(
        ["count", "--form", "1,1,-3,0,0,0", "--n", "5"], capsys
    )
    assert code == 2
    assert "positive definite" in err


def test_verify_single_identity(capsys):
    code, out, _ = run_cli(
        ["verify", "--id", "E2.1", "--order", "120", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out.strip())
    assert doc == {
        "firstMismatch": None,
        "id": "E2.1",
        "order": 120,
        "status": "pass",
    }


def test_verify_unknown_id_exits_2(capsys):
    code, _, err = run_cli(["verify", "--id", "BOGUS"], capsys)
    assert code == 2
    assert "unknown identity" in err


def test_verify_json_is_deterministic(capsys):
    args = ["verify", "--id", "E1.14", "--id", "E1.15", "--order", "60",
            "--format", "json"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_genus_requires_odd_prime(capsys):
    for p in ("2", "9", "-3"):
        code, out, err = run_cli(["genus", "--p", p], capsys)
        assert code == 2
        assert err == f"error: {p} is not an odd prime\n"
        assert out == ""


def test_genus_report(capsys):
    code, out, _ = run_cli(
        ["genus", "--p", "23", "--max-n", "60"], capsys
    )
    assert code == 0
    assert "TG1,23" in out and "TG2,23" in out
    assert "pullback bijection: ok" in out
    for aut in ("8", "4", "12"):
        assert aut in out


def test_genus_disc_listing(capsys):
    code, out, _ = run_cli(
        ["genus", "--disc", "4624", "--format", "json"], capsys
    )
    assert code == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(docs) == 12
    assert sorted(len(d["members"]) for d in docs)[:3] == [2, 2, 2]


def test_prop54_cli(capsys):
    code, out, _ = run_cli(
        ["prop54", "--p", "3,5", "--max-n", "100", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p,maxN,status")
    assert all("pass" in line for line in lines[1:])


def test_a_passing_prop54_has_no_first_failing_n(capsys):
    argv = ["prop54", "--p", "3", "--max-n", "50", "--format"]
    _, out, _ = run_cli(argv + ["json"], capsys)
    assert json.loads(out)["firstFail"] is None
    _, out, _ = run_cli(argv + ["csv"], capsys)
    assert out.splitlines()[1].startswith("3,50,pass,,")
    _, out, _ = run_cli(argv + ["table"], capsys)
    header, row = out.splitlines()
    start = header.index("firstFail")
    assert row[start:start + len("firstFail")].strip() == ""


def test_prop54_rejects_nonprime(capsys):
    code, _, err = run_cli(["prop54", "--p", "9"], capsys)
    assert code == 2
    assert "not an odd prime" in err


def test_prop54_checks_every_prime_before_any_work(capsys, monkeypatch):
    from threesquares import cli

    def no_work(p, max_n):
        raise AssertionError("verify_prop54 ran before every prime was checked")

    monkeypatch.setattr(cli, "verify_prop54", no_work)
    code, out, err = run_cli(["prop54", "--p", "3,5,21"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: 21 is not an odd prime\n"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["verify", "--id", "E2.1", "--order", "60", "--format", "json",
         "--output", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["status"] == "pass"


def test_env_default_order(monkeypatch, capsys):
    monkeypatch.setenv("TERNARY_ORDER", "50")
    code, out, _ = run_cli(
        ["verify", "--id", "E1.14", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out.strip())["order"] == 50


def test_genus_exit_code_follows_pairing_status(monkeypatch, capsys):
    from threesquares import cli
    from threesquares.genera import HResult

    failed = HResult("fail", (), "x")
    monkeypatch.setattr(cli, "find_h_between", lambda src, dst, max_n: failed)
    code, out, err = run_cli(
        ["genus", "--p", "23", "--max-n", "60", "--format", "json"], capsys
    )
    assert (code, err) == (1, "error: pullback bijection: x\n")
    doc = json.loads(out)
    assert doc["hStatus"] == "fail" and doc["h"] == []
    code, out, err = run_cli(["genus", "--p", "23", "--max-n", "60"], capsys)
    assert (code, err) == (1, "error: pullback bijection: x\n")
    assert out.endswith("pullback bijection: fail\n")


@pytest.mark.parametrize("p, max_n", [(29, 1), (509, 100)])
def test_genus_at_a_depth_too_shallow_to_tell_classes_apart(capsys, p, max_n):
    # The pairing is the one tg2 built, checked, not searched for: a depth
    # at which two classes share automorphs and theta prefix passes.
    from threesquares.genera import overlattice, tg1

    code, out, err = run_cli(
        ["genus", "--p", str(p), "--max-n", str(max_n), "--format", "json"],
        capsys,
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["hStatus"] == "ok"
    built = {overlattice(m).as_tuple(): m.as_tuple() for m in tg1(p).members}
    assert {tuple(f): tuple(g) for f, g in doc["h"]} == built


def test_genus_names_the_pair_a_swap_breaks(monkeypatch, capsys):
    # tg2(29) has two members with four automorphs each; with their
    # sources swapped the first of them fails at the least n where
    # r_f(4n) and r_g(n) differ, counted here point by point.
    from dataclasses import replace

    from threesquares import genera

    real = genera.tg2(29)
    i, j = [k for k, aut in enumerate(real.aut_counts) if aut == 4]
    sources = list(real.sources)
    sources[i], sources[j] = sources[j], sources[i]
    monkeypatch.setattr(
        cli, "tg2", lambda p: replace(real, sources=tuple(sources))
    )
    f, g = real.members[i], sources[i]
    witness = next(
        (n, rep_count_ternary(f, 4 * n), rep_count_ternary(g, n))
        for n in range(61)
        if rep_count_ternary(f, 4 * n) != rep_count_ternary(g, n)
    )
    code, out, err = run_cli(
        ["genus", "--p", "29", "--max-n", "60", "--format", "json"], capsys
    )
    assert code == 1
    assert err == (
        f"error: pullback bijection: {f} -> {g}: r(4n) != r(n) at "
        f"(n, lhs, rhs) = {witness}\n"
    )
    assert json.loads(out)["hStatus"] == "fail"
    # Below the first difference the swap passes: the check runs to --max-n.
    below = ["genus", "--p", "29", "--max-n", str(witness[0] - 1)]
    assert run_cli(below, capsys)[0] == 0


@pytest.mark.parametrize(
    "order, env, message",
    [
        ("-5", None, "--order must be non-negative"),
        (None, "abc", "TERNARY_ORDER must be an integer"),
        (None, "-3", "TERNARY_ORDER must be non-negative"),
    ],
)
def test_bad_order_is_a_usage_error(monkeypatch, capsys, order, env, message):
    if env is None:
        monkeypatch.delenv("TERNARY_ORDER", raising=False)
    else:
        monkeypatch.setenv("TERNARY_ORDER", env)
    argv = ["verify", "--id", "E1.9"]
    if order is not None:
        argv += ["--order", order]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and message in err


@pytest.mark.parametrize(
    "argv, trailer",
    [
        (["genus", "--p", "23", "--max-n", "60"], "pullback bijection: ok"),
        (["genus", "--p", "23", "--max-n", "60", "--format", "csv"],
         "pullback bijection: ok"),
        (["genus", "--disc", "4624"], "12 genera of discriminant 4624"),
        (["genus", "--disc", "4624", "--format", "csv"],
         "12 genera of discriminant 4624"),
    ],
)
def test_genus_output_file_takes_the_whole_report(tmp_path, capsys, argv, trailer):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(argv + ["--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    with open(target, newline="") as fh:
        report = fh.read()
    assert trailer in report
    # Without --output the same report goes to stdout.
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == report


def test_runtime_error_is_a_one_line_failure(monkeypatch, capsys):
    from threesquares import cli

    def broken(p):
        raise RuntimeError(f"no genus of discriminant 16*{p}^2 qualifies")

    monkeypatch.setattr(cli, "tg2", broken)
    code, out, err = run_cli(["genus", "--p", "23"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: no genus of discriminant 16*23^2 qualifies\n"


def test_out_of_memory_is_a_one_line_usage_error(monkeypatch, capsys):
    from threesquares import cli

    def exhausted(order, ids=None):
        raise MemoryError

    monkeypatch.setattr(cli, "run_catalog", exhausted)
    code, out, err = run_cli(["verify", "--id", "E1.9"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


def _one_error_line(err: str) -> None:
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_output_in_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report"
    code, out, err = run_cli(["genus", "--p", "3", "--output", str(target)], capsys)
    assert code == 2
    assert out == ""
    _one_error_line(err)
    assert "No such file or directory" in err


def test_output_at_a_directory_path_is_a_usage_error(tmp_path, capsys):
    argv = ["verify", "--all", "--order", "10", "--output", str(tmp_path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    _one_error_line(err)
    assert "Is a directory" in err


@pytest.mark.parametrize(
    "argv, attr",
    [
        (["verify", "--all", "--order", "1000"], "run_catalog"),
        (["genus", "--p", "23"], "tg1"),
        (["prop54", "--p", "3,5"], "verify_prop54"),
        (["s", "--max", "100"], "s_table"),
    ],
    ids=["verify", "genus", "prop54", "s"],
)
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_a_bad_output_path_fails_before_any_work(
    monkeypatch, capsys, tmp_path, argv, attr, where
):
    target = tmp_path / "missing" / "report" if where == "missing-dir" else tmp_path
    err = _refuses_before_work(
        monkeypatch, capsys, [attr], argv + ["--output", str(target)]
    )
    _one_error_line(err)
    reason = {"missing-dir": "[Errno 2] No such file or directory",
              "directory": "[Errno 21] Is a directory"}[where]
    assert err == f"error: {reason}: '{target}'\n"


# The deterministic stdout of the three end-to-end reports; any change to
# them must say why.  Forms print as each class's Eisenstein-reduced form,
# which is unique, so the genus and prop54 digests pin that convention.
GOLDEN = [
    (["verify", "--all", "--order", "1000", "--format", "json"],
     "65efa062a3dbf348f23c31e886e8894d9497f5d29229e19ec81a56477276162a"),
    (["genus", "--p", "23", "--format", "json"],
     "8822351471752ee5785c5409ea0e85e76d7669fb100d3693e38bcf5c4ed1ed7d"),
    (["prop54", "--p", "3,5,7", "--max-n", "300", "--format", "json"],
     "dfe66e14ffc31f884ca1ebb9f248305af6ce7244c8c4423236f9f390a2fc8c1e"),
    (["genus", "--p", "73", "--format", "json"],
     "5b9c19713ea6c0b9d9b7bd36db9e10b4fb8453a9c1903b18348c6809b407bb5c"),
    (["genus", "--disc", "4624", "--format", "json"],
     "04c984ae455f38c8f3688bc582a5e93d314f645c996c98d577004ec514c2daf4"),
    (["prop54", "--p", "3,5,7,11,13,17,19,23", "--max-n", "1000",
      "--format", "json"],
     "b5fa4b1a9638f301c0a8dcc1b845a2b559c5c0bc9f4802aa3fc0b726c28cd6ef"),
    # A large prime: s at multiples of 151^2 = 22801, up to 22.8 M.
    (["prop54", "--p", "151", "--max-n", "1000", "--format", "json"],
     "524dbc1c42352d861b797ec508372ff2cacc1fa72a78849a54ff44d98b8273e7"),
]


@pytest.mark.parametrize(
    "argv, digest",
    GOLDEN,
    ids=["verify", "genus", "prop54", "genus73", "genus4624", "prop54to23",
         "prop54at151"],
)
def test_reports_are_byte_identical_to_the_golden_output(capsys, argv, digest):
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_a_failing_prop54_prints_its_first_failing_n(monkeypatch, capsys):
    real = verify.s_multiples

    def s_multiples(steps, count):
        # s(49 * 12), wherever a request reads it.
        rows = real(steps, count)
        for s, step in zip(rows, steps):
            if 49 * 12 % step == 0 and 49 * 12 // step <= count:
                s[49 * 12 // step] += 1
        return rows

    monkeypatch.setattr(verify, "s_multiples", s_multiples)
    code, out, err = run_cli(
        ["prop54", "--p", "7", "--max-n", "100", "--format", "json"], capsys
    )
    assert (code, err) == (1, "")
    assert out == (
        '{"firstFail": 12, "maxN": 100, "p": 7, "status": "fail", '
        '"tg1": "6*R[1, 2, 7, 0, 0, -1]", "tg2": "12*R[4, 7, 8, 0, -4, 0]"}\n'
    )


def test_the_package_runs_as_a_module(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "threesquares", "verify", "--id", "E1.9",
         "--order", "50", "--format", "json"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {
        "firstMismatch": None, "id": "E1.9", "order": 50, "status": "pass",
    }


def test_a_pipe_closed_early_is_a_usage_error():
    # 200001 rows are far more than a pipe buffers, so the writer meets
    # the closed pipe; nothing may be reported again at shutdown.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "threesquares.cli", "s", "--max", "200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.stdout.readline().split() == [b"n", b"s"]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    _one_error_line(err)
    assert "Broken pipe" in err
    assert "Exception ignored" not in err


def _disc_over_the_ceiling(monkeypatch, capsys, disc):
    err = _refuses_before_work(
        monkeypatch, capsys, ["genus_partition"], ["genus", "--disc", str(disc)]
    )
    assert err == (
        f"error: --disc {disc} needs a class scan of discriminant {disc}, "
        f"over the ceiling of {cli.CLASS_SCAN_MAX_DISC}\n"
    )


def test_int64_bound_is_a_usage_error(monkeypatch, capsys):
    # The CLI refuses 2^62 at the class-scan ceiling; the library's scan
    # still refuses it by its int64 certificate.
    _disc_over_the_ceiling(monkeypatch, capsys, 4611686018427387904)
    with pytest.raises(ValueError, match="int64"):
        forms.enumerate_classes(4611686018427387904)


def test_s_max_beyond_the_int32_certificate_is_a_usage_error(capsys):
    code, out, err = run_cli(["s", "--max", "268435456"], capsys)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "int32" in err


def test_prop54_refuses_a_huge_table_before_any_genus_work(monkeypatch, capsys):
    from threesquares import verify

    def unreachable(p):
        raise AssertionError("genus work before the s table size check")

    monkeypatch.setattr(verify, "tg1", unreachable)
    monkeypatch.setattr(verify, "tg2", unreachable)
    code, out, err = run_cli(
        ["prop54", "--p", "23", "--max-n", "600000"], capsys
    )
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "uint16 r2" in err


def test_zero_row_json_report_is_empty(capsys):
    # Discriminant 1 has no positive ternary form: no JSON lines at all.
    code, out, err = run_cli(["genus", "--disc", "1", "--format", "json"], capsys)
    assert (code, out, err) == (0, "", "")


@pytest.mark.parametrize(
    "argv",
    [["prop54", "--p", "3", "--max-n", "-5"], ["genus", "--p", "7", "--max-n", "-1"]],
    ids=["prop54", "genus"],
)
def test_negative_max_n_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: --max-n must be non-negative\n"


def test_count_refuses_n_above_its_cap_before_any_rows(monkeypatch, capsys):
    from threesquares import cli

    def unreachable(form, n):
        raise AssertionError("rows built before the --n cap check")

    monkeypatch.setattr(cli, "rep_count_ternary", unreachable)
    cap = cli.COUNT_MAX_N
    code, out, err = run_cli(
        ["count", "--form", "1,1,1,0,0,0", "--n", str(cap + 1)], capsys
    )
    assert (code, out) == (2, "")
    assert err == f"error: --n must be at most {cap}, got {cap + 1}\n"


def test_count_accepts_n_at_its_cap(monkeypatch, capsys):
    from threesquares import cli

    monkeypatch.setattr(cli, "COUNT_MAX_N", 50)
    code, out, _ = run_cli(["count", "--form", "1,1,1,0,0,0", "--n", "50"], capsys)
    assert (code, out) == (0, "84\n")


def test_huge_discriminant_is_refused_by_the_scan_certificate(monkeypatch, capsys):
    # The CLI refuses 10^400 at the class-scan ceiling.  In the library
    # the cube root of 10^400 is exact integer work, and the scan's int64
    # certificate then refuses the discriminant.
    _disc_over_the_ceiling(monkeypatch, capsys, 10**400)
    with pytest.raises(ValueError, match="^class scan of discriminant .*int64"):
        forms.enumerate_classes(10**400)


def test_disc_at_the_class_scan_ceiling_is_let_through(monkeypatch, capsys):
    monkeypatch.setattr(cli, "CLASS_SCAN_MAX_DISC", 4624)
    code, out, _ = run_cli(["genus", "--disc", "4624"], capsys)
    assert code == 0 and out.endswith("12 genera of discriminant 4624\n")
    _disc_over_the_ceiling(monkeypatch, capsys, 4625)


def _refuses_before_work(monkeypatch, capsys, module_attrs, argv):
    from threesquares import cli

    def unreachable(*args, **kwargs):
        raise AssertionError("work started before the array cap check")

    for attr in module_attrs:
        monkeypatch.setattr(cli, attr, unreachable)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    return err


def _passes_the_cap(monkeypatch, capsys, attr, argv):
    # The guard lets the size through when the work itself starts.
    from threesquares import cli

    def reached(*args, **kwargs):
        raise RuntimeError("reached")

    monkeypatch.setattr(cli, attr, reached)
    assert run_cli(argv, capsys) == (1, "", "error: reached\n")


@pytest.mark.parametrize("via_env", [False, True], ids=["option", "env"])
def test_verify_order_above_the_array_cap(monkeypatch, capsys, via_env):
    from threesquares import cli

    # The deepest ternary theta of the catalog runs to 4 * order + 2, and
    # point_array_bytes(3, 4 * 6439 + 2) is the last size within 1 GiB.
    def argv(order):
        if via_env:
            monkeypatch.setenv("TERNARY_ORDER", str(order))
            return ["verify", "--all"]
        return ["verify", "--all", "--order", str(order)]

    name = "TERNARY_ORDER" if via_env else "--order"
    err = _refuses_before_work(monkeypatch, capsys, ["run_catalog"], argv(6440))
    # The cap bounds the points the theta walks, not an array it holds.
    assert err == (
        f"error: {name} 6440 walks lattice points whose int64 rows would "
        f"take {32 * 323**3} bytes, over the {cli.ARRAY_CAP}-byte cap\n"
    )
    _passes_the_cap(monkeypatch, capsys, "run_catalog", argv(6439))
    # One identity is bounded by its own trees: E1.9 has no lattice leaf,
    # and its eta quotient's majorant takes 7084 limbs at this order.
    err = _refuses_before_work(
        monkeypatch, capsys, ["run_catalog"],
        ["verify", "--id", "E1.9", "--order", "1000000000"],
    )
    need = (10**9 + 1) * (16 * 7084 + 88)
    assert f"--order 1000000000 needs {need} bytes for the arrays of one series" in err


def test_genus_max_n_above_the_array_cap(monkeypatch, capsys):
    # The pairing takes tg2's theta series to 4 * max_n.
    err = _refuses_before_work(
        monkeypatch, capsys, ["tg1", "tg2", "find_h_between"],
        ["genus", "--p", "73", "--max-n", "6441"],
    )
    assert err.startswith(
        "error: --max-n 6441 walks lattice points whose int64 rows would take "
    ) and "-byte cap" in err
    _passes_the_cap(
        monkeypatch, capsys, "tg1", ["genus", "--p", "73", "--max-n", "6440"]
    )


def test_prop54_max_n_above_the_array_cap(monkeypatch, capsys):
    # The theta series to max_n decide for small primes, the uint16 r2 to
    # p^2 * max_n for the largest prime when it passes 16384^2 - 1.
    err = _refuses_before_work(
        monkeypatch, capsys, ["verify_prop54"],
        ["prop54", "--p", "3,127", "--max-n", "20000"],
    )
    assert err == (
        f"error: --max-n 20000 needs s({127**2 * 20000}) from a uint16 r2, "
        "exact only up to 268435455\n"
    )
    # The threshold is 16384^2 - 1 itself: 547^2 * 897 is below it.
    err = _refuses_before_work(
        monkeypatch, capsys, ["verify_prop54"],
        ["prop54", "--p", "547", "--max-n", "898"],
    )
    assert f"needs s({547**2 * 898}) from a uint16 r2" in err
    _passes_the_cap(
        monkeypatch, capsys, "verify_prop54",
        ["prop54", "--p", "547", "--max-n", "897"],
    )
    err = _refuses_before_work(
        monkeypatch, capsys, ["verify_prop54"],
        ["prop54", "--p", "3,5", "--max-n", "25761"],
    )
    assert err.startswith(
        "error: --max-n 25761 walks lattice points whose int64 rows would take "
    ) and "-byte cap" in err
    _passes_the_cap(
        monkeypatch, capsys, "verify_prop54",
        ["prop54", "--p", "3,5", "--max-n", "25760"],
    )


def test_benchmark_sizes_stay_far_below_every_cap():
    from threesquares import cli
    from threesquares.catalog import catalog
    from threesquares.lattice import point_array_bytes
    from threesquares.verify import cap_bytes

    verify_all = max(cap_bytes([x for s in catalog() for x in (s.lhs, s.rhs)], 1000))
    genus = point_array_bytes(3, 4 * 500)
    prop54 = max(4 * (23**2 * 1000 + 1), point_array_bytes(3, 1000))
    assert max(verify_all, genus, prop54) * 16 <= cli.ARRAY_CAP
    # genus --p 73, prop54 up to 23 and the tests' tg1(101).
    assert max(73, 23, 101) ** 2 * 16 <= cli.CLASS_SCAN_MAX_DISC
    # genus --disc 4624 and 16 * 73^2.  Scan time grows about as D^1.5,
    # so a third of the ceiling is about a fifth of its time.
    assert max(4624, 85264) * 3 <= cli.CLASS_SCAN_MAX_DISC


@pytest.mark.parametrize(
    "argv",
    [["genus", "--p", str(2**61 - 1)], ["prop54", "--p", "1000003", "--max-n", "0"]],
    ids=["genus", "prop54"],
)
def test_prime_past_the_class_scan_ceiling_is_refused_before_any_check(
    monkeypatch, capsys, argv
):
    p = int(argv[2])
    err = _refuses_before_work(
        monkeypatch, capsys, ["require_odd_prime", "tg1", "tg2", "verify_prop54"],
        argv,
    )
    assert err == (
        f"error: --p {p} needs a class scan of discriminant {p * p}, "
        f"over the ceiling of {cli.CLASS_SCAN_MAX_DISC}\n"
    )


@pytest.mark.parametrize(
    "argv, attr",
    [(["genus", "--p", "23"], "tg1"), (["prop54", "--p", "23"], "verify_prop54")],
    ids=["genus", "prop54"],
)
def test_prime_at_the_class_scan_ceiling_is_let_through(
    monkeypatch, capsys, argv, attr
):
    monkeypatch.setattr(cli, "CLASS_SCAN_MAX_DISC", 23**2)
    _passes_the_cap(monkeypatch, capsys, attr, argv)
    argv[2] = "29"
    err = _refuses_before_work(monkeypatch, capsys, [attr], argv)
    assert err.startswith("error: --p 29 needs a class scan of discriminant 841")


@pytest.mark.parametrize(
    "argv",
    [["genus", "--p", "73", "--disc", "5"], ["genus"]],
    ids=["both", "neither"],
)
def test_genus_takes_exactly_one_of_p_and_disc(monkeypatch, capsys, argv):
    err = _refuses_before_work(
        monkeypatch, capsys, ["tg1", "tg2", "genus_partition"], argv
    )
    assert err == "error: genus takes exactly one of --p and --disc\n"
