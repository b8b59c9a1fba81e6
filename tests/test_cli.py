"""Command line behaviour: outputs, exit codes, determinism."""

import json

import pytest

from threesquares.cli import main


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

    failed = HResult("none", (), "x")
    monkeypatch.setattr(cli, "find_h", lambda p, max_n: failed)
    code, out, _ = run_cli(
        ["genus", "--p", "23", "--max-n", "60", "--format", "json"], capsys
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["hStatus"] == "none" and doc["h"] == []
    code, out, _ = run_cli(["genus", "--p", "23", "--max-n", "60"], capsys)
    assert code == 1
    assert "pullback bijection: none" in out


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


def test_int64_bound_is_a_usage_error(capsys):
    code, out, err = run_cli(
        ["genus", "--disc", "4611686018427387904"], capsys
    )
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "int64" in err


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
    assert len(err.strip().splitlines()) == 1 and "int32" in err


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


def test_huge_discriminant_is_refused_by_the_scan_certificate(capsys):
    # The cube root of 10^400 is exact integer work; the scan's int64
    # certificate then refuses the discriminant.
    code, out, err = run_cli(["genus", "--disc", str(10**400)], capsys)
    assert (code, out) == (2, "")
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: class scan of discriminant") and "int64" in err
