from squeezephase import checks
from squeezephase.checks import CheckResult, run_builtin_checks
from squeezephase.cli import main, parse_config, run


def test_builtin_suite_all_pass():
    results = run_builtin_checks()
    failed = [r for r in results if not r.passed]
    assert not failed, f"failed checks: {[(r.name, r.detail) for r in failed]}"
    assert len(results) >= 15


def test_check_subcommand_exit_and_output(tmp_path, capsys):
    assert run("check", parse_config(""), out_dir=tmp_path) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_check_subcommand_reports_failure(tmp_path, capsys, monkeypatch):
    def failing():
        return CheckResult(name="always-fails", passed=False, detail="x = 1")

    monkeypatch.setattr(checks, "ALL_CHECKS", (failing,))
    assert run("check", parse_config(""), out_dir=tmp_path) == 1
    captured = capsys.readouterr()
    assert captured.out == "FAIL always-fails: x = 1\n"
    assert "one or more built-in checks failed" in captured.err


def test_check_needs_no_config(tmp_path, capsys):
    assert main(["check", "--out", str(tmp_path)]) == 0


def test_parallel_sweep_matches_serial(tmp_path):
    text_serial = "[sweep]\neps=0.02,0.05\nomega=1.0\nworkers=1"
    text_par = "[sweep]\neps=0.02,0.05\nomega=1.0\nworkers=2"
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    assert run("sweep", parse_config(text_serial), out_dir=out1) == 0
    assert run("sweep", parse_config(text_par), out_dir=out2) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
