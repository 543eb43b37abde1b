import concurrent.futures

from squeezephase import checks
from squeezephase.checks import CheckResult, run_builtin_checks
from squeezephase.cli import _fmt, _sweep_point, main, parse_config, run


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


def test_sweep_rows_are_its_points_in_process(tmp_path, monkeypatch):
    # every grid point runs in the calling process, in order: a process
    # pool would fail the run
    def no_pool(*args, **kwargs):
        raise AssertionError("sweep started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    eps, omega = (0.02, 0.05), (0.5, 1.0, 2.0)
    text = "[sweep]\neps=0.02,0.05\nomega=0.5,1.0,2.0"
    assert run("sweep", parse_config(text), out_dir=tmp_path) == 0
    lines = (tmp_path / "sweep.csv").read_bytes().decode().split("\n")
    assert lines[1:] == [",".join(map(_fmt, _sweep_point(e, w)))
                         for e in eps for w in omega] + [""]
