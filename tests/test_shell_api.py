"""Public API tests: Shell, run_script, RunResult, state persistence,
the bench runners, and the CLI."""

import pytest

from repro import (
    JashOptimizer,
    PROFILES,
    Shell,
    aws_c5_2xlarge_gp2,
    laptop,
    run_script,
)
from repro.bench import (
    ENGINES,
    access_log,
    format_table,
    make_engine,
    ncdc_records,
    run_engine,
    run_matrix,
    run_record_loop,
    speedup,
    spell_documents,
    words_text,
)
from repro.bench.workloads import java_temperature_program
from repro.cli import main as cli_main

from .conftest import fast_machine


class TestShell:
    def test_run_captures_streams(self):
        shell = Shell(fast_machine())
        result = shell.run("echo out; no_such 2>&1 >/dev/null")
        assert b"out" in result.stdout

    def test_fs_shared_across_runs(self):
        shell = Shell(fast_machine())
        shell.run("echo persisted > /f")
        assert shell.run("cat /f").stdout == b"persisted\n"

    def test_state_fresh_per_run_by_default(self):
        shell = Shell(fast_machine())
        shell.run("x=1")
        assert shell.run("echo [${x-unset}]").stdout == b"[unset]\n"

    def test_persist_state(self):
        shell = Shell(fast_machine(), persist_state=True)
        shell.run("x=1; cd /tmp")
        result = shell.run("echo $x $PWD")
        assert result.stdout == b"1 /tmp\n"

    def test_stdin(self):
        shell = Shell(fast_machine())
        assert shell.run("wc -l", stdin=b"a\nb\n").stdout.strip() == b"2"

    def test_env_injection(self):
        shell = Shell(fast_machine())
        result = shell.run("echo $GREETING", env={"GREETING": "hey"})
        assert result.stdout == b"hey\n"

    def test_elapsed_monotone(self):
        shell = Shell(fast_machine())
        r1 = shell.run("sleep 1")
        assert r1.elapsed >= 1.0

    def test_run_result_repr(self):
        shell = Shell(fast_machine())
        assert "status=0" in repr(shell.run("true"))

    def test_run_script_helper(self):
        result = run_script("cat /in", files={"/in": b"hello\n"})
        assert result.out == "hello\n"


class TestWorkloads:
    def test_words_text_size(self):
        data = words_text(10_000, seed=1)
        assert 9_000 < len(data) < 12_000
        assert data.endswith(b"\n")
        assert b"\n" in data[:200]  # multi-line

    def test_words_deterministic(self):
        assert words_text(5000, seed=2) == words_text(5000, seed=2)
        assert words_text(5000, seed=2) != words_text(5000, seed=3)

    def test_ncdc_layout(self):
        data = ncdc_records(50, seed=1)
        for line in data.splitlines():
            assert len(line) >= 93
            temp = line[88:92]
            assert temp.isdigit()

    def test_ncdc_has_missing_markers(self):
        data = ncdc_records(500, seed=1)
        assert b"9999" in data

    def test_access_log(self):
        data = access_log(100, seed=1, error_rate=0.5)
        assert data.count(b" 500 ") > 10

    def test_spell_documents(self):
        docs, dictionary = spell_documents(2, 5000, seed=1)
        assert len(docs) == 2
        assert dictionary.splitlines() == sorted(dictionary.splitlines())
        for data in docs.values():
            assert not any(line.startswith(b" ")
                           for line in data.splitlines())


class TestRunners:
    def test_engines(self):
        assert make_engine("bash") is None
        assert make_engine("pash") is not None
        assert make_engine("jash") is not None
        with pytest.raises(ValueError):
            make_engine("zsh")

    def test_run_engine(self):
        run = run_engine("bash", "sort /f", fast_machine(),
                         files={"/f": b"b\na\n"})
        assert run.result.stdout == b"a\nb\n"

    def test_run_matrix(self):
        grid = run_matrix("wc -l /f", {"m1": fast_machine()},
                          engines=("bash", "jash"), files={"/f": b"x\n"})
        assert set(grid) == {("bash", "m1"), ("jash", "m1")}

    def test_record_loop(self):
        data = ncdc_records(200, seed=3)
        answer, seconds = run_record_loop(java_temperature_program(), data,
                                          laptop())
        assert isinstance(answer, int)
        assert seconds > 0
        # cross-check against the pipeline
        result = run_script("cut -c 89-92 /in | grep -v 9999 | sort -rn | head -n1",
                            machine=laptop(), files={"/in": data})
        assert int(result.out.strip()) == answer


class TestReport:
    def test_format_table(self):
        table = format_table(["a", "bb"], [[1, 2.5], ["xx", 3]])
        lines = table.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert "2.500" in table

    def test_speedup(self):
        assert speedup(10.0, 5.0) == "2.00x"


class TestCli:
    def test_run_inline(self, capsys):
        status = cli_main(["run", "-c", "echo cli-works"])
        assert status == 0
        assert "cli-works" in capsys.readouterr().out

    def test_run_engine_flag(self, capsys):
        status = cli_main(["run", "-c", "seq 3 | wc -l", "--engine", "jash"])
        assert status == 0
        assert "3" in capsys.readouterr().out

    def test_exit_status_propagates(self):
        assert cli_main(["run", "-c", "false"]) == 1

    def test_syntax_error_is_a_shell_diagnostic(self, capsys):
        assert cli_main(["run", "-c", "echo 'abc"]) == 2
        err = capsys.readouterr().err
        assert err == "jash: line 1: syntax error: unterminated single quote\n"
        assert "Traceback" not in err

    def test_lint(self, capsys):
        status = cli_main(["lint", "-c", "sort f > f"])
        assert status == 1
        assert "JS2094" in capsys.readouterr().out

    def test_explain(self, capsys):
        assert cli_main(["explain", "sort -rn | head -n1"]) == 0
        assert "sort" in capsys.readouterr().out

    def test_parse(self, capsys):
        assert cli_main(["parse", "-c", "echo hi"]) == 0
        assert "SimpleCommand" in capsys.readouterr().out

    def test_infer(self, capsys):
        assert cli_main(["infer", "tr", "a-z", "A-Z"]) == 0
        assert "stateless" in capsys.readouterr().out

    def test_machine_profiles_all_run(self):
        for name in PROFILES:
            assert cli_main(["run", "-c", "true", "--machine", name]) == 0
