"""Reference checkers, confirmed against host coreutils and the program."""

import shutil
import subprocess

import pytest

import gen
import refs

TIES = b"b a c; b, A! c c\nd d a\n"


def test_wordfreq_reference_orders_ties_by_reversed_line():
    # counts: a 3, c 3, b 2, d 2 -> ties fall back to the line, reversed
    assert refs.wordfreq_expected(TIES) == (
        b"      3 c\n      3 a\n      2 d\n      2 b\n")


def test_leading_separator_is_an_empty_line():
    assert refs.spell_expected(b"  x y\n") == b"\nx\ny\n"
    assert refs.spell_expected(b"y x y\n") == b"x\ny\n"


@pytest.mark.skipif(shutil.which("sh") is None or shutil.which("sort") is None,
                    reason="no host coreutils")
@pytest.mark.parametrize("script,expected", [
    (refs.WORDFREQ_SCRIPT, refs.wordfreq_expected),
    (refs.SPELL_SCRIPT, refs.spell_expected),
])
def test_references_match_host_coreutils(tmp_path, script, expected):
    data = TIES + gen.zipf_corpus(20_000, 9)
    (tmp_path / "data").mkdir()
    for name in ("book.txt", "words.txt"):
        (tmp_path / "data" / name).write_bytes(data)
    host = script.replace("/data/", str(tmp_path / "data") + "/")
    subprocess.run(["sh", "-c", host], check=True, timeout=60,
                   env={"PATH": "/usr/bin:/bin", "LC_ALL": "C"})
    out = script.rsplit("> ", 1)[1].strip().rsplit("/", 1)[1]
    assert (tmp_path / "data" / out).read_bytes() == expected(data)


@pytest.mark.parametrize("script,in_path,out_path,expected", [
    (refs.WORDFREQ_SCRIPT, refs.WORDFREQ_INPUT, refs.WORDFREQ_OUTPUT,
     refs.wordfreq_expected),
    (refs.SPELL_SCRIPT, refs.SPELL_INPUT, refs.SPELL_OUTPUT,
     refs.spell_expected),
])
def test_program_agrees_with_references_at_tiny_size(script, in_path,
                                                      out_path, expected):
    from repro.shell import Shell

    data = TIES + gen.zipf_corpus(20_000, 2)
    shell = Shell()
    shell.fs.write_bytes(in_path, data)
    result = shell.run(script)
    assert refs.compare(shell.fs.read_bytes(out_path), result.status,
                        expected(data), 0) is None


def test_compare_reports_status_then_stdout():
    assert refs.compare(b"x", 0, b"x", 0) is None
    assert "status 1" in refs.compare(b"x", 1, b"x", 0)
    assert "stdout" in refs.compare(b"y", 0, b"x", 0)


def test_parse_corpus_entry():
    entry = refs.parse_corpus_entry(
        "# jash-replay session\n# name: t\n# file a.txt: 'x\\ny\\n'\n"
        "# expect-status: 3\n# expect-stdout: 'y\\n'\n"
        "--- step: one\ntail -n 1 a.txt\n--- step: two\nexit 3\n", "t")
    assert entry["files"] == {"a.txt": b"x\ny\n"}
    assert entry["expect_status"] == 3
    assert entry["expect_stdout"] == b"y\n"
    assert entry["script"] == "tail -n 1 a.txt\nexit 3\n"


def test_corpus_copy_loads_and_passes_on_the_program():
    from repro.jit import JashOptimizer
    from repro.shell import Shell

    corpus = refs.load_corpus()
    assert len(corpus) == 20
    for entry in corpus:
        shell = Shell(optimizer=JashOptimizer())
        for name, data in entry["files"].items():
            shell.fs.write_bytes("/" + name, data)
        result = shell.run(entry["script"])
        assert refs.compare(result.stdout, result.status,
                            entry["expect_stdout"],
                            entry["expect_status"]) is None, entry["name"]
