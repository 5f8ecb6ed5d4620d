"""Seeded generators: deterministic, sized, and shaped as documented."""

import re
import shutil
import subprocess

import pytest

import gen


def test_zipf_corpus_is_seeded_and_sized():
    a = gen.zipf_corpus(40_000, 3)
    assert a == gen.zipf_corpus(40_000, 3)
    assert a != gen.zipf_corpus(40_000, 4)
    assert 40_000 <= len(a) < 40_200
    assert a.endswith(b".\n") or a.endswith(b"?\n")


def test_zipf_corpus_looks_like_prose():
    text = gen.zipf_corpus(200_000, 1)
    words = re.findall(rb"[A-Za-z]+", text)
    lowered = [w.lower() for w in words]
    # skewed: the commonest word is far more frequent than the median one
    counts = sorted((lowered.count(w) for w in set(lowered[:2000])),
                    reverse=True)
    assert counts[0] > 20 * counts[len(counts) // 2]
    # capitalised words and punctuation are present, lines are wrapped
    assert any(w[:1].isupper() for w in words)
    assert b"," in text and b"." in text
    assert max(len(line) for line in text.splitlines()) <= 80
    # high cardinality, unlike the spell input
    assert gen.distinct_ratio(text) > 0.05


def test_words_text_continues_the_spell_trajectory():
    from repro.bench.workloads import words_text

    for seed in (1, 42):
        assert gen.words_text(30_000, seed) == words_text(30_000, seed=seed)
    assert gen.distinct_ratio(gen.words_text(30_000, 1)) < 0.02


def test_loop_programs_are_seeded_with_fixed_sizes():
    a = gen.loop_programs(12, 5)
    assert a == gen.loop_programs(12, 5)
    b = gen.loop_programs(12, 6)
    assert [p["script"] for p in a] != [p["script"] for p in b]
    # the seed changes values, not the amount of work
    assert [p["name"] for p in a] == [p["name"] for p in b]
    assert ([len(p["script"].split()) for p in a]
            == [len(p["script"].split()) for p in b])


@pytest.mark.skipif(shutil.which("sh") is None, reason="no host sh")
def test_loop_program_expectations_match_host_sh(tmp_path):
    for prog in gen.loop_programs(12, 7):
        work = tmp_path / prog["name"]
        work.mkdir()
        for name, data in prog["files"].items():
            (work / name).write_text(data)
        out = subprocess.run(["sh", "-c", prog["script"]], cwd=work,
                             capture_output=True, text=True, timeout=30,
                             env={"PATH": "/usr/bin:/bin", "LC_ALL": "C"})
        assert (out.stdout, out.returncode) == (prog["expect_stdout"], 0), \
            prog["name"]


def test_generate_writes_inputs_and_expectations(tmp_path):
    facts = gen.generate("scripts", 2, tmp_path / "s")
    assert facts["programs"] == gen.LOOP_PROGRAMS
    assert (tmp_path / "s" / "programs.json").is_file()
    with pytest.raises(ValueError):
        gen.generate("nope", 1, tmp_path / "x")
