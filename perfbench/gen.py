"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and size, and none of
them imports ``repro``: inputs are produced in their own process, so the
generator's memory never counts against the workload's peak RSS, and
the expected outputs the checks compare against never come from the
program under test.

* :func:`zipf_corpus` — English-like text for ``wordfreq``: a ~50k-word
  synthetic vocabulary drawn with a Zipf-Mandelbrot skew, capitalised
  sentence starts and proper nouns, punctuation and wrapped lines.
* :func:`words_text` — the uniform 76-word text for ``spell-pool``, the
  same algorithm and vocabulary as ``repro.bench.workloads.words_text``
  so the spell throughput trajectory stays continuous.
* :func:`loop_programs` — short shell programs for ``scripts`` exercising
  ``while``/``case``/``$((…))``/functions/``$(…)``/``${x#…}``/``while
  read``, each with the stdout the benchmark expects, computed here in
  Python.

Run as a script it writes one workload's inputs into a directory::

    python3 perfbench/gen.py --workload wordfreq --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import re
import string
import sys
from pathlib import Path

import refs

WORDFREQ_BYTES = 5 << 18  # 1.25 MiB: above the JIT's 1 MiB floor
SPELL_BYTES = 8 << 20  # above the pool's 4 MiB ship floor
LOOP_PROGRAMS = 80

# ---------------------------------------------------------------------------
# wordfreq: Zipf corpus
# ---------------------------------------------------------------------------

#: English letter frequencies (per mille), used to spell vocabulary words
_LETTER_WEIGHTS = dict(zip(
    string.ascii_lowercase,
    (82, 15, 28, 43, 127, 22, 20, 61, 70, 2, 8, 40, 24, 67, 75, 19, 1, 60,
     63, 91, 28, 10, 24, 2, 20, 1)))
#: word-length distribution (lengths 1..12) of running English text
_LENGTH_WEIGHTS = (3, 17, 20, 16, 11, 9, 8, 6, 4, 3, 2, 1)
VOCAB_SIZE = 50_000
#: Zipf-Mandelbrot exponent and rank offset fitted to English word counts
ZIPF_S = 1.07
ZIPF_Q = 2.7


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    letters = list(_LETTER_WEIGHTS)
    letter_cum = list(itertools.accumulate(_LETTER_WEIGHTS.values()))
    length_cum = list(itertools.accumulate(_LENGTH_WEIGHTS))
    seen: set[str] = set()
    vocab: list[str] = []
    while len(vocab) < size:
        length = rng.choices(range(1, 13), cum_weights=length_cum)[0]
        word = "".join(rng.choices(letters, cum_weights=letter_cum, k=length))
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    # short words tend to be the common ones: rank by noisy length
    ranks = {w: len(w) + rng.uniform(0.0, 6.0) for w in vocab}
    vocab.sort(key=ranks.__getitem__)
    return vocab


def zipf_corpus(n_bytes: int, seed: int) -> bytes:
    """About ``n_bytes`` of wrapped prose ending at a sentence boundary."""
    rng = random.Random(f"wordfreq:{seed}")
    vocab = _vocabulary(rng, VOCAB_SIZE)
    cum = list(itertools.accumulate(
        1.0 / (rank + ZIPF_Q) ** ZIPF_S for rank in range(len(vocab))))
    lines: list[str] = []
    line: list[str] = []
    width = 0
    size = 0
    while size < n_bytes:
        n_words = rng.randint(4, 22)
        words = rng.choices(vocab, cum_weights=cum, k=n_words)
        for i, word in enumerate(words):
            if i == 0 or rng.random() < 0.02:  # sentence start, proper noun
                word = word.capitalize()
            if i == n_words - 1:
                word += "." if rng.random() < 0.9 else "?"
            elif rng.random() < 0.06:
                word += ","
            if width + len(word) > 72 and line:
                text = " ".join(line)
                lines.append(text)
                size += len(text) + 1
                line, width = [], 0
            line.append(word)
            width += len(word) + 1
    if line:
        lines.append(" ".join(line))
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# spell-pool: the uniform words_text input
# ---------------------------------------------------------------------------

_SPELL_VOCAB = (
    "the of and to in a is that it was for on are as with his they at be "
    "this have from or had by hot word but what some we can out other were "
    "all there when up use your how said an each she which do their time "
    "apple banana cherry damson elderberry fig grape huckleberry imbe "
    "jackfruit kiwi lemon mango nectarine orange papaya quince raspberry "
    "strawberry tangerine ugli vanilla watermelon xigua yuzu zucchini"
).split()


def words_text(n_bytes: int, seed: int, words_per_line: int = 9) -> bytes:
    """Lines of words drawn uniformly from a 76-word vocabulary."""
    rng = random.Random(seed)
    out: list[str] = []
    size = 0
    row: list[str] = []
    while size < n_bytes:
        word = rng.choice(_SPELL_VOCAB)
        row.append(word)
        size += len(word) + 1
        if len(row) >= words_per_line:
            out.append(" ".join(row))
            row = []
    if row:
        out.append(" ".join(row))
    return ("\n".join(out) + "\n").encode()


def distinct_ratio(data: bytes) -> float:
    """Distinct lines after ``tr -cs A-Za-z '\\n'`` over total lines: the
    input property the counting-sort kernels depend on."""
    tokens = re.findall(rb"[A-Za-z]+", data)
    return len(set(tokens)) / len(tokens) if tokens else 1.0


# ---------------------------------------------------------------------------
# scripts: loop programs with Python-computed expectations
# ---------------------------------------------------------------------------


def _prog_counter(rng: random.Random, n: int) -> tuple[str, dict, str]:
    k, m = rng.randint(3, 17), rng.randint(7, 97)
    script = (f"i=0\ns=0\nwhile [ $i -lt {n} ]; do\n"
              f"  s=$(( s + i * {k} % {m} ))\n  i=$((i + 1))\ndone\n"
              f"echo \"sum=$s\"\n")
    total = sum(i * k % m for i in range(n))
    return script, {}, f"sum={total}\n"


_CASE_WORDS = ("apple", "avocado", "berry", "b52", "cherry", "c3po", "date",
               "x11", "zebra", "alpha", "omega", "r2d2", "kiwi", "bagel")


def _prog_case(rng: random.Random, n: int) -> tuple[str, dict, str]:
    words = rng.choices(_CASE_WORDS, k=n)
    script = ("a=0\nd=0\no=0\nfor w in " + " ".join(words) + "; do\n"
              "  case $w in\n"
              "    a*) a=$((a + 1)) ;;\n"
              "    *[0-9]*) d=$((d + 1)); echo \"digit:$w\" ;;\n"
              "    *) o=$((o + 1)) ;;\n"
              "  esac\ndone\necho \"a=$a d=$d o=$o\"\n")
    out, a, d, o = [], 0, 0, 0
    for w in words:
        if w.startswith("a"):
            a += 1
        elif any(c.isdigit() for c in w):
            d += 1
            out.append(f"digit:{w}\n")
        else:
            o += 1
    out.append(f"a={a} d={d} o={o}\n")
    return script, {}, "".join(out)


def _prog_functions(rng: random.Random, n: int) -> tuple[str, dict, str]:
    xs = [rng.randint(1, 40) for _ in range(n)]
    off = rng.randint(1, 9)
    script = ("sq() {\n  echo $(( $1 * $1 ))\n}\n"
              f"shift_by() {{\n  return $(( $1 + {off} ))\n}}\n"
              "t=0\nfor x in " + " ".join(map(str, xs)) + "; do\n"
              "  t=$(( t + $(sq $x) ))\n"
              "  shift_by $x\n  r=$?\n"
              "  echo \"$x $r\"\ndone\necho \"total=$t\"\n")
    out = [f"{x} {(x + off) % 256}\n" for x in xs]
    out.append(f"total={sum(x * x for x in xs)}\n")
    return script, {}, "".join(out)


_DIRS = ("var", "log", "usr", "share", "tmp", "data", "home", "srv")
_STEMS = ("app", "index", "notes", "report", "core", "main", "db")
_EXTS = ("txt", "log", "tar.gz", "sh", "c")


def _prog_params(rng: random.Random, n: int) -> tuple[str, dict, str]:
    paths = ["/" + "/".join(rng.choices(_DIRS, k=rng.randint(1, 3)))
             + "/" + rng.choice(_STEMS) + "." + rng.choice(_EXTS)
             for _ in range(n)]
    script = ("for p in " + " ".join(paths) + "; do\n"
              "  base=${p##*/}\n"
              "  echo \"${base%%.*} ${p%.*} ${p#/*/} ${#base}\"\n"
              "done\n")
    out = []
    for p in paths:
        base = p.rsplit("/", 1)[1]
        stem = base.split(".", 1)[0]
        no_ext = p.rsplit(".", 1)[0]
        rest = p.split("/", 2)[2] if p.count("/") >= 2 else p
        out.append(f"{stem} {no_ext} {rest} {len(base)}\n")
    return script, {}, "".join(out)


_NAMES = ("ada", "bob", "cy", "dee", "eve", "fox", "gus", "hal")


def _prog_read(rng: random.Random, n: int) -> tuple[str, dict, str]:
    rows = [(rng.choice(_NAMES), rng.randint(0, 999)) for _ in range(n)]
    limit = rng.randint(200, 800)
    data = "".join(f"{name} {n}\n" for name, n in rows)
    script = ("total=0\nbig=0\nwhile read name n; do\n"
              "  total=$((total + n))\n"
              f"  if [ \"$n\" -gt {limit} ]; then\n"
              "    big=$((big + 1))\n    echo \"big $name $n\"\n  fi\n"
              "done < rows.txt\n"
              "echo \"total=$total big=$big\"\n")
    out = [f"big {name} {n}\n" for name, n in rows if n > limit]
    out.append(f"total={sum(n for _, n in rows)} "
               f"big={sum(1 for _, n in rows if n > limit)}\n")
    return script, {"rows.txt": data.encode()}, "".join(out)


def _prog_cmdsub(rng: random.Random, n: int) -> tuple[str, dict, str]:
    words = rng.choices(_NAMES + _STEMS, k=n)
    script = ("acc=\nfor w in " + " ".join(words) + "; do\n"
              "  up=$(echo \"$w\" | tr a-z A-Z)\n"
              "  acc=\"$acc${up%${up#?}}\"\n"
              "done\necho \"$acc\"\n"
              "echo \"len=${#acc}\"\n")
    acc = "".join(w[0].upper() for w in words)
    return script, {}, f"{acc}\nlen={len(acc)}\n"


#: (template, smallest and largest iteration count)
LOOP_TEMPLATES = ((_prog_counter, 20, 60), (_prog_case, 12, 30),
                  (_prog_functions, 6, 16), (_prog_params, 5, 12),
                  (_prog_read, 8, 24), (_prog_cmdsub, 6, 14))
#: iteration counts step from smallest to largest over this many programs
SIZE_STEPS = 4


def loop_programs(count: int, seed: int) -> list[dict]:
    """``count`` programs cycling through the templates.  The seed picks
    the values a program works on; its iteration count follows a fixed
    schedule, so every seed asks for the same amount of work."""
    rng = random.Random(f"scripts:{seed}")
    programs = []
    for i in range(count):
        template, lo, hi = LOOP_TEMPLATES[i % len(LOOP_TEMPLATES)]
        step = (i // len(LOOP_TEMPLATES)) % SIZE_STEPS
        n = lo + (hi - lo) * step // (SIZE_STEPS - 1)
        script, files, stdout = template(rng, n)
        programs.append({
            "name": f"loop-{i:03d}-{template.__name__[6:]}",
            "script": script,
            "files": {k: v.decode() for k, v in files.items()},
            "expect_status": 0,
            "expect_stdout": stdout,
        })
    return programs


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs under ``out``; returns their facts."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "wordfreq":
        data = zipf_corpus(WORDFREQ_BYTES, seed)
        expected = refs.wordfreq_expected(data)
    elif workload == "spell-pool":
        data = words_text(SPELL_BYTES, seed)
        expected = refs.spell_expected(data)
    elif workload == "scripts":
        programs = loop_programs(LOOP_PROGRAMS, seed)
        corpus = refs.load_corpus()
        (out / "programs.json").write_text(json.dumps(programs))
        # the bytes the scripts carry: their text and fixture files
        texts = [p["script"].encode() for p in programs]
        texts += [e["script"].encode() for e in corpus]
        texts += [v.encode() for p in programs for v in p["files"].values()]
        texts += [data for e in corpus for data in e["files"].values()]
        return {"programs": len(programs),
                "distinct_ratio": distinct_ratio(b"\n".join(texts))}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out / "input.txt").write_bytes(data)
    (out / "expected.txt").write_bytes(expected)
    return {"bytes": len(data), "distinct_ratio": distinct_ratio(data)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    facts = generate(args.workload, args.seed, args.out)
    (args.out / "facts.json").write_text(json.dumps(facts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
