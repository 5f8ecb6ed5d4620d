"""Reference results the benchmark checks the program's output against.

Nothing here imports ``repro``: each reference is computed in plain
Python (``wordfreq``, ``spell-pool``, the loop programs) or read from
expectations a host shell recorded (the conformance corpus copied into
``perfbench/corpus``).  A check returns an error string or ``None``; the
caller counts a mismatch as a failure and keeps running.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

#: the wordfreq pipeline (the body of examples/wordfreq.sh)
WORDFREQ_SCRIPT = (
    "cat /data/book.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c |\n"
    "    sort -rn | head -n 10 > /data/top10.txt\n")
WORDFREQ_INPUT, WORDFREQ_OUTPUT = "/data/book.txt", "/data/top10.txt"

#: the spell pipeline of the wall-clock trajectory
SPELL_SCRIPT = ("cat /data/words.txt | tr -cs A-Za-z '\\n' | sort | uniq "
                "> /data/out.txt")
SPELL_INPUT, SPELL_OUTPUT = "/data/words.txt", "/data/out.txt"

_WORD = re.compile(rb"[A-Za-z]+")


def _tr_tokens(data: bytes) -> list[bytes]:
    """The lines ``tr -cs A-Za-z '\\n'`` produces, as ``sort`` sees them:
    a leading non-letter run becomes one empty line."""
    tokens = _WORD.findall(data)
    if data and not _WORD.match(data):
        tokens.append(b"")
    return tokens


def wordfreq_expected(data: bytes) -> bytes:
    """Top ten of ``sort | uniq -c | sort -rn``: ties in the count fall
    back to the whole line compared bytewise, reversed by ``-r``."""
    counts = Counter(t.lower() for t in _tr_tokens(data))
    top = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]),
                 reverse=True)[:10]
    return b"".join(b"%7d %s\n" % (n, word) for word, n in top)


def spell_expected(data: bytes) -> bytes:
    """``sort | uniq`` of the tokens: the sorted set, in byte order."""
    return b"".join(t + b"\n" for t in sorted(set(_tr_tokens(data))))


def compare(stdout: bytes, status: int, expect_stdout: bytes,
            expect_status: int) -> str | None:
    if status != expect_status:
        return f"status {status}, expected {expect_status}"
    if stdout != expect_stdout:
        return (f"stdout {stdout[:80]!r}... differs from expected "
                f"{expect_stdout[:80]!r}...")
    return None


# ---------------------------------------------------------------------------
# the host-recorded conformance corpus
# ---------------------------------------------------------------------------

_STEP_MARKER = "--- step:"


def _literal(text: str) -> bytes:
    value = ast.literal_eval(text)
    return value.encode() if isinstance(value, str) else bytes(value)


def parse_corpus_entry(text: str, name: str) -> dict:
    """One ``.session`` or divergence ``.sh`` entry: a ``#`` header with
    ``file NAME:``, ``expect-status:`` and ``expect-stdout:`` keys (file
    contents and stdout as Python string literals), then the script.
    Session ``--- step:`` marker lines only delimit steps."""
    lines = text.splitlines()
    i = 0
    files: dict[str, bytes] = {}
    expect = {"expect-status": "0", "expect-stdout": "''"}
    while i < len(lines) and lines[i].startswith("#"):
        key, _, value = lines[i][1:].strip().partition(":")
        key = key.strip()
        if key.startswith("file "):
            files[key[5:].strip()] = _literal(value.strip())
        elif key in expect:
            expect[key] = value.strip()
        i += 1
    body = [line for line in lines[i:] if not line.startswith(_STEP_MARKER)]
    return {
        "name": name,
        "script": "\n".join(body).strip("\n") + "\n",
        "files": files,
        "expect_status": int(expect["expect-status"]),
        "expect_stdout": _literal(expect["expect-stdout"]),
    }


def load_corpus(directory: Path = CORPUS_DIR) -> list[dict]:
    """Every corpus entry, in name order."""
    return [parse_corpus_entry(path.read_text(), path.stem)
            for path in sorted(directory.iterdir())
            if path.suffix in (".session", ".sh")]
