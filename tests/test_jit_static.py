"""Per-node static work in the JIT, and the JIT-decision pins.

The JIT keeps one table per analysed AST node (stage shape, node text,
and a *static verdict* when the skip reason follows from the AST alone).
The pins below were recorded before that table existed: the decisions,
their reasons, the virtual clock and the Chrome trace must not move.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import repro.jit.engine as jit_engine
from repro import JashConfig, JashOptimizer, Shell
from repro.annotations.library import DEFAULT_LIBRARY
from repro.bench import words_text
from repro.compiler import OptimizerConfig, PashOptimizer
from repro.incremental import IncrementalOptimizer
from repro.obs import Tracer, dumps_chrome
from repro.parser import parse
from repro.parser.ast_nodes import (
    BraceGroup, CommandList, DoubleQuoted, ListItem, Lit, SimpleCommand,
    Word, walk,
)
from repro.semantics import arith
from repro.semantics.expansion import expand_word
from repro.semantics.interp import FUNC_NEST_MAX, Interpreter
from repro.semantics.state import ShellState
from repro.vos.machines import laptop

FIXTURE = b"".join(b"%s %d\n" % (w, i) for i, w in enumerate(
    [b"pear", b"apple", b"fig", b"kiwi", b"plum", b"lime"] * 40))

WORDS = words_text(64 * 1024, seed=5)

#: loop / function / read / case scripts, each run in a fresh shell
SCRIPTS = {
    "counter-loop": (
        "i=0; while [ $i -lt 12 ]; do echo $i; i=$((i+1)); done"),
    "function-calls": (
        "greet() { echo \"hello $1\"; return 0; }\n"
        "for n in ann bob cy; do greet $n; done; greet last; echo rc=$?"),
    "read-loop": (
        "n=0\n"
        "while read k v; do\n"
        "  case $k in p*) echo \"$v:$k\" ;; esac; n=$((n+1))\n"
        "done < /data/fruit.txt\n"
        "echo lines=$n"),
    "case-dispatch": (
        "for x in 1 22 abc 333 - ~ /data/*; do\n"
        "  case $x in\n"
        "    [0-9]) echo one ;;\n"
        "    [0-9][0-9]*) echo many ;;\n"
        "    -) echo dash ;;\n"
        "    /*) echo \"path $x\" ;;\n"
        "    *) echo word ;;\n"
        "  esac\n"
        "done"),
    "pipelines": (
        "seq 1 30 | sort -rn | head -n 3\n"
        "echo a b c | tr a-z A-Z\n"
        "cat /data/fruit.txt | cut -d ' ' -f 1 | sort | uniq -c\n"
        "head -n 2 /data/fruit.txt > /tmp/h.txt; cat /tmp/h.txt\n"
        "sort < /data/fruit.txt | tail -n 1\n"
        "cat /data/words.txt | tr -cs A-Za-z '\\n' | sort | uniq -c "
        "| sort -rn | head -n 3"),
    "recursion": (
        "fact() { if [ $1 -le 1 ]; then echo 1; "
        "else echo $(( $1 * $(fact $(( $1 - 1 ))) )); fi; }\n"
        "fact 5"),
    "eval-trap": (
        "trap 'echo bye' EXIT; x=3\n"
        "eval 'echo $((x*2))'; eval \"y=5\"; echo $y\n"
        "eval 'seq 1 3 | wc -l'"),
    "redirects-tests": (
        "echo one > /tmp/o.txt; echo two >> /tmp/o.txt\n"
        "if [ -f /tmp/o.txt ]; then cat /tmp/o.txt; fi\n"
        "[ -z \"$none\" ] && echo empty; test 3 -gt 2 && echo gt\n"
        "echo err 2>/dev/null; rm /tmp/o.txt; ls /tmp\n"
        "set -u; [ ${z:-0} -eq 0 ] && echo ok"),
}


def _optimizer() -> JashOptimizer:
    # a low threshold, so the fixture pipelines reach the cost model
    return JashOptimizer(JashConfig(
        optimizer=OptimizerConfig(min_input_bytes=1024)))


def run_script(name: str, optimizer=None, tracer=None):
    shell = Shell(laptop(), optimizer=optimizer, tracer=tracer)
    shell.fs.write_bytes("/data/fruit.txt", FIXTURE)
    shell.fs.write_bytes("/data/words.txt", WORDS)
    return shell.run(SCRIPTS[name])


def decisions_digest(opt: JashOptimizer) -> str:
    rows = [(e.node_text, e.decision, e.reason) for e in opt.events]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def pinned_run(name: str):
    opt = _optimizer()
    tracer = Tracer(syscall_events=True)
    result = run_script(name, opt, tracer)
    chrome = hashlib.sha256(dumps_chrome(tracer).encode()).hexdigest()
    return result, opt, chrome


#: name -> (stdout, status, repr(elapsed), decisions sha256, chrome sha256)
PINNED = {
    'case-dispatch': (b'one\nmany\nword\nmany\ndash\npath /root\npath /data/fruit.txt\npath /data/words.txt\n', 0, '0.014574615454545454',
        '5e91147de53c826b2817c8c4a91ec714a8878fdf3d79ba4e48dc72c52b03427f',
        '02afa4958e36677c451f1dbd8ebd2a371e18b43c219aab35755fbc461dc1816d'),
    'counter-loop': (b'0\n1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n11\n', 0, '0.045557296363636354',
        '2ec04b08d3bf41f3b8562317ae5c21a67ad085789bd76a3773db4518680a7b70',
        '8e46ddbd3dcc848fd269991bb1b9bcd64108486858773eee508168ba587049d4'),
    'eval-trap': (b'6\n5\n3\nbye\n', 0, '0.007366483636363636',
        'ee448518359a4abb256a1fc18e43b31fc4c4582ea2167f1a1c555cc3cf4fed48',
        '49021e73c17a0379b97cfde1f589cedf00a15adb2518ff4a6b5b4bfe3045d228'),
    'function-calls': (b'hello ann\nhello bob\nhello cy\nhello last\nrc=0\n', 0, '0.009138586363636365',
        'e9d88f1b7e89e983667eb64ecd4accd7269193ac19fd68ee1057fa614abbebe6',
        '7837e1dc82f88152ece4dc46b4521d2a1e6b0e3c2945918b567a68d595abba99'),
    'pipelines': (b'30\n29\n28\nA B C\n     40 apple\n     40 fig\n     40 kiwi\n     40 lime\n     40 pear\n     40 plum\npear 0\napple 1\nplum 94\n    192 watermelon\n    184 papaya\n    181 from\n', 0, '0.039956672601304755',
        'a90d9d99c8145de1ddd2c13086cf9fea57bd4bf325b728cbe0297554900c8a54',
        '959e0ae4c442f2738d9f6e80801fb61ce81f04a61106e23cc7cdfb0627814188'),
    'read-loop': (b'0:pear\n4:plum\n6:pear\n10:plum\n12:pear\n16:plum\n18:pear\n22:plum\n24:pear\n28:plum\n30:pear\n34:plum\n36:pear\n40:plum\n42:pear\n46:plum\n48:pear\n52:plum\n54:pear\n58:plum\n60:pear\n64:plum\n66:pear\n70:plum\n72:pear\n76:plum\n78:pear\n82:plum\n84:pear\n88:plum\n90:pear\n94:plum\n96:pear\n100:plum\n102:pear\n106:plum\n108:pear\n112:plum\n114:pear\n118:plum\n120:pear\n124:plum\n126:pear\n130:plum\n132:pear\n136:plum\n138:pear\n142:plum\n144:pear\n148:plum\n150:pear\n154:plum\n156:pear\n160:plum\n162:pear\n166:plum\n168:pear\n172:plum\n174:pear\n178:plum\n180:pear\n184:plum\n186:pear\n190:plum\n192:pear\n196:plum\n198:pear\n202:plum\n204:pear\n208:plum\n210:pear\n214:plum\n216:pear\n220:plum\n222:pear\n226:plum\n228:pear\n232:plum\n234:pear\n238:plum\nlines=240\n', 0, '0.14847617636363658',
        '9938be70fde3beb33e511d5501a45f2e17b41ed223f9e3753714cad36fd97f3a',
        '7b8c648354138b9dff0b66c15a7cceb3d65c27b00af9080c5669a5a57d1bbd09'),
    'recursion': (b'120\n', 0, '0.018226375454545456',
        '9333488db5a5067c06e8b24f68b5e8878396e0a26ff0ea68ca3f7447e682f658',
        'db7a618afaac2dd59ad11ca13e1f119656be0e153697d936166dece24a18bef9'),
    'redirects-tests': (b'one\ntwo\nempty\ngt\nerr\nok\n', 0, '0.023722847272727263',
        '6bf42255af1ad93482f59449aebf45c61c15d7034f86b8151b7a2086753bbca4',
        '5040daba01390efbf9a0e1fcfaa47c6adee67c1933959ff3eb0b2a32de229b43'),
}


class TestPinnedJitDecisions:
    @pytest.mark.parametrize("name", sorted(SCRIPTS))
    def test_pinned(self, name):
        result, opt, chrome = pinned_run(name)
        got = (result.stdout, result.status, repr(result.elapsed),
               decisions_digest(opt), chrome)
        assert got == PINNED[name]


class TestStaticVerdicts:
    """A static verdict must be exactly the reason the full path (early
    expansion, classification, the file-backed check) gives."""

    @pytest.mark.parametrize("name", sorted(SCRIPTS))
    def test_equal_to_the_expansion_path(self, name, monkeypatch):
        static = _optimizer()
        fast = run_script(name, static)
        monkeypatch.setattr(jit_engine, "static_verdict",
                            lambda stages, library: None)
        full = _optimizer()
        slow = run_script(name, full)
        rows = [(e.node_text, e.decision, e.reason) for e in static.events]
        assert rows == [(e.node_text, e.decision, e.reason)
                        for e in full.events]
        assert (fast.stdout, fast.status, fast.elapsed) == \
            (slow.stdout, slow.status, slow.elapsed)
        assert static.early_expansions < full.early_expansions

    def test_only_analysed_nodes_are_stored(self):
        opt = _optimizer()
        run_script("eval-trap", opt)
        program_nodes = {id(n) for prog in opt._programs for n in walk(prog)}
        assert opt._nodes and set(opt._nodes) <= program_nodes

    def test_nounset_takes_the_expansion_path(self):
        opt = JashOptimizer()
        result = Shell(laptop(), optimizer=opt).run(
            "set -u; echo $x; echo after")
        # early expansion meets the unset variable, as it did before
        # static verdicts existed
        assert b"x: unbound variable" in result.stderr
        assert opt.early_expansions == 1

    def test_fixed_classes_agree_with_the_rules(self):
        argvs = ([], ["-n", "3"], ["a", "b"], ["-"], ["-e", "x", "/f"])
        fixed = [DEFAULT_LIBRARY.get(n)
                 for n in DEFAULT_LIBRARY.known_commands()]
        fixed = [spec for spec in fixed if spec.fixed_class is not None]
        assert {"echo", "seq"} <= {spec.name for spec in fixed}
        for spec in fixed:
            for argv in argvs:
                assert spec.classify(argv).par_class is spec.fixed_class


class TestWorkBudget:
    """Deterministic witnesses instead of wall time."""

    def test_counter_loop_expands_nothing_early(self):
        opt = JashOptimizer()
        result = Shell(laptop(), optimizer=opt).run(
            "i=0; while [ $i -lt 500 ]; do echo $i; i=$((i+1)); done")
        assert result.stdout.count(b"\n") == 500
        assert opt.early_expansions == 0
        assert opt.cert_hits > 1000

    def test_bulk_region_expands_once(self):
        opt = JashOptimizer()
        shell = Shell(laptop(), optimizer=opt)
        shell.fs.write_bytes("/big.txt", words_text(1 << 20, seed=2))
        shell.run("cat /big.txt | tr -cs A-Za-z '\\n' | sort")
        assert opt.optimized_count == 1
        assert opt.early_expansions == 1


class TestStaticField:
    """``Word.static_field`` against the expander itself."""

    WORDS = ["plain", "'q u'", '"a b"', "x\\ y", "[", "a[b", "[ab",
             "a]b", "'*'", "\\*", "''", '""', "~", "'~'", "a~", "-lt",
             "a=b", "[[", "d/[", "[/", "*", "a?", "[ab]", "$x", "\\["]

    @pytest.mark.parametrize("text", WORDS)
    def test_matches_expansion(self, text):
        word = _word("echo " + text)
        shell = Shell(laptop())
        for name in ("[", "a[b", "[ab", "a", "b", "d/["):
            shell.fs.write_bytes("/w/" + name, b"")
        interp = Interpreter(ShellState())
        interp.state.cwd = "/w"
        fields = _drive(expand_word(interp, _Proc(shell.fs), word))
        if word.static_field is not None:
            assert fields == [word.static_field]

    def test_unsafe_words_have_none(self):
        for text in ("*", "a?", "[ab]", "~", "$x", "d/[", "[/"):
            assert _word("echo " + text).static_field is None
        assert Word((Lit(""),)).static_field is None
        assert Word((Lit("a\x00b"),)).static_field is None
        assert _word("echo '' [").static_field == ""
        assert _word("echo '' [", 2).static_field == "["


def _word(text: str, index: int = 1) -> Word:
    return parse(text).items[0].command.words[index]


class _Proc:
    def __init__(self, fs):
        self.fs = fs


def _drive(gen):
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("expansion of a literal word yielded")


class TestFunctionShadowing:
    """A shell function named like a library command shadows it."""

    SCRIPT = ("tr() { echo hijacked; }; "
              "cat /in.txt | tr A-Z a-z | sort | uniq -c")
    DATA = b"The Quick brown fox jumps over the lazy dog\n" * 45000

    def _run(self, optimizer=None, jobs=1, script=SCRIPT):
        shell = Shell(laptop(), optimizer=optimizer, jobs=jobs)
        shell.fs.write_bytes("/in.txt", self.DATA)
        return shell.run(script)

    def test_bash_engine(self):
        assert self._run().stdout == b"      1 hijacked\n"

    def test_jit(self):
        opt = JashOptimizer()
        assert self._run(opt).stdout == b"      1 hijacked\n"
        assert opt.optimized_count == 0

    def test_jit_dynamic_name(self):
        opt = JashOptimizer()
        script = self.SCRIPT.replace("| tr A-Z", "| $t A-Z")
        result = self._run(opt, script="t=tr; " + script)
        assert result.stdout == b"      1 hijacked\n"
        assert opt.optimized_count == 0

    def test_jit_function_defined_later_is_seen(self):
        opt = JashOptimizer()
        script = ("cat /in.txt | tr A-Z a-z | sort | uniq -c | head -n 1; "
                  + self.SCRIPT)
        result = self._run(opt, script=script)
        assert result.stdout.endswith(b"      1 hijacked\n")
        assert opt.optimized_count == 1

    def test_pash_aot(self):
        opt = PashOptimizer()
        script = ("tr() { echo hijacked; }; "
                  "cat /in.txt | tr -cs A-Za-z '\\n' | sort | uniq -c")
        assert self._run(opt, script=script).stdout == b"      1 hijacked\n"
        assert opt.optimized_count == 0
        assert any("shell function" in e.reason for e in opt.events)

    def test_pash_aot_function_from_eval(self):
        opt = PashOptimizer()
        script = ("eval 'tr() { echo hijacked; }'; "
                  "cat /in.txt | tr A-Z a-z | sort | uniq -c")
        assert self._run(opt, script=script).stdout == b"      1 hijacked\n"

    def test_incremental(self):
        opt = IncrementalOptimizer()
        assert self._run(opt).stdout == b"      1 hijacked\n"
        assert all(e.decision == "interpreted" for e in opt.events)


class TestFunctionNesting:
    SCRIPT = ("n=0; f() { n=$((n+1)); if [ $n -lt %d ]; then f; fi; }; "
              "f; echo rc=$? n=$n")
    MESSAGE = (b"jash: f: maximum function nesting level exceeded (%d)\n"
               % FUNC_NEST_MAX)

    @pytest.mark.parametrize("optimizer", [None, JashOptimizer])
    def test_limit_is_reached(self, optimizer):
        result = Shell(laptop(), optimizer=optimizer and optimizer()).run(
            self.SCRIPT % FUNC_NEST_MAX)
        assert result.stdout == b"rc=0 n=%d\n" % FUNC_NEST_MAX
        assert result.stderr == b""

    @pytest.mark.parametrize("optimizer", [None, JashOptimizer])
    def test_limit_plus_one_fails_the_outermost_call(self, optimizer):
        result = Shell(laptop(), optimizer=optimizer and optimizer()).run(
            self.SCRIPT % (FUNC_NEST_MAX + 1))
        assert result.status == 0
        assert result.stdout == b"rc=1 n=%d\n" % FUNC_NEST_MAX
        assert result.stderr == self.MESSAGE

    def test_unbounded_recursion(self):
        result = Shell(laptop()).run("f() { f; }; f; echo after $?")
        assert result.stdout == b"after 1\n"
        assert result.stderr == self.MESSAGE

    def test_subshells_count_their_parents_calls(self):
        result = Shell(laptop()).run("f() { (f); }; f; echo after $?")
        assert result.stdout == b"after 1\n"
        assert result.stderr == self.MESSAGE

    def test_recursive_function_in_a_loop_body_compiles(self):
        # the value-flow pass follows each function once
        result = Shell(laptop(), optimizer=JashOptimizer()).run(
            "n=0; f() { n=$((n+1)); while [ $n -lt 5 ]; do f; done; }; "
            "f; echo $n")
        assert result.stdout == b"5\n"


class TestWalk:
    def test_pre_order(self):
        program = parse("a=1 b >o <<E\n$x\nE\nfor i in \"$y\"; do :; done")
        kinds = [type(n).__name__ for n in walk(program)]
        assert kinds == [
            "CommandList", "SimpleCommand", "Assign", "Word", "Lit",
            "Word", "Lit", "Redirect", "Word", "Lit", "_HeredocRedirect",
            "Word", "Lit", "Word", "DoubleQuoted", "Param", "Lit", "For",
            "Word",
            "DoubleQuoted", "Param", "CommandList", "SimpleCommand",
            "Word", "Lit"]

    def test_deep_nesting_needs_no_recursion(self):
        node = SimpleCommand(words=(Word((Lit("x"),)),))
        for _ in range(5000):
            node = BraceGroup(CommandList((ListItem(node),)))
        assert sum(1 for _ in walk(node)) == 5000 * 2 + 3
        part = Lit("x")
        for _ in range(5000):
            part = DoubleQuoted((part,))
        assert sum(1 for _ in walk(Word((part,)))) == 5002


class TestCompiledArithmetic:
    TOKENS = ["x", "y", "z", "0", "1", "2", "07", "08", "0x1f", "+", "-",
              "*", "/", "%", "(", ")", "?", ":", ",", "=", "+=", "-=",
              "<<", ">>", "<", "<=", "==", "!=", "&&", "||", "&", "|", "^",
              "!", "~", " "]

    @staticmethod
    def _outcome(expr, parser):
        env = {"x": "3", "y": "", "z": "-4"}

        def setter(name, value):
            env[name] = value
        try:
            if parser:
                tokens = arith.tokenize(expr)
                p = arith._Parser(tokens, env.get, setter)
                value = p.parse_comma() if tokens else 0
                if p.peek() is not None:
                    raise arith.ArithError(f"trailing tokens at {p.peek()!r}")
            else:
                value = arith.evaluate(expr, env.get, setter)
        except arith.ArithError as err:
            value = ("error", str(err))
        return value, env

    def test_same_values_errors_and_side_effects_as_the_parser(self):
        rng = random.Random(7)
        compiled = 0
        for _ in range(20000):
            expr = "".join(rng.choice(self.TOKENS)
                           for _ in range(rng.randint(0, 8)))
            assert self._outcome(expr, False) == self._outcome(expr, True), \
                expr
            compiled += arith._compile(expr) is not None
        assert compiled > 1000

    def test_negative_shift_is_an_arithmetic_error(self):
        with pytest.raises(arith.ArithError):
            arith.evaluate("1 << -1", {}.get)
        result = Shell(laptop()).run("echo $((1 >> -2)); echo after")
        assert result.stdout == b"after\n"
        assert b"negative shift count" in result.stderr
