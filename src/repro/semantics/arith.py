"""POSIX shell arithmetic ($((...))) — XCU 2.6.4.

Signed integer arithmetic with the C operator set, assignment, and the
ternary conditional.  Variables resolve through get/set callbacks so the
evaluator is shared by the interpreter and the symbolic analyses.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, Optional


class ArithError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"""
    \s*(
        0[xX][0-9a-fA-F]+ | \d+              # numbers
      | [A-Za-z_][A-Za-z0-9_]*               # names
      | \<\<\= | \>\>\= | \<\< | \>\> | \<\= | \>\= | \=\= | \!\=
      | \&\& | \|\| | \+\= | \-\= | \*\= | /\= | %\= | \&\= | \^\= | \|\=
      | [-+*/%()!~<>=&^|?:,]
    )""",
    re.VERBOSE,
)


@lru_cache(maxsize=1024)
def tokenize(expr: str) -> tuple[str, ...]:
    """The tokens of ``expr``; each distinct text is tokenized once
    (loops evaluate the same few expressions over and over)."""
    tokens: list[str] = []
    pos = 0
    while pos < len(expr):
        m = _TOKEN_RE.match(expr, pos)
        if m is None:
            rest = expr[pos:].strip()
            if not rest:
                break
            raise ArithError(f"bad arithmetic token at {rest[:10]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tuple(tokens)


_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "^=", "|="}

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class _Parser:
    """Precedence-climbing parser, evaluating as it goes."""

    def __init__(self, tokens: tuple[str, ...], get: Callable[[str], str],
                 set_: Optional[Callable[[str, str], None]]):
        self.tokens = tokens
        self.pos = 0
        self.get = get
        self.set = set_

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            raise ArithError(f"expected {tok!r}, found {self.peek()!r}")
        self.take()

    # expression levels, lowest first
    def parse_comma(self) -> int:
        value = self.parse_assign()
        while self.peek() == ",":
            self.take()
            value = self.parse_assign()
        return value

    def parse_assign(self) -> int:
        # lookahead: NAME assign-op expr
        if (
            self.pos + 1 < len(self.tokens)
            and _NAME_RE.match(self.tokens[self.pos])
            and self.tokens[self.pos + 1] in _ASSIGN_OPS
        ):
            name = self.take()
            op = self.take()
            rhs = self.parse_assign()
            if op != "=":
                current = self._value_of(name)
                rhs = _apply_binop(op[:-1], current, rhs)
            if self.set is None:
                raise ArithError(f"assignment to {name} not allowed here")
            self.set(name, str(rhs))
            return rhs
        return self.parse_ternary()

    def parse_ternary(self) -> int:
        cond = self.parse_binary(0)
        if self.peek() == "?":
            self.take()
            # evaluate both branches (side effects in untaken branch are a
            # documented divergence; our corpus has none)
            then = self.parse_assign()
            self.expect(":")
            other = self.parse_ternary()
            return then if cond else other
        return cond

    _LEVELS = [
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    ]

    def parse_binary(self, level: int) -> int:
        if level >= len(self._LEVELS):
            return self.parse_unary()
        ops = self._LEVELS[level]
        value = self.parse_binary(level + 1)
        while self.peek() in ops:
            op = self.take()
            rhs = self.parse_binary(level + 1)
            value = _apply_binop(op, value, rhs)
        return value

    def parse_unary(self) -> int:
        tok = self.peek()
        if tok == "-":
            self.take()
            return -self.parse_unary()
        if tok == "+":
            self.take()
            return self.parse_unary()
        if tok == "!":
            self.take()
            return 0 if self.parse_unary() else 1
        if tok == "~":
            self.take()
            return ~self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> int:
        tok = self.peek()
        if tok is None:
            raise ArithError("unexpected end of expression")
        if tok == "(":
            self.take()
            value = self.parse_comma()
            self.expect(")")
            return value
        self.take()
        if tok[0].isdigit():
            return _parse_int(tok)
        if _NAME_RE.match(tok):
            return self._value_of(tok)
        raise ArithError(f"unexpected token {tok!r}")

    def _value_of(self, name: str) -> int:
        return _value_of(self.get, name)


def _value_of(get: Callable[[str], str], name: str) -> int:
    raw = get(name)
    if raw is None or raw == "":
        return 0
    try:
        return _parse_int(raw.strip())
    except ArithError:
        # POSIX allows recursive evaluation; one level is plenty here
        raise ArithError(f"non-numeric value for {name}: {raw!r}")


class _Compiler(_Parser):
    """The grammar of :class:`_Parser` over the same token stream,
    building a closure ``fn(get, set_) -> int`` instead of evaluating.
    The closure evaluates operands, reads and assignments in the
    parser's order and raises the same run-time errors; any parse error
    makes compilation fail, so the parser itself reports it (after the
    same side effects)."""

    def __init__(self, tokens: tuple[str, ...]):
        super().__init__(tokens, None, None)

    def comma(self):
        parts = [self.assign()]
        while self.peek() == ",":
            self.take()
            parts.append(self.assign())
        if len(parts) == 1:
            return parts[0]

        def run(get, set_):
            for part in parts:
                value = part(get, set_)
            return value
        return run

    def assign(self):
        if (
            self.pos + 1 < len(self.tokens)
            and _NAME_RE.match(self.tokens[self.pos])
            and self.tokens[self.pos + 1] in _ASSIGN_OPS
        ):
            name = self.take()
            op = self.take()
            rhs = self.assign()

            def run(get, set_):
                value = rhs(get, set_)
                if op != "=":
                    value = _apply_binop(op[:-1], _value_of(get, name), value)
                if set_ is None:
                    raise ArithError(f"assignment to {name} not allowed here")
                set_(name, str(value))
                return value
            return run
        return self.ternary()

    def ternary(self):
        cond = self.binary(0)
        if self.peek() != "?":
            return cond
        self.take()
        then = self.assign()
        self.expect(":")
        other = self.ternary()

        def run(get, set_):
            # both branches run, as in the parser
            c, t, o = cond(get, set_), then(get, set_), other(get, set_)
            return t if c else o
        return run

    def binary(self, level: int):
        if level >= len(_Parser._LEVELS):
            return self.unary()
        ops = _Parser._LEVELS[level]
        first = self.binary(level + 1)
        rest = []
        while self.peek() in ops:
            op = self.take()
            rest.append((op, self.binary(level + 1)))
        if not rest:
            return first

        def run(get, set_):
            value = first(get, set_)
            for op, rhs in rest:
                value = _apply_binop(op, value, rhs(get, set_))
            return value
        return run

    def unary(self):
        tok = self.peek()
        if tok in _UNARY:
            self.take()
            inner = self.unary()
            fn = _UNARY[tok]
            return lambda get, set_: fn(inner(get, set_))
        return self.primary()

    def primary(self):
        tok = self.peek()
        if tok is None:
            raise ArithError("unexpected end of expression")
        self.take()
        if tok == "(":
            inner = self.comma()
            self.expect(")")
            return inner
        if tok[0].isdigit():
            value = _parse_int(tok)
            return lambda get, set_: value
        if _NAME_RE.match(tok):
            return lambda get, set_: _value_of(get, tok)
        raise ArithError(f"unexpected token {tok!r}")


_UNARY = {
    "-": lambda v: -v,
    "+": lambda v: v,
    "!": lambda v: 0 if v else 1,
    "~": lambda v: ~v,
}


@lru_cache(maxsize=1024)
def _compile(expr: str):
    """The closure for ``expr``; None when it does not parse."""
    try:
        tokens = tokenize(expr)
        if not tokens:
            return lambda get, set_: 0
        compiler = _Compiler(tokens)
        fn = compiler.comma()
    except ArithError:
        return None
    return fn if compiler.peek() is None else None


def _parse_int(text: str) -> int:
    try:
        if text.lower().startswith("0x"):
            return int(text, 16)
        if text.startswith("0") and len(text) > 1 and text.isdigit():
            return int(text, 8)
        return int(text)
    except ValueError:
        raise ArithError(f"bad number {text!r}") from None


def _apply_binop(op: str, a: int, b: int) -> int:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise ArithError("division by zero")
        return int(a / b)  # C semantics: truncate toward zero
    if op == "%":
        if b == 0:
            raise ArithError("division by zero")
        return a - int(a / b) * b
    if op in ("<<", ">>"):
        if b < 0:
            raise ArithError("negative shift count")
        return a << b if op == "<<" else a >> b
    if op == "<":
        return int(a < b)
    if op == "<=":
        return int(a <= b)
    if op == ">":
        return int(a > b)
    if op == ">=":
        return int(a >= b)
    if op == "==":
        return int(a == b)
    if op == "!=":
        return int(a != b)
    if op == "&":
        return a & b
    if op == "^":
        return a ^ b
    if op == "|":
        return a | b
    if op == "&&":
        return int(bool(a) and bool(b))
    if op == "||":
        return int(bool(a) or bool(b))
    raise ArithError(f"unknown operator {op!r}")


def evaluate(expr: str, get: Callable[[str], str],
             set_: Optional[Callable[[str, str], None]] = None) -> int:
    """Evaluate a shell arithmetic expression.

    ``get(name)`` returns a variable's string value ('' / None for unset);
    ``set_(name, value)`` performs assignments (None forbids them, which
    the purity analysis uses).  Each distinct text is compiled once; a
    text that does not parse goes through the parser, which reports the
    error where it meets it.
    """
    fn = _compile(expr)
    if fn is not None:
        return fn(get, set_)
    tokens = tokenize(expr)
    if not tokens:
        return 0
    parser = _Parser(tokens, get, set_)
    value = parser.parse_comma()
    if parser.peek() is not None:
        raise ArithError(f"trailing tokens at {parser.peek()!r}")
    return value


def has_side_effects(expr: str) -> bool:
    """Conservative syntactic check: does the expression assign?"""
    try:
        tokens = tokenize(expr)
    except ArithError:
        return True
    return any(tok in _ASSIGN_OPS for tok in tokens)
