"""AST node definitions for the POSIX shell (the libdash-equivalent IR).

Every node is a frozen-ish dataclass.  Words are sequences of *parts*;
quoting structure is preserved so that (a) the unparser can round-trip and
(b) expansion (repro.semantics.expansion) can honour quoting rules.

The node set follows the POSIX.1-2017 Shell Command Language grammar
(XCU 2.10), the same fragment libdash parses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

# ---------------------------------------------------------------------------
# Word parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    """Unquoted literal characters (may contain glob metacharacters)."""

    text: str


@dataclass(frozen=True)
class SingleQuoted:
    """A '...' segment: fully literal, never expanded."""

    text: str


@dataclass(frozen=True)
class Escaped:
    """A backslash-escaped character outside quotes (quoted literal)."""

    char: str


@dataclass(frozen=True)
class DoubleQuoted:
    """A "..." segment: parameter/command/arith expansion but no splitting."""

    parts: tuple["WordPart", ...]


#: Parameter expansion operators (POSIX 2.6.2).
PARAM_OPS = (
    "",  # plain $x / ${x}
    "length",  # ${#x}
    "-", ":-", "=", ":=", "?", ":?", "+", ":+",  # use/assign/error/alternate
    "%", "%%", "#", "##",  # pattern removal
)


@dataclass(frozen=True)
class Param:
    """Parameter expansion ``${name<op>word}``.

    ``op`` is one of PARAM_OPS; ``word`` is the operand word (None when the
    operator takes none, e.g. plain ``$x`` or ``${#x}``).
    """

    name: str
    op: str = ""
    word: Optional["Word"] = None

    def __post_init__(self) -> None:
        if self.op not in PARAM_OPS:
            raise ValueError(f"bad parameter op {self.op!r}")


@dataclass(frozen=True)
class CmdSub:
    """Command substitution ``$(...)`` or backticks.

    ``backtick`` records concrete syntax only and does not affect equality:
    ``$(date)`` and ``\\`date\\``` denote the same substitution.
    """

    command: "Command"
    backtick: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class ArithSub:
    """Arithmetic substitution ``$((...))``.

    The body is kept as word parts: POSIX expands parameters and command
    substitutions in the expression before evaluating it.
    """

    parts: tuple["WordPart", ...]


WordPart = Union[Lit, SingleQuoted, Escaped, DoubleQuoted, Param, CmdSub, ArithSub]


@dataclass(frozen=True)
class Word:
    """A shell word: a non-empty sequence of parts (empty for null word)."""

    parts: tuple[WordPart, ...] = ()

    def is_literal(self) -> bool:
        """True when the word expands to a single known string statically."""
        return all(isinstance(p, (Lit, SingleQuoted, Escaped)) for p in self.parts) and all(
            self._dq_literal(p) for p in self.parts
        )

    @staticmethod
    def _dq_literal(part: WordPart) -> bool:
        if isinstance(part, DoubleQuoted):
            return all(isinstance(q, (Lit, Escaped)) for q in part.parts)
        return True

    def literal_value(self) -> str:
        """The static string value; only valid when :meth:`is_literal`."""
        out: list[str] = []
        for part in self.parts:
            if isinstance(part, Lit):
                out.append(part.text)
            elif isinstance(part, SingleQuoted):
                out.append(part.text)
            elif isinstance(part, Escaped):
                out.append(part.char)
            elif isinstance(part, DoubleQuoted):
                for q in part.parts:
                    if isinstance(q, Lit):
                        out.append(q.text)
                    elif isinstance(q, Escaped):
                        out.append(q.char)
                    else:  # pragma: no cover - guarded by is_literal
                        raise ValueError("word is not literal")
            else:  # pragma: no cover - guarded by is_literal
                raise ValueError("word is not literal")
        return "".join(out)

    @cached_property
    def static_field(self) -> Optional[str]:
        """The one field this word expands to in every shell state, or
        None.  It is :meth:`literal_value` for a literal word that tilde
        expansion, field splitting and pathname expansion cannot change:
        no leading unquoted ``~``, no unquoted ``*`` or ``?``, and none
        of the expander's marker characters.  An unquoted ``[`` is
        allowed only in a word with no ``]``, ``/`` or ``\\``: it can then
        only match a file of exactly its own name (``[``, the test
        command, is the common case).  Computed once per (immutable)
        node."""
        if not self.parts or not self.is_literal():
            return None
        value = self.literal_value()
        bracket = False
        for part in self.parts:
            if isinstance(part, Lit):
                text = part.text
                if "*" in text or "?" in text:
                    return None
                bracket = bracket or "[" in text
        if bracket and ("]" in value or "/" in value or "\\" in value):
            return None
        first = self.parts[0]
        if isinstance(first, Lit) and first.text.startswith("~"):
            return None
        if not value and all(isinstance(p, Lit) for p in self.parts):
            return None  # an empty unquoted word expands to no field
        if any(c in value for c in _MARKERS):
            return None
        return value


#: characters the expander uses to mark quoting and field boundaries in
#: its marked strings (repro.semantics.patterns / expansion)
_MARKERS = "\x00\x01\x02\x03"


# ---------------------------------------------------------------------------
# Redirections
# ---------------------------------------------------------------------------

REDIR_OPS = ("<", ">", ">>", "<&", ">&", "<>", ">|", "<<", "<<-")


@dataclass(frozen=True)
class Redirect:
    """A redirection: ``[fd]op target``.

    For here-documents (``<<``/``<<-``) ``heredoc`` holds the body as a Word
    (a single Lit part when the delimiter was quoted, expansion parts
    otherwise) and ``target`` holds the delimiter.
    """

    op: str
    target: Word
    fd: Optional[int] = None
    heredoc: Optional[Word] = None

    def __post_init__(self) -> None:
        if self.op not in REDIR_OPS:
            raise ValueError(f"bad redirect op {self.op!r}")

    def default_fd(self) -> int:
        """The fd this redirection applies to when none was written."""
        if self.fd is not None:
            return self.fd
        return 0 if self.op in ("<", "<&", "<>", "<<", "<<-") else 1


@dataclass(frozen=True)
class Assign:
    """A variable assignment prefix ``name=word``."""

    name: str
    word: Word


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimpleCommand:
    assigns: tuple[Assign, ...] = ()
    words: tuple[Word, ...] = ()
    redirects: tuple[Redirect, ...] = ()


@dataclass(frozen=True)
class Pipeline:
    """``cmd | cmd | ...`` with optional leading ``!``."""

    commands: tuple["Command", ...]
    negated: bool = False


@dataclass(frozen=True)
class AndOr:
    """``left && right`` or ``left || right`` (left-associative chains)."""

    left: "Command"
    op: str  # "&&" or "||"
    right: "Command"

    def __post_init__(self) -> None:
        if self.op not in ("&&", "||"):
            raise ValueError(f"bad and-or op {self.op!r}")


@dataclass(frozen=True)
class ListItem:
    command: "Command"
    is_async: bool = False  # terminated by & rather than ; / newline


@dataclass(frozen=True)
class CommandList:
    """A sequence of and-or lists separated by ``;``, ``&``, or newlines."""

    items: tuple[ListItem, ...]


@dataclass(frozen=True)
class Subshell:
    body: "Command"
    redirects: tuple[Redirect, ...] = ()


@dataclass(frozen=True)
class BraceGroup:
    body: "Command"
    redirects: tuple[Redirect, ...] = ()


@dataclass(frozen=True)
class If:
    cond: "Command"
    then_body: "Command"
    elifs: tuple[tuple["Command", "Command"], ...] = ()
    else_body: Optional["Command"] = None
    redirects: tuple[Redirect, ...] = ()


@dataclass(frozen=True)
class While:
    cond: "Command"
    body: "Command"
    until: bool = False
    redirects: tuple[Redirect, ...] = ()


@dataclass(frozen=True)
class For:
    var: str
    words: Optional[tuple[Word, ...]]  # None means implicit `in "$@"`
    body: "Command"
    redirects: tuple[Redirect, ...] = ()


@dataclass(frozen=True)
class CaseItem:
    patterns: tuple[Word, ...]
    body: Optional["Command"]


@dataclass(frozen=True)
class Case:
    word: Word
    items: tuple[CaseItem, ...]
    redirects: tuple[Redirect, ...] = ()


@dataclass(frozen=True)
class FuncDef:
    name: str
    body: "Command"


Command = Union[
    SimpleCommand,
    Pipeline,
    AndOr,
    CommandList,
    Subshell,
    BraceGroup,
    If,
    While,
    For,
    Case,
    FuncDef,
]

COMPOUND_WITH_REDIRECTS = (Subshell, BraceGroup, If, While, For, Case)


def _if_children(node: If) -> list:
    out = [node.cond, node.then_body]
    for cond, body in node.elifs:
        out.append(cond)
        out.append(body)
    if node.else_body is not None:
        out.append(node.else_body)
    out.extend(node.redirects)
    return out


def _case_children(node: Case) -> list:
    out: list = [node.word]
    for item in node.items:
        out.extend(item.patterns)
        if item.body is not None:
            out.append(item.body)
    out.extend(node.redirects)
    return out


#: node type -> its AST children, in the order :func:`walk` visits them
_CHILDREN = {
    Word: lambda n: n.parts,
    DoubleQuoted: lambda n: n.parts,
    Param: lambda n: () if n.word is None else (n.word,),
    CmdSub: lambda n: (n.command,),
    ArithSub: lambda n: n.parts,
    Redirect: lambda n: ((n.target,) if n.heredoc is None
                         else (n.target, n.heredoc)),
    Assign: lambda n: (n.word,),
    SimpleCommand: lambda n: n.assigns + n.words + n.redirects,
    Pipeline: lambda n: n.commands,
    AndOr: lambda n: (n.left, n.right),
    CommandList: lambda n: [item.command for item in n.items],
    Subshell: lambda n: (n.body,) + n.redirects,
    BraceGroup: lambda n: (n.body,) + n.redirects,
    If: _if_children,
    While: lambda n: (n.cond, n.body) + n.redirects,
    For: lambda n: (n.words or ()) + (n.body,) + n.redirects,
    Case: _case_children,
    FuncDef: lambda n: (n.body,),
}


def _no_children(node: object) -> tuple:
    return ()


def _children_fn(cls: type):
    """The children function for ``cls``, resolved once per type (a
    subclass such as the parser's heredoc redirect walks like its base)."""
    for base, fn in list(_CHILDREN.items()):
        if issubclass(cls, base):
            break
    else:
        fn = _no_children
    _CHILDREN[cls] = fn
    return fn


def walk(node: object):
    """Yield ``node`` and every AST descendant (commands, words, parts)
    in pre-order.  Iterative, with an explicit stack: deep scripts cost
    no Python recursion and no generator chain per level."""
    stack = [node]
    pop = stack.pop
    push = stack.extend
    children = _CHILDREN
    while stack:
        node = pop()
        yield node
        fn = children.get(type(node))
        if fn is None:
            fn = _children_fn(type(node))
        kids = fn(node)
        if kids:
            push(reversed(kids))
