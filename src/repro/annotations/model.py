"""The command annotation model (E2: PaSh & POSH).

"PaSh and POSH both proposed annotation languages as a high-level
specification interface for dealing with the challenges of unknown
command behavior (B1). Specifications are written once for each command
... They can be aggregated in specification libraries which can be shared
between users."

A :class:`CommandSpec` classifies every *invocation* (name + argv) of a
command, because flags change behaviour: ``grep -c`` aggregates with SUM
where plain ``grep`` is stateless; ``head`` is never parallelizable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional


class ParClass(enum.Enum):
    """Parallelizability classes (the PaSh taxonomy)."""

    STATELESS = "stateless"
    """Line-independent pure function of each input line: any split of the
    input, processed independently, concatenated in order, is equivalent."""

    PARALLELIZABLE_PURE = "parallelizable_pure"
    """Pure, but requires a specific aggregator to merge partial outputs
    (e.g. sort -> sort -m, wc -l -> sum)."""

    NON_PARALLELIZABLE = "non_parallelizable"
    """Must see its entire input in order (head, tac, stateful sed)."""

    SIDE_EFFECTFUL = "side_effectful"
    """Writes state outside its declared outputs (rm, mv, tee to files);
    excluded from dataflow regions entirely."""


class AggKind(enum.Enum):
    CONCAT = "concat"          # ordered concatenation of partial outputs
    SORT_MERGE = "sort_merge"  # sort -m with the original sort's flags
    SUM = "sum"                # numeric columns added (wc, grep -c)
    RERUN = "rerun"            # re-apply the command to the concatenation
    CUSTOM = "custom"          # named custom merge function


@dataclass(frozen=True)
class Aggregator:
    kind: AggKind
    argv: tuple[str, ...] = ()  # e.g. ("sort", "-m", "-rn") or ("uniq",)

    @staticmethod
    def concat() -> "Aggregator":
        return Aggregator(AggKind.CONCAT)


@dataclass(frozen=True)
class InstanceSpec:
    """The specification of one concrete invocation."""

    name: str
    par_class: ParClass
    aggregator: Optional[Aggregator] = None
    #: operand indices (into argv-after-name) that are input files
    input_operands: tuple[int, ...] = ()
    reads_stdin: bool = True
    writes_stdout: bool = True
    #: output files (e.g. sort -o FILE, tee FILE)
    output_files: tuple[str, ...] = ()
    #: pure = touches only declared inputs/outputs (POSH offloading and
    #: the incremental engine require this)
    pure: bool = True
    #: rough output-size/input-size ratio for the cost model
    selectivity: float = 1.0
    #: does the command consume its whole input before emitting output?
    #: (sort does; grep doesn't) — drives pipeline-overlap cost modelling
    blocking: bool = False
    #: does the command re-tokenize its input into one token per line
    #: (tr ... '\n')?  Downstream stages then see token-sized lines, which
    #: matters for n·log n cost estimation.
    tokenizing: bool = False
    #: does selectivity shrink *line length* rather than line count
    #: (cut selects columns: every line survives, shorter)?  Drives the
    #: cost model's per-line accounting downstream.
    shrinks_lines: bool = False

    @property
    def parallelizable(self) -> bool:
        return self.par_class in (ParClass.STATELESS, ParClass.PARALLELIZABLE_PURE)


ClassifyFn = Callable[[list[str]], Optional[InstanceSpec]]


@dataclass
class CommandSpec:
    """A command's full annotation: classify(argv) -> InstanceSpec.

    ``rules`` are tried in order; the first one returning an InstanceSpec
    wins.  A final default rule should always match.

    ``fixed_class`` declares that every invocation has this class,
    whatever its argv (the rules must agree; a test checks it).  It lets
    the JIT classify a stage from its literal command name alone.
    """

    name: str
    rules: list[ClassifyFn] = field(default_factory=list)
    fixed_class: Optional[ParClass] = None

    def classify(self, argv: list[str]) -> Optional[InstanceSpec]:
        for rule in self.rules:
            spec = rule(list(argv))
            if spec is not None:
                return spec
        return None


class SpecLibrary:
    """A shareable library of command specifications."""

    def __init__(self) -> None:
        self._specs: dict[str, CommandSpec] = {}
        self._read_only: Optional[frozenset[str]] = None

    def register(self, spec: CommandSpec) -> None:
        self._specs[spec.name] = spec
        self._read_only = None

    def get(self, name: str) -> Optional[CommandSpec]:
        return self._specs.get(name)

    def classify(self, name: str, argv: list[str]) -> Optional[InstanceSpec]:
        """Spec for an invocation; None when the command is unknown —
        unknown commands make a region non-transformable (B1)."""
        spec = self._specs.get(name)
        if spec is None:
            return None
        return spec.classify(argv)

    def known_commands(self) -> list[str]:
        return sorted(self._specs)

    def pure_read_only_commands(self) -> frozenset[str]:
        """Commands that never write anything (usable in pure command
        substitutions, see repro.semantics.purity).  Computed once per
        set of registered specs."""
        if self._read_only is None:
            out = set()
            for name, spec in self._specs.items():
                probe = spec.classify([])
                if probe is not None and probe.pure and not probe.output_files:
                    out.add(name)
            self._read_only = frozenset(out)
        return self._read_only

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)
