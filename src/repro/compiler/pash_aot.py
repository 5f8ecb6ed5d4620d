"""The PaSh-style ahead-of-time compiler (S7, the paper's baseline E2).

Reproduces the three characteristics the paper ascribes to PaSh:

1. annotation-driven rewriting of pipelines into parallel dataflow
   graphs;
2. **ahead-of-time** operation — it sees the *unexpanded* AST, so any
   region containing ``$FILES``-style dynamic words is skipped ("an
   ahead-of-time compiler has no knowledge of the input files ...
   neither PaSh nor POSH optimize this script", §3.2);
3. **resource obliviousness** — a fixed parallelization width and a
   materializing split that "assumes a machine with high storage
   throughput and lots of available storage space for buffering".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..annotations.library import DEFAULT_LIBRARY
from ..annotations.model import SpecLibrary
from ..dfg.from_ast import extract_region
from ..distributed.retry import RetryPolicy
from ..parser.ast_nodes import Command, FuncDef, Pipeline, SimpleCommand
from ..parser.unparse import unparse
from .driver import execute_plan, fs_file_sizes
from .parallel import parallelize
from .transactional import (
    DEFAULT_REGION_POLICY,
    RecoveryReport,
    execute_plan_transactional,
)


@dataclass
class AotEvent:
    node_text: str
    decision: str  # "optimized" | "degraded" | "skipped" | "interpreted"
    reason: str
    plan_description: str = ""
    #: staged attempts rolled back on a suspected fault (transactional)
    fault_failures: int = 0


@dataclass
class PashConfig:
    width: int = 8
    #: split modes in preference order; materialize first (batch PaSh)
    modes: tuple[str, ...] = ("materialize", "rr")
    library: SpecLibrary = field(default_factory=lambda: DEFAULT_LIBRARY)
    #: execute plans transactionally and fall back to interpretation when
    #: retries are exhausted ("PaSh-AOT-with-fallback").  Unlike Jash,
    #: the resource-oblivious AOT compiler has no width ladder: it goes
    #: straight from its fixed width to the interpreter.
    transactional: bool = False
    retry: RetryPolicy = DEFAULT_REGION_POLICY
    #: consult the whole-script analyzer (repro.analysis, S16) during the
    #: AOT pass: ``unsafe`` certificates reject a node before region
    #: extraction is even attempted (the verdicts coincide — an impure
    #: expansion always involves dynamic words, which AOT extraction
    #: rejects too — so decisions are unchanged; the certificate just
    #: answers first and records why)
    static_analysis: bool = True
    #: additionally run the S20 abstract interpreter during the AOT
    #: pass: provably-dead nodes are rejected before region extraction
    #: ("skipped — provably unreachable").  Decisions are identical on
    #: or off when the script has no dead code (test-enforced); with
    #: dead code, only the dead regions change — they would never have
    #: executed, so output bytes are unchanged either way.
    value_flow: bool = True


class PashOptimizer:
    """AOT compiler pass + interpreter hook.

    ``compile_program`` runs before execution (the preprocessing step a
    real PaSh performs on the script text): it records which AST nodes
    are transformable.  At run time ``try_execute`` only fires for those
    pre-approved nodes — inner pipeline stages executing in subshells
    are *not* re-analyzed, because an AOT system never sees them as
    standalone commands."""

    def __init__(self, config: Optional[PashConfig] = None):
        self.config = config or PashConfig()
        self.events: list[AotEvent] = []
        self._approved: set[int] = set()
        self._compiled = False
        self._analysis = None
        self.cert_hits = 0

    def compile_program(self, program: Command, tracer=None,
                        now: float = 0.0, metrics=None, fs=None,
                        cwd: str = "/") -> None:
        """The ahead-of-time pass: walk the static AST and mark the
        statement-level pipelines/commands whose regions extract.
        Static SafetyCertificates (S16) are checked first; only nodes
        they do not cover go through region extraction.  With
        ``value_flow`` the S20 dead-branch facts reject provably
        unreachable nodes — a dead node carries *no* safety certificate,
        so without the explicit check it would fall through to region
        extraction and could be approved."""
        from ..parser.ast_nodes import walk

        self._compiled = True
        certs: dict[int, object] = {}
        dead: frozenset = frozenset()
        if self.config.static_analysis:
            from ..analysis import analyze_program

            self._analysis = analyze_program(
                program, self.config.library,
                value_flow=self.config.value_flow, fs=fs, cwd=cwd)
            certs = self._analysis.certificates
            dead = self._analysis.dead_nodes()
            if tracer is not None:
                tracer.instant("analysis", "analysis.run", now,
                               engine="pash", **self._analysis.stats())
                if self._analysis.absint is not None:
                    tracer.span("analysis", "analysis.absint", now, now,
                                engine="pash",
                                **self._analysis.absint.stats())
        inside_pipeline: set[int] = set()
        functions: set[str] = set()
        for node in walk(program):
            if isinstance(node, Pipeline):
                for stage in node.commands:
                    inside_pipeline.add(id(stage))
            elif isinstance(node, FuncDef):
                functions.add(node.name)
        for node in walk(program):
            if isinstance(node, Pipeline) or (
                isinstance(node, SimpleCommand)
                and id(node) not in inside_pipeline
            ):
                if id(node) in dead:
                    self.events.append(AotEvent(
                        unparse(node), "skipped",
                        "provably unreachable (S20 dead-branch fact)",
                    ))
                    continue
                cert = certs.get(id(node))
                if cert is not None and not cert.safe:
                    self.cert_hits += 1
                    self.events.append(AotEvent(
                        unparse(node), "skipped",
                        f"static certificate: {cert.reason} [{cert.digest}]",
                    ))
                    continue
                if cert is not None:
                    self.cert_hits += 1
                region = extract_region(node, self.config.library)
                if region is None:
                    self.events.append(AotEvent(
                        unparse(node), "skipped",
                        "region not extractable ahead-of-time (dynamic "
                        "words, unknown commands, or unsupported redirects)",
                    ))
                elif _shadowed(region, functions):
                    self.events.append(AotEvent(
                        unparse(node), "skipped",
                        "a stage names a shell function defined in the "
                        "script"))
                elif not region.parallelizable:
                    self.events.append(AotEvent(unparse(node), "skipped",
                                                "no parallelizable stage"))
                else:
                    self._approved.add(id(node))

    def try_execute(self, interp, proc, node: Command):
        if self._compiled and id(node) not in self._approved:
            return None
            yield  # pragma: no cover - keep generator shape
        text = unparse(node)
        region = extract_region(node, self.config.library)
        if region is not None and _shadowed(region, interp.state.functions):
            return None  # e.g. a function defined by eval at run time
        if region is None:
            if not self._compiled:
                self.events.append(AotEvent(
                    text, "skipped",
                    "region not extractable ahead-of-time "
                    "(dynamic words, unknown commands, or unsupported redirects)",
                ))
            return None
        if not region.parallelizable:
            return None
        file_sizes = fs_file_sizes(proc.fs, interp.state.cwd)
        plan = None
        for mode in self.config.modes:
            plan = parallelize(region, self.config.width, mode,
                               file_sizes=file_sizes)
            if plan is not None:
                break
        if plan is None:
            self.events.append(AotEvent(text, "skipped",
                                        "no applicable split mode"))
            return None
        kernel = proc.kernel
        tracer = getattr(kernel, "tracer", None)
        metrics = getattr(kernel, "metrics", None)
        if metrics is not None:
            metrics.counter("aot.regions").inc()
        exec_start = kernel.now
        snapshot = tracer.region_begin() if tracer is not None else None
        if not self.config.transactional:
            status = yield from execute_plan(plan, proc, cwd=interp.state.cwd)
            if tracer is not None:
                tracer.region_end(
                    "aot", "aot.region", exec_start, kernel.now, snapshot,
                    proc, command=text, decision="optimized",
                    width=self.config.width, mode=plan.mode, status=status)
            self.events.append(AotEvent(text, "optimized",
                                        f"fixed width {self.config.width}",
                                        plan.description))
            return status
        report = RecoveryReport()
        status = yield from execute_plan_transactional(
            plan, proc, cwd=interp.state.cwd,
            policy=self.config.retry, report=report)
        if report.gave_up:
            if metrics is not None:
                metrics.counter("aot.fallbacks").inc()
            if tracer is not None:
                tracer.instant("aot", "aot.fallback", kernel.now, proc,
                               command=text, attempts=report.attempts,
                               fault_failures=report.fault_failures)
                tracer.region_end(
                    "aot", "aot.region", exec_start, kernel.now, snapshot,
                    proc, command=text, decision="interpreted",
                    width=self.config.width,
                    fault_failures=report.fault_failures)
            self.events.append(AotEvent(
                text, "interpreted",
                f"fault fallback to interpreter after {report.attempts} "
                "attempts", plan.description,
                fault_failures=report.fault_failures))
            return None
        if tracer is not None:
            tracer.region_end(
                "aot", "aot.region", exec_start, kernel.now, snapshot,
                proc, command=text,
                decision="degraded" if report.fault_failures else "optimized",
                width=self.config.width, mode=plan.mode, status=status,
                fault_failures=report.fault_failures)
        self.events.append(AotEvent(
            text,
            "degraded" if report.fault_failures else "optimized",
            f"fixed width {self.config.width}"
            + (f", {report.fault_failures} fault-suspected attempts "
               "rolled back" if report.fault_failures else ""),
            plan.description, fault_failures=report.fault_failures))
        return status

    # convenience for benchmarks
    @property
    def optimized_count(self) -> int:
        return sum(1 for e in self.events
                   if e.decision in ("optimized", "degraded"))


def _shadowed(region, functions) -> bool:
    """Does a stage name a shell function?  The shell would call the
    function, not the library command the region was built from."""
    return any(stage.argv[0] in functions for stage in region.stages)
