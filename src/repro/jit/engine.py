"""Jash — 'Just a shell' (S9/E3): the paper's proposal.

"Jash inspects each shell command as it comes in to identify candidates
for rewriting. Since Jash works dynamically, it can take into account
current system conditions to decide whether to even try to apply
optimizations."

The engine is an interpreter hook (see
:meth:`repro.semantics.interp.Interpreter.exec`): for each pipeline or
simple command it

1. checks that expanding the words is **side-effect free** (the purity
   analysis over the Smoosh-style semantics — soundness);
2. expands words early with full runtime state (B2 made tractable);
3. classifies the stages against the annotation library (E2) into a
   dataflow region;
4. probes the machine (file sizes, disk burst credits, load);
5. asks the resource-aware optimizer for a plan, with a no-regression
   objective; and
6. either executes the transformed dataflow graph or *returns to the
   interpreter* ("switching back and forth between interpretation and
   optimization").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from ..annotations.library import DEFAULT_LIBRARY
from ..annotations.model import SpecLibrary
from ..compiler.driver import execute_plan, fs_file_sizes
from ..compiler.optimizer import Decision, OptimizerConfig, ResourceAwareOptimizer
from ..compiler.parallel import parallelize
from ..compiler.transactional import (
    DEFAULT_REGION_POLICY,
    RecoveryReport,
    execute_plan_transactional,
)
from ..distributed.retry import RetryPolicy
from ..parser.ast_nodes import Command, Pipeline, SimpleCommand, walk
from ..parser.unparse import unparse
from .frontend import (
    NO_PARALLEL_STAGE,
    NOT_CLASSIFIABLE,
    NOT_FILE_BACKED,
    expand_region,
    pipeline_stages,
    purity_reason,
    stage_names,
    static_verdict,
)
from .runtime_info import measure_input, probe_machine, region_input_files


@dataclass
class JitEvent:
    node_text: str
    decision: str  # "optimized" | "degraded" | "interpreted"
    reason: str
    plan_description: str = ""
    estimate_s: float = 0.0
    baseline_s: float = 0.0
    compile_overhead_s: float = 0.0
    #: fault-suspected attempts rolled back while executing this node
    fault_failures: int = 0
    #: the degradation trail under faults, e.g. "8 -> 4 -> interpreter"
    degraded: str = ""


class NodeInfo(NamedTuple):
    """What the JIT needs of one candidate node that follows from the
    AST alone, computed once per node instead of once per execution."""

    #: the flat-pipeline stages (None: not a flat pipeline)
    stages: Optional[list]
    #: the unparsed node, as events and trace records name it
    text: str
    #: each stage's literal command name (None where it is dynamic)
    names: tuple
    #: the skip reason early expansion would give, when the AST fixes it
    verdict: Optional[str] = None


@dataclass
class JashConfig:
    library: SpecLibrary = field(default_factory=lambda: DEFAULT_LIBRARY)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    #: CPU seconds for the cheap pre-screen (purity walk + expansion +
    #: stat): charged on every candidate node
    probe_cost_s: float = 2e-5
    #: reduced pre-screen cost when a static SafetyCertificate already
    #: answered the purity question at compile time (expansion + stat
    #: remain; the walk is gone) — the compile-once dividend
    cert_probe_cost_s: float = 4e-6
    #: run the whole-script static analyzer (repro.analysis, S16) in
    #: ``compile_program`` and consult its certificates before the
    #: runtime purity walk; ``False`` restores pure-JIT behaviour
    #: (the ablation the analysis benchmark measures)
    static_analysis: bool = True
    #: CPU seconds for a full compilation (region lowering + cost-model
    #: search): charged only once the pre-screen says it may pay off —
    #: "Jash can determine in the moment whether it is even worth trying
    #: to optimize on small inputs" (§3.2)
    compile_cost_s: float = 0.0008
    #: trust read-only command substitutions during purity analysis
    allow_pure_cmdsub: bool = False
    #: execute plans transactionally (staged output, rollback + retry on
    #: injected faults, width degradation).  A no-op unless a FaultPlan
    #: is installed on the kernel.
    transactional: bool = True
    #: per-width retry policy for transactional execution
    retry: RetryPolicy = DEFAULT_REGION_POLICY
    #: run the S20 abstract interpreter (repro.analysis.absint) inside
    #: ``compile_program``: dead regions get no certificate (they never
    #: run; a wrong fact just means a cert miss and the identical
    #: runtime decision) and loops/regions gain CostCertificates.
    #: Decisions are bit-identical on or off when no dead code exists
    #: (test-enforced, the same discipline as ``static_analysis``).
    value_flow: bool = True
    #: consult static CostCertificate volume bounds (the analyzer must
    #: have seen the filesystem) as the cost model's input-size fallback
    #: when a region's input is not file-backed.  Off by default: any
    #: flag that can change a decision ships dark.
    static_cost_hints: bool = False


class JashOptimizer:
    """The JIT engine installed as the interpreter's optimizer hook."""

    def __init__(self, config: Optional[JashConfig] = None):
        self.config = config or JashConfig()
        self.optimizer = ResourceAwareOptimizer(self.config.optimizer)
        self.events: list[JitEvent] = []
        self._pure_commands = self.config.library.pure_read_only_commands()
        #: static analysis state (repro.analysis): certificates keyed by
        #: AST node identity, filled by :meth:`compile_program`
        self._analysis = None
        self._certs: dict[int, object] = {}
        #: S20 facts from compile_program: provably-dead node ids and
        #: quantitative CostCertificates, keyed like the safety certs
        self._dead: set[int] = set()
        self._cost_certs: dict[int, object] = {}
        self._programs: list = []  # keep analyzed ASTs alive (id-keyed certs)
        #: NodeInfo per candidate node of the compiled programs, keyed
        #: like the certificates; nodes parsed at run time (eval, trap)
        #: are never stored, so the table never outgrows the scripts
        self._nodes: dict[int, NodeInfo] = {}
        self.cert_hits = 0
        self.cert_misses = 0
        #: early expansions performed (a witness: a static verdict or a
        #: function-shadowed stage skips without expanding)
        self.early_expansions = 0

    # -- the compile-once pass ------------------------------------------------

    def compile_program(self, program: Command, tracer=None, now: float = 0.0,
                        metrics=None, fs=None, cwd: str = "/"):
        """Run the S16 whole-script analyzer and cache its certificates,
        then fill the per-node table (:class:`NodeInfo`).

        Called by :class:`repro.shell.Shell` before execution (the same
        hook the AOT compiler uses).  With ``static_analysis=False``
        only the table is filled and the engine decides exactly as the
        pure JIT.
        ``metrics``/``fs`` are optional: a metrics registry receives the
        ``analysis.absint.*`` counters, and a filesystem snapshot
        grounds the S20 volume domain.
        """
        self._programs.append(program)
        if self.config.static_analysis:
            self._analyze(program, tracer, now, metrics, fs, cwd)
        for sub in walk(program):
            if isinstance(sub, (Pipeline, SimpleCommand)) \
                    and id(sub) not in self._nodes:
                info = self._node_info(sub)
                if info.stages is not None:
                    info = info._replace(verdict=static_verdict(
                        info.stages, self.config.library))
                self._nodes[id(sub)] = info

    def _analyze(self, program: Command, tracer, now: float, metrics,
                 fs, cwd: str) -> None:
        from ..analysis import analyze_program

        result = analyze_program(
            program, self.config.library,
            allow_pure_cmdsub=self.config.allow_pure_cmdsub,
            pure_commands=self._pure_commands,
            value_flow=self.config.value_flow, fs=fs, cwd=cwd)
        self._analysis = result
        self._certs.update(result.certificates)
        if result.absint is not None:
            self._dead |= result.absint.dead
            self._cost_certs.update(result.absint.cost_certificates)
        if tracer is not None:
            tracer.instant("analysis", "analysis.run", now,
                           **result.stats())
            if result.absint is not None:
                tracer.span("analysis", "analysis.absint", now, now,
                            **result.absint.stats())
        if metrics is not None and result.absint is not None:
            stats = result.absint.stats()
            metrics.counter("analysis.absint.nodes").inc(
                stats["absint_nodes"])
            metrics.counter("analysis.absint.widenings").inc(
                stats["absint_widenings"])
            metrics.counter("analysis.absint.dead_branches").inc(
                stats["dead_branches"])
            metrics.counter("analysis.absint.certs").inc(
                stats["cost_certs"])

    def _node_info(self, node: Command) -> NodeInfo:
        stages = pipeline_stages(node)
        cert = self._certs.get(id(node))
        text = cert.node_text if cert is not None else unparse(node)
        names = stage_names(stages) if stages is not None else ()
        return NodeInfo(stages, text, names)

    # -- the hook -------------------------------------------------------------

    def try_execute(self, interp, proc, node: Command):
        kernel = proc.kernel
        tracer = getattr(kernel, "tracer", None)
        metrics = getattr(kernel, "metrics", None)
        info = self._nodes.get(id(node))
        if info is None:  # parsed at run time: today's path, not stored
            info = self._node_info(node)
        text = info.text
        stages_ast = info.stages
        if stages_ast is None:
            self._skip(text, "not a flat pipeline of simple commands",
                       tracer=tracer, proc=proc)
            return None
            yield  # pragma: no cover - generator shape

        # 1. soundness: early expansion must be side-effect free.  The
        # static certificate answers this without a runtime walk; only a
        # miss (a node the compile-once pass never saw, e.g. parsed at
        # run time by trap/eval) falls back to the purity analysis.
        probe_cost = self.config.probe_cost_s
        cert = self._certs.get(id(node))
        if cert is not None:
            self.cert_hits += 1
            if metrics is not None:
                metrics.counter("jit.cert_hits").inc()
            if tracer is not None:
                tracer.instant("jit", "jit.cert_hit", kernel.now, proc,
                               command=text, verdict=cert.verdict)
            if not cert.safe:
                self._skip(text, f"unsafe early expansion: {cert.reason} "
                                 f"[static certificate {cert.digest}]",
                           tracer=tracer, proc=proc)
                return None
            probe_cost = self.config.cert_probe_cost_s
        else:
            if self._analysis is not None:
                self.cert_misses += 1
                if metrics is not None:
                    metrics.counter("jit.cert_misses").inc()
                if tracer is not None:
                    tracer.instant("jit", "jit.cert_miss", kernel.now, proc,
                                   command=text)
            impure_reason = purity_reason(stages_ast,
                                          self.config.allow_pure_cmdsub,
                                          self._pure_commands)
            if impure_reason is not None:
                self._skip(text, f"unsafe early expansion: {impure_reason}",
                           tracer=tracer, proc=proc)
                return None

        # S20 static volume hint: when the abstract interpreter bounded
        # this region's input volume below the optimization threshold,
        # the dynamic probe can only confirm what is already known —
        # skip before paying for expansion.  Gated behind
        # static_cost_hints because the bound comes from the
        # compile-time filesystem snapshot and can go stale.
        if self.config.static_cost_hints:
            ccert = self._cost_certs.get(id(node))
            if (ccert is not None and ccert.verify()
                    and ccert.bytes_hi is not None
                    and ccert.bytes_hi < self.config.optimizer.min_input_bytes):
                self._skip(text,
                           f"static volume bound {ccert.bytes_hi}B below "
                           f"optimization threshold "
                           f"[cost certificate {ccert.digest}]",
                           tracer=tracer, proc=proc)
                return None

        compile_start = kernel.now
        # charge the cheap pre-screen (expansion + stat; the purity walk
        # only when no certificate covered it)
        yield from proc.cpu(probe_cost)

        # a stage naming a shell function runs the function, not the
        # library command; functions come and go at run time, so this is
        # checked on every call, never cached
        functions = interp.state.functions
        if functions and any(name in functions for name in info.names):
            self._skip(text, NOT_CLASSIFIABLE, tracer=tracer, proc=proc)
            return None
        # the AST alone fixes the outcome of expansion + classification
        if info.verdict is not None \
                and not interp.state.options.get("nounset"):
            self._skip(text, info.verdict, tracer=tracer, proc=proc)
            return None

        # 2. early expansion with full runtime information
        self.early_expansions += 1
        region = yield from expand_region(interp, proc, stages_ast,
                                          self.config.library)
        if region is None:
            self._skip(text, NOT_CLASSIFIABLE, tracer=tracer, proc=proc)
            return None
        if not region.parallelizable:
            self._skip(text, NO_PARALLEL_STAGE, tracer=tracer, proc=proc)
            return None

        # 3./4. probe the system
        input_files = region_input_files(region, proc.fs, interp.state.cwd)
        if input_files is None:
            self._skip(text, NOT_FILE_BACKED, tracer=tracer, proc=proc)
            return None
        input_bytes, avg_line, avg_token = measure_input(proc.fs, input_files)
        if input_bytes < self.config.optimizer.min_input_bytes:
            self._skip(text, "input below optimization threshold",
                       tracer=tracer, proc=proc)
            return None
        probe = probe_machine(proc, input_bytes, avg_line, avg_token)
        # the pre-screen passed: pay for a full compilation
        yield from proc.cpu(self.config.compile_cost_s)

        # 5. cost-based decision, no-regression objective
        file_sizes = fs_file_sizes(proc.fs, interp.state.cwd)
        decision: Decision = self.optimizer.choose(region, probe, file_sizes)
        if metrics is not None:
            metrics.counter("jit.compiles").inc()
            metrics.counter(
                "jit.decisions",
                decision="optimized" if decision.transformed
                else "declined").inc()
        if tracer is not None:
            tracer.span("jit", "jit.compile", compile_start, kernel.now, proc,
                        command=text, transformed=decision.transformed,
                        width=decision.plan.width if decision.transformed else 1,
                        input_bytes=input_bytes, reason=decision.reason,
                        estimate_s=round(decision.estimate.seconds, 6),
                        baseline_s=round(decision.baseline.seconds, 6))
        if not decision.transformed:
            self._skip(text, decision.reason,
                       baseline=decision.baseline.seconds,
                       tracer=tracer, proc=proc)
            return None

        # 6. execute the dataflow plan
        exec_start = kernel.now
        snapshot = tracer.region_begin() if tracer is not None else None
        if not self.config.transactional:
            status = yield from execute_plan(decision.plan, proc,
                                             cwd=interp.state.cwd)
            if tracer is not None:
                tracer.region_end(
                    "jit", "jit.region", exec_start, kernel.now, snapshot,
                    proc, command=text, decision="optimized",
                    width=decision.plan.width, mode=decision.plan.mode,
                    status=status)
            self.events.append(JitEvent(
                text, "optimized", decision.reason,
                decision.plan.description,
                estimate_s=decision.estimate.seconds,
                baseline_s=decision.baseline.seconds,
                compile_overhead_s=self.config.compile_cost_s,
            ))
            return status

        # transactional execution with graceful degradation: retry the
        # plan under the retry policy; if it keeps faulting, rebuild at
        # half the width; at width < 2, return to interpretation (sound:
        # the purity gate admitted the region, and every failed attempt
        # was rolled back)
        report = RecoveryReport()
        plan = decision.plan
        width = plan.width
        widths_tried = [width]
        while True:
            rung = RecoveryReport()
            status = yield from execute_plan_transactional(
                plan, proc, cwd=interp.state.cwd,
                policy=self.config.retry, report=rung)
            report.merge(rung)
            if not rung.gave_up:
                break
            if metrics is not None:
                metrics.counter("jit.degrade_steps").inc()
            next_plan = None
            next_width = width // 2
            while next_width >= 2 and next_plan is None:
                next_plan = parallelize(region, next_width, plan.mode,
                                        file_sizes=file_sizes,
                                        eager=plan.eager)
                if next_plan is None:
                    next_width //= 2
            if next_plan is None:
                trail = " -> ".join(str(w) for w in widths_tried)
                if tracer is not None:
                    tracer.instant("jit", "jit.degrade", kernel.now, proc,
                                   command=text, from_width=width,
                                   to="interpreter",
                                   fault_failures=report.fault_failures)
                    tracer.region_end(
                        "jit", "jit.region", exec_start, kernel.now, snapshot,
                        proc, command=text, decision="interpreted",
                        width=decision.plan.width,
                        fault_failures=report.fault_failures,
                        degraded=f"{trail} -> interpreter")
                self.events.append(JitEvent(
                    text, "interpreted",
                    f"degraded to interpreter after {report.fault_failures} "
                    f"fault-suspected attempts",
                    baseline_s=decision.baseline.seconds,
                    fault_failures=report.fault_failures,
                    degraded=f"{trail} -> interpreter",
                ))
                return None
            if tracer is not None:
                tracer.instant("jit", "jit.degrade", kernel.now, proc,
                               command=text, from_width=width,
                               to=next_width,
                               fault_failures=rung.fault_failures)
            plan = next_plan
            width = next_width
            widths_tried.append(width)

        degraded = (" -> ".join(str(w) for w in widths_tried)
                    if len(widths_tried) > 1 else "")
        if tracer is not None:
            tracer.region_end(
                "jit", "jit.region", exec_start, kernel.now, snapshot,
                proc, command=text,
                decision="degraded" if report.fault_failures else "optimized",
                width=plan.width, mode=plan.mode, status=status,
                fault_failures=report.fault_failures, degraded=degraded)
        self.events.append(JitEvent(
            text,
            "degraded" if report.fault_failures else "optimized",
            decision.reason,
            plan.description,
            estimate_s=decision.estimate.seconds,
            baseline_s=decision.baseline.seconds,
            compile_overhead_s=self.config.compile_cost_s,
            fault_failures=report.fault_failures,
            degraded=degraded,
        ))
        return status

    # -- helpers ------------------------------------------------------------------

    def _skip(self, text: str, reason: str, baseline: float = 0.0,
              tracer=None, proc=None) -> None:
        self.events.append(JitEvent(text, "interpreted", reason,
                                    baseline_s=baseline))
        if proc is not None:
            metrics = getattr(proc.kernel, "metrics", None)
            if metrics is not None:
                metrics.counter("jit.decisions", decision="interpreted").inc()
        if tracer is not None and proc is not None:
            tracer.instant("jit", "jit.skip", proc.kernel.now, proc,
                           command=text, reason=reason)

    # -- reporting --------------------------------------------------------------------

    @property
    def optimized_count(self) -> int:
        return sum(1 for e in self.events
                   if e.decision in ("optimized", "degraded"))

    @property
    def cert_hit_rate(self) -> float:
        """Fraction of candidate lookups answered by a static
        certificate (0.0 when the analyzer never ran)."""
        total = self.cert_hits + self.cert_misses
        return self.cert_hits / total if total else 0.0

    @property
    def degraded_count(self) -> int:
        return sum(1 for e in self.events if e.decision == "degraded"
                   or (e.decision == "interpreted" and e.degraded))

    def report(self) -> str:
        lines = []
        if self._analysis is not None:
            lines.append(
                f"[static analysis] {self.cert_hits} certificate hits, "
                f"{self.cert_misses} misses "
                f"(hit rate {self.cert_hit_rate:.0%})")
        for event in self.events:
            lines.append(f"[{event.decision:>11}] {event.node_text}")
            lines.append(f"              {event.reason}")
            if event.plan_description:
                lines.append(f"              plan: {event.plan_description}")
            if event.degraded:
                lines.append(f"              degraded: {event.degraded} "
                             f"({event.fault_failures} faulted attempts)")
        return "\n".join(lines)
