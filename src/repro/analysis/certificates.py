"""Signed safety certificates and the whole-script analyzer (S16).

``analyze_program`` is the compile-once pass the engines consult instead
of re-deriving safety on the hot path.  For every candidate dataflow
region (a flat pipeline of simple commands — the same shape test the JIT
uses, see :mod:`repro.analysis.candidates`) it issues a
:class:`SafetyCertificate`:

* ``unsafe(reason)``   — early expansion has side effects; the exact
  verdict the runtime purity walk would reach, precomputed.  The JIT
  skips the node without walking it again.
* ``safe_parallel``    — expansion is provably side-effect free: the JIT
  may expand early and hand the region to the optimizer.  Hazards
  (e.g. the region writes a file it also reads) are attached for the
  lint layer but do not veto the certificate — the runtime engine's
  decision must stay bit-identical with and without the analyzer.
* ``safe_reorder``     — additionally the region writes nothing (files
  or variables): it commutes with any effect-disjoint statement.
* ``unknown``          — never stored; a missing certificate *is* the
  unknown verdict, and the engine falls back to the runtime check.

Certificates are signed: the digest covers the analyzer version, the
unparsed region text, and the verdict, so a consumer can detect a
certificate applied to a node it was not computed for.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..annotations.library import DEFAULT_LIBRARY
from ..annotations.model import SpecLibrary
from ..parser.ast_nodes import Command, CommandList, walk
from ..parser.unparse import unparse
from .candidates import pipeline_stages, purity_reason
from .effects import EffectAnalyzer, EffectSummary, self_conflicts
from .envflow import EnvFlow, VarUse
from .races import RaceFinding, detect_races

ANALYZER_VERSION = "s16.1"

SAFE_PARALLEL = "safe_parallel"
SAFE_REORDER = "safe_reorder"
UNSAFE = "unsafe"
UNKNOWN = "unknown"


def _sign(node_text: str, verdict: str, reason: str) -> str:
    payload = "\x00".join((ANALYZER_VERSION, node_text, verdict, reason))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SafetyCertificate:
    verdict: str          # SAFE_PARALLEL | SAFE_REORDER | UNSAFE
    reason: str           # why (impurity reason, or the safety argument)
    node_text: str        # unparsed region the verdict covers
    digest: str           # signature over (version, text, verdict, reason)
    hazards: tuple[str, ...] = ()  # advisory conflicts (lint layer)

    @property
    def safe(self) -> bool:
        return self.verdict in (SAFE_PARALLEL, SAFE_REORDER)

    def verify(self) -> bool:
        """Re-derive the signature; False means tampered/mismatched."""
        return self.digest == _sign(self.node_text, self.verdict, self.reason)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "node": self.node_text,
            "digest": self.digest,
            "hazards": list(self.hazards),
        }


def make_certificate(verdict: str, reason: str, node_text: str,
                     hazards: tuple[str, ...] = ()) -> SafetyCertificate:
    return SafetyCertificate(verdict, reason, node_text,
                             _sign(node_text, verdict, reason), hazards)


@dataclass
class StatementReport:
    """One statement-level entry of the whole-script report."""

    node: Command
    summary: EffectSummary
    is_async: bool = False

    @property
    def text(self) -> str:
        """The statement's source (unparsed only when a report asks)."""
        return unparse(self.node)

    def to_dict(self) -> dict:
        d = {"statement": self.text, "effects": self.summary.to_dict()}
        if self.is_async:
            d["async"] = True
        return d


@dataclass
class AnalysisResult:
    """Everything one ``analyze_program`` pass learned."""

    #: id(node) -> certificate, for every candidate region
    certificates: dict[int, SafetyCertificate] = field(default_factory=dict)
    #: the same certificates in walk order (stable for reports)
    cert_list: list[SafetyCertificate] = field(default_factory=list)
    statements: list[StatementReport] = field(default_factory=list)
    races: list[RaceFinding] = field(default_factory=list)
    use_before_def: list[VarUse] = field(default_factory=list)
    #: the S20 value-flow result (AbsintResult), when the pass ran
    absint: object = None
    #: the analyzed program (kept so id()-keyed certificates stay valid)
    program: object = None

    def stats(self) -> dict:
        by_verdict: dict[str, int] = {}
        for cert in self.cert_list:
            by_verdict[cert.verdict] = by_verdict.get(cert.verdict, 0) + 1
        out = {
            "statements": len(self.statements),
            "certificates": len(self.cert_list),
            "safe_parallel": by_verdict.get(SAFE_PARALLEL, 0),
            "safe_reorder": by_verdict.get(SAFE_REORDER, 0),
            "unsafe": by_verdict.get(UNSAFE, 0),
            "races": len(self.races),
            "use_before_def": len(self.use_before_def),
        }
        if self.absint is not None:
            out.update(self.absint.stats())
        return out

    def dead_nodes(self) -> frozenset:
        """ids of provably-dead nodes (empty when value flow was off)."""
        if self.absint is None:
            return frozenset()
        return frozenset(self.absint.dead)

    def cost_certificate(self, node) -> object:
        """The CostCertificate covering ``node``, or None."""
        if self.absint is None:
            return None
        return self.absint.cost_certificates.get(id(node))

    def to_dict(self) -> dict:
        out = {
            "analyzer": ANALYZER_VERSION,
            "summary": self.stats(),
            "statements": [s.to_dict() for s in self.statements],
            "certificates": [c.to_dict() for c in self.cert_list],
            "races": [r.to_dict() for r in self.races],
            "use_before_def": [
                {"name": u.name, "statement": unparse(u.node)}
                for u in self.use_before_def
            ],
        }
        if self.absint is not None:
            out["value_flow"] = self.absint.to_dict()
        return out


def analyze_program(program: Command,
                    library: SpecLibrary | None = None,
                    allow_pure_cmdsub: bool = False,
                    pure_commands: frozenset = frozenset(),
                    value_flow: bool = True,
                    fs=None, cwd: str = "/") -> AnalysisResult:
    """The interprocedural whole-script pass.

    ``allow_pure_cmdsub``/``pure_commands`` must match the consuming
    engine's configuration — the purity verdicts are only transferable
    when both sides ask the same question.

    ``value_flow`` additionally runs the S20 abstract interpreter
    (:mod:`repro.analysis.absint`): provably-dead regions then get no
    safety certificate (they can never be executed, and a wrong dead
    fact only costs a cert miss — the runtime purity walk reaches the
    identical decision), and loops/regions gain CostCertificates.
    ``fs``/``cwd`` optionally ground the volume domain in a virtual
    filesystem snapshot."""
    library = library or DEFAULT_LIBRARY
    effects = EffectAnalyzer(library)
    effects.register_functions(program)
    result = AnalysisResult(program=program)
    # one reaching-definitions pass serves both the use-before-def report
    # and the value-flow prepass
    envflow = EnvFlow()
    unreached = envflow.run(program)
    dead: frozenset = frozenset()
    if value_flow:
        from .absint import analyze_value_flow

        result.absint = analyze_value_flow(program, fs=fs, cwd=cwd,
                                           library=library,
                                           all_defs=envflow.all_defs)
        dead = frozenset(result.absint.dead)

    for node in walk(program):
        if isinstance(node, CommandList):
            for item in node.items:
                result.statements.append(StatementReport(
                    item.command, effects.compute(item.command),
                    item.is_async))
        stages = pipeline_stages(node)
        if stages is None:
            continue
        if id(node) in dead:
            continue  # provably never executes: nothing to certify
        text = unparse(node)
        impure = purity_reason(stages, allow_pure_cmdsub, pure_commands)
        if impure is not None:
            cert = make_certificate(UNSAFE, impure, text)
        else:
            summary = effects.compute(node)
            hazards = tuple(c.display() for c in self_conflicts(summary))
            if summary.opaque:
                hazards += ("contains a command with unknown effects",)
            if not summary.writes and not summary.env_defs and not summary.opaque:
                cert = make_certificate(
                    SAFE_REORDER,
                    "expansion is pure and the region writes nothing",
                    text, hazards)
            else:
                cert = make_certificate(
                    SAFE_PARALLEL, "expansion is side-effect free",
                    text, hazards)
        result.certificates[id(node)] = cert
        result.cert_list.append(cert)

    result.races = detect_races(program, effects)
    result.use_before_def = unreached
    return result
