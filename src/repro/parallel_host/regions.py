"""Static region detection and gating for the host pool.

A *region* is a top-level statement the pool can precompute: a pipeline
of literal-argv stages over a single input file whose byte streams are
fully determined by a snapshot of that file —

    cat FILE | tr ... [| tr ...] [| sort [-r|-u] [| uniq]] [> OUT]
    cat FILE | sort [-r|-u] [| uniq] [> OUT]
    sort [-r|-u] FILE [| uniq] [> OUT]

Three gates stand between a matched shape and a dispatch:

* **S16 certificate** — the statement must carry a verified
  ``safe_parallel`` (or stronger) certificate; an uncertified region is
  never shipped, which is what the JS2260 lint surfaces.
* **S20 volume** — the certified byte volume (the snapshot size,
  tightened by the abstract interpreter's static bound when one exists)
  must amortize the per-core IPC cost (:func:`estimate_host_ship`).
  ``min_ship_bytes == 0`` forces shipping — the difftest/CI override
  that exercises the machinery on tiny corpora.
* **write set** — a trailing ``> OUT`` redirect must be covered by the
  statement's declared write set; any statement effect the certificate
  did not declare vetoes the dispatch.

Detection never decides correctness — the oracles' chunk validation
does — so a too-eager match costs wasted worker time, never wrong
bytes.  Detection *does* decide prefetch timing: a region whose input
may be written by an earlier statement is dispatched lazily at
statement start instead of at run start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analysis.certificates import SAFE_PARALLEL, SAFE_REORDER
from ..analysis.paths import literal, may_alias
from ..commands.base import UsageError, parse_flags
from ..commands.filters import _tr_plan
from ..parser.ast_nodes import (
    CommandList,
    Pipeline,
    SimpleCommand,
    Word,
)


@dataclass
class StagePlan:
    kind: str                     # "cat" | "tr" | "sort" | "uniq"
    tr_index: int = -1            # index into the region's tr chain
    reverse: bool = False
    unique: bool = False


@dataclass
class RegionPlan:
    node: object                  # the Pipeline / SimpleCommand AST node
    stages: list                  # StagePlan per pipeline stage
    tr_chain: list                # tr spec dicts, pipeline order
    input_path: str               # resolved virtual path of the source
    text: str                     # unparsed region (cert/report key)
    sort_reverse: bool = False
    sort_unique: bool = False
    has_sort: bool = False
    has_uniq: bool = False
    #: an early tr stage squeezes: seams between parts are not locally
    #: repairable, so the region ships as a single part
    single_part: bool = False
    #: snapshot at statement start instead of run start (an earlier
    #: statement may write the input)
    deferred: bool = False
    cert_verdict: str = ""
    nbytes: int = 0

    @property
    def key(self) -> int:
        return id(self.node)


def _literal_argv(cmd: SimpleCommand) -> Optional[list[str]]:
    if cmd.assigns or not cmd.words:
        return None
    argv = []
    for word in cmd.words:
        if not isinstance(word, Word) or not word.is_literal():
            return None
        argv.append(word.literal_value())
    return argv


def _tr_spec(argv: list[str]) -> Optional[dict]:
    try:
        opts, operands = parse_flags(argv[1:], "cCsd")
        delete_chars, table, squeeze_set, _ = _tr_plan(
            tuple(operands),
            bool(opts.get("c") or opts.get("C")),
            bool(opts.get("s")),
            bool(opts.get("d")),
        )
    except Exception:
        return None
    return {"delete": delete_chars, "table": table, "squeeze": squeeze_set}


def _redirects_ok(cmds: list[SimpleCommand]) -> bool:
    """Only a trailing stdout redirect on the last stage is allowed."""
    for i, cmd in enumerate(cmds):
        reds = cmd.redirects
        if not reds:
            continue
        if i != len(cmds) - 1 or len(reds) > 1:
            return False
        red = reds[0]
        if red.op not in (">", ">>") or red.default_fd() != 1:
            return False
        if not isinstance(red.target, Word) or not red.target.is_literal():
            return False
    return True


def match_region(node) -> Optional[RegionPlan]:
    """Match one statement node against the supported region shapes."""
    if isinstance(node, Pipeline):
        if node.negated:
            return None
        cmds = list(node.commands)
    elif isinstance(node, SimpleCommand):
        cmds = [node]
    else:
        return None
    if not 1 <= len(cmds) <= 5:
        return None
    if not all(isinstance(c, SimpleCommand) for c in cmds):
        return None
    if not _redirects_ok(cmds):
        return None
    argvs = [_literal_argv(c) for c in cmds]
    if any(a is None for a in argvs):
        return None

    stages: list[StagePlan] = []
    tr_chain: list[dict] = []
    input_path = None
    i = 0
    # -- source stage ------------------------------------------------------
    head = argvs[0]
    if head[0] == "cat":
        if len(head) != 2 or head[1] == "-" or head[1].startswith("-"):
            return None
        input_path = head[1]
        stages.append(StagePlan("cat"))
        i = 1
    elif head[0] != "sort":
        return None
    # -- tr chain ----------------------------------------------------------
    while i < len(cmds) and argvs[i][0] == "tr":
        if len(tr_chain) == 2:
            return None
        spec = _tr_spec(argvs[i])
        if spec is None:
            return None
        tr_chain.append(spec)
        stages.append(StagePlan("tr", tr_index=len(tr_chain) - 1))
        i += 1
    # -- sort [+ uniq] -----------------------------------------------------
    has_sort = has_uniq = False
    reverse = unique = False
    if i < len(cmds) and argvs[i][0] == "sort":
        try:
            opts, operands = parse_flags(argvs[i][1:], "rnumcf",
                                         with_value="kto")
        except UsageError:
            return None
        if set(opts) - {"r", "u"}:
            return None
        if i == 0:
            if len(operands) != 1 or operands[0] == "-" :
                return None
            input_path = operands[0]
        elif operands:
            return None
        reverse, unique = bool(opts.get("r")), bool(opts.get("u"))
        has_sort = True
        stages.append(StagePlan("sort", reverse=reverse, unique=unique))
        i += 1
        if i < len(cmds) and argvs[i] == ["uniq"]:
            has_uniq = True
            stages.append(StagePlan("uniq"))
            i += 1
    if i != len(cmds):
        return None
    if input_path is None or (not tr_chain and not has_sort):
        return None
    # squeeze seams between parts are only locally repairable on the
    # last tr stage; an earlier squeezing stage forces one part
    single_part = any(s["squeeze"] for s in tr_chain[:-1])
    return RegionPlan(node=node, stages=stages, tr_chain=tr_chain,
                      input_path=input_path, text="",
                      sort_reverse=reverse, sort_unique=unique,
                      has_sort=has_sort, has_uniq=has_uniq,
                      single_part=single_part)


def _statement_nodes(program) -> list:
    """(node, is_async) for each top-level statement, in program order
    — the same walk order ``analyze_program`` reports statements in."""
    items = []
    if isinstance(program, CommandList):
        for item in program.items:
            items.append((item.command, item.is_async))
    else:
        items.append((program, False))
    return items


def detect_regions(program, analysis, fs, cwd: str,
                   min_ship_bytes: int, jobs: int,
                   static_hints=None) -> list[RegionPlan]:
    """All certificate- and volume-gated regions of ``program``."""
    from ..compiler.cost import estimate_host_ship
    from ..parser.unparse import unparse
    from ..vos.fs import normalize

    regions: list[RegionPlan] = []
    statements = _statement_nodes(program)
    reports = analysis.statements if analysis is not None else []
    aligned = len(reports) == len(statements)
    for idx, (node, is_async) in enumerate(statements):
        if is_async:
            continue
        plan = match_region(node)
        if plan is None:
            continue
        cert = (analysis.certificates.get(id(node))
                if analysis is not None else None)
        if cert is None or cert.verdict not in (SAFE_PARALLEL, SAFE_REORDER):
            continue
        if not cert.verify():
            continue
        plan.cert_verdict = cert.verdict
        plan.text = cert.node_text or unparse(node)
        # write-set validation: a trailing redirect the certificate's
        # statement effects never declared means the analysis and the
        # region disagree about the write set — do not ship
        last = (node.commands[-1] if isinstance(node, Pipeline) else node)
        if last.redirects:
            target = last.redirects[0].target.literal_value()
            declared = (reports[idx].summary.writes if aligned else set())
            if not any(may_alias(literal(target), w) for w in declared):
                continue
        plan.input_path = normalize(plan.input_path, cwd)
        if not fs.exists(plan.input_path):
            continue
        plan.nbytes = fs.size(plan.input_path)
        ship = estimate_host_ship(
            plan.nbytes, jobs, stages=len(plan.stages),
            static_hints=static_hints, region_text=plan.text,
            min_ship_bytes=min_ship_bytes)
        # min_ship_bytes == 0 is the explicit "always ship" override
        if not ship.worthwhile and min_ship_bytes > 0:
            continue
        if min_ship_bytes > 0 and plan.nbytes < min_ship_bytes:
            continue
        # prefetch timing: defer the snapshot when any earlier
        # statement may write (or has unknown effects on) the input
        input_ap = literal(plan.input_path)
        for report in (reports[:idx] if aligned else reports):
            summary = report.summary
            if summary.opaque or any(may_alias(input_ap, w)
                                     for w in summary.writes):
                plan.deferred = True
                break
        if not aligned:
            plan.deferred = True
        regions.append(plan)
    return regions


def eligible_region_count(program, analysis) -> tuple[int, int]:
    """(matched shapes, certificate-cleared shapes) — the JS2260 input."""
    matched = cleared = 0
    for node, is_async in _statement_nodes(program):
        if is_async:
            continue
        plan = match_region(node)
        if plan is None:
            continue
        matched += 1
        cert = (analysis.certificates.get(id(node))
                if analysis is not None else None)
        if cert is not None and cert.verdict in (SAFE_PARALLEL, SAFE_REORDER):
            cleared += 1
    return matched, cleared
