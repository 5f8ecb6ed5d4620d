"""Shared JIT front-end: candidate detection, purity checking, and sound
early expansion of pipeline nodes into dataflow regions.

Used by the Jash optimizer (S9) and the incremental engine (S11), both
of which are interpreter hooks that must first answer: *is this node a
dataflow region, and may I expand its words early?*
"""

from __future__ import annotations

from typing import Optional

# the candidate-shape and purity checks live in repro.analysis so the
# static analyzer and the JIT pre-screen can never diverge; re-exported
# here for the engine and the incremental hook
from ..analysis.candidates import pipeline_stages, purity_reason  # noqa: F401
from ..annotations.model import ParClass, SpecLibrary
from ..dfg.from_ast import Region, region_from_argvs
from ..parser.ast_nodes import ArithSub, CmdSub, SimpleCommand, walk
from ..semantics.expansion import expand_word_single, expand_words

#: skip reasons the engine gives after early expansion, before the probe
NOT_CLASSIFIABLE = "stages not classifiable as a dataflow region"
NO_PARALLEL_STAGE = "no parallelizable stage"
NOT_FILE_BACKED = "input is not file-backed (size unknown)"


def expand_region(interp, proc, stages: list[SimpleCommand],
                  library: SpecLibrary):
    """Early-expand a (purity-checked) pipeline into a Region.  This is a
    generator (command substitution would need the kernel — but purity
    checking has already excluded those).  A stage that names a shell
    function is not a region stage: the interpreter would call the
    function, not the library command."""
    argvs: list[list[str]] = []
    stdin_file: Optional[str] = None
    stdout_file: Optional[str] = None
    functions = interp.state.functions
    for i, stage in enumerate(stages):
        argv = yield from expand_words(interp, proc, stage.words)
        if not argv or argv[0] in functions:
            return None
        argvs.append(argv)
        for redirect in stage.redirects:
            target = yield from expand_word_single(interp, proc,
                                                   redirect.target)
            fd = redirect.default_fd()
            if redirect.op == "<" and fd == 0 and i == 0:
                stdin_file = target
            elif redirect.op in (">", ">|") and fd == 1 and i == len(stages) - 1:
                stdout_file = target
            else:
                return None
    return region_from_argvs(argvs, library, stdin_file, stdout_file)


def stage_names(stages: list[SimpleCommand]) -> tuple[Optional[str], ...]:
    """Each stage's command name where its text fixes it, else None."""
    return tuple(stage.words[0].static_field if stage.words else None
                 for stage in stages)


def static_verdict(stages: list[SimpleCommand],
                   library: SpecLibrary) -> Optional[str]:
    """The reason the engine would give for skipping these
    (purity-checked) stages after early expansion, when it follows from
    the AST alone; None when it depends on the values expansion produces
    or on the filesystem.

    Expansion of the stages must be unable to fail or run anything, so
    no word or redirect target may hold a command or arithmetic
    substitution.  Two facts stay with the caller, per execution: the
    ``nounset`` option (an unset variable would then be an error) and
    shell functions (a function shadowing a stage name changes it).

    A stage is classified from its text when every word is literal (the
    library sees the exact argv), or from its literal command name when
    the command's spec declares a ``fixed_class``."""
    for stage in stages:
        words = stage.words + tuple(r.target for r in stage.redirects)
        for word in words:
            for sub in walk(word):
                if isinstance(sub, (CmdSub, ArithSub)):
                    return None
    last = len(stages) - 1
    known = True
    parallel = False
    first = None  # stage 0's InstanceSpec, when its argv is literal
    for i, stage in enumerate(stages):
        if not stage.words:
            return NOT_CLASSIFIABLE  # expands to an empty argv
        for redirect in stage.redirects:
            fd = redirect.default_fd()
            modelled = ((redirect.op == "<" and fd == 0 and i == 0)
                        or (redirect.op in (">", ">|") and fd == 1
                            and i == last))
            if not modelled:
                return NOT_CLASSIFIABLE
        argv = [word.static_field for word in stage.words]
        if argv[0] is None:
            known = False
            continue
        spec = library.get(argv[0])
        if spec is None:
            return NOT_CLASSIFIABLE
        if None not in argv:
            instance = spec.classify(argv[1:])
            if instance is None:
                return NOT_CLASSIFIABLE
            par_class = instance.par_class
            if i == 0:
                first = instance
        else:
            par_class = spec.fixed_class
            if par_class is None:
                known = False
                continue
        if par_class is ParClass.SIDE_EFFECTFUL:
            return NOT_CLASSIFIABLE
        parallel = parallel or par_class in _PARALLEL
    if not known:
        return None
    if not parallel:
        return NO_PARALLEL_STAGE
    # stage 0 decides whether the input is file-backed: a ``<`` redirect
    # or file operands need the filesystem, their absence does not
    if first is not None and not first.input_operands and not any(
            redirect.op == "<" for redirect in stages[0].redirects):
        return NOT_FILE_BACKED
    return None


_PARALLEL = (ParClass.STATELESS, ParClass.PARALLELIZABLE_PURE)
