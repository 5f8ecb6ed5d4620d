"""Host-time spans around the program's layers, installed from outside.

The program is not modified: :func:`install` rebinds the names callers
look up at call time (module attributes, class attributes and the
command registry) to timing wrappers.  Plain functions get one span per
call.  Generator functions — process bodies, commands, expansion, the
JIT hook, runtime nodes — get one span per *resumption*, because the
virtual OS interleaves them: a generator is busy only while the kernel
has resumed it, not while it waits for simulated I/O.

Spans are kept in memory as ``[name, start, end, parent]`` rows (parent
is the index of the enclosing span, or -1) and written out by
:meth:`Recorder.dump` when the run ends.  Because every resumption runs
to completion before its caller continues, spans nest strictly, and a
layer's self time is its span's duration minus its children's.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        #: event counts taken at the same boundaries as the spans
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")

    # -- wrappers -------------------------------------------------------------

    def timed_call(self, name: str, fn, count: str | None = None):
        def wrapper(*args, **kwargs):
            if count:
                self.counts[count] += 1
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_gen(self, name: str, fn, count: str | None = None):
        def wrapper(*args, **kwargs):
            if count:
                self.counts[count] += 1
            return _TimedGen(self, name, fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn, measure=None):
        """Count calls under ``key`` and, with ``measure(result)``, the
        amount each call moved under ``key + '.amount'``."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[key] += 1
            if measure is not None:
                self.counts[key + ".amount"] += measure(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


class _TimedGen:
    """Iterator proxy timing each resumption of a generator.  It speaks
    the full protocol the kernel (``send``/``throw``) and ``yield from``
    (``__next__``/``send``/``throw``/``close``) use."""

    __slots__ = ("_rec", "_name", "_gen")

    def __init__(self, rec: Recorder, name: str, gen):
        self._rec, self._name, self._gen = rec, name, gen

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        idx = self._rec.open(self._name)
        try:
            return self._gen.send(value)
        finally:
            self._rec.close(idx)

    def throw(self, *exc):
        idx = self._rec.open(self._name)
        try:
            return self._gen.throw(*exc)
        finally:
            self._rec.close(idx)

    def close(self):
        self._gen.close()


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    import repro.commands.base as cmd_base
    import repro.commands.sorting as sorting
    import repro.compiler.runtime as runtime
    import repro.parser as parser_pkg
    import repro.semantics.arith as arith
    import repro.semantics.expansion as expansion
    import repro.semantics.interp as interp
    import repro.shell as shell
    from repro.jit import JashOptimizer
    from repro.jit import frontend
    from repro.parallel_host.coordinator import HostCoordinator
    from repro.parallel_host.pool import WorkerPool
    from repro.vos.kernel import Kernel
    from repro.vos.pipes import Pipe

    # parser: every binding a caller resolves at call time
    parse = rec.timed_call("parser.parse", parser_pkg.parse, "parser.calls")
    shell.parse = parser_pkg.parse = parse

    # static analysis and the JIT hook
    JashOptimizer.compile_program = rec.timed_call(
        "analysis.compile_program", JashOptimizer.compile_program)
    JashOptimizer.try_execute = rec.timed_gen(
        "jit.try_execute", JashOptimizer.try_execute, "jit.try_execute_calls")

    # expansion and arithmetic
    word = rec.timed_gen("semantics.expand_word", expansion.expand_word,
                         "semantics.expand_word_calls")
    single = rec.timed_gen("semantics.expand_word", expansion.expand_word_single,
                           "semantics.expand_word_calls")
    expansion.expand_word = interp.expand_word = word
    expansion.expand_word_single = single
    interp.expand_word_single = frontend.expand_word_single = single
    arith.evaluate = rec.timed_call("semantics.arith", arith.evaluate)

    # runtime split / merge node bodies and the sort merge kernel
    def timed_body_factory(name, factory):
        def make(*args, **kwargs):
            body = factory(*args, **kwargs)
            return rec.timed_gen(name, body)
        return make

    runtime.rr_split_body = timed_body_factory("compiler.split",
                                               runtime.rr_split_body)
    runtime.sort_kway_body = timed_body_factory("compiler.merge",
                                                runtime.sort_kway_body)
    sorting.kway_merge = rec.timed_gen("commands.sort.kway_merge",
                                       sorting.kway_merge)

    # commands: one span per resumption, named after the registry key
    for name, fn in list(cmd_base.REGISTRY.items()):
        cmd_base.REGISTRY[name] = rec.timed_gen(f"cmd.{name}", fn)

    # kernel: the dispatch loop, and every process body it resumes
    Kernel.run_until_process_done = rec.timed_call(
        "vos.kernel.run", Kernel.run_until_process_done)
    create = Kernel.create_process

    def create_process(self, target, *args, **kwargs):
        rec.counts["vos.kernel.processes"] += 1
        return create(self, rec.timed_gen("vos.body", target), *args, **kwargs)

    Kernel.create_process = create_process

    # pipes: calls and bytes accepted
    Pipe.push = rec.counted("vos.pipes.push", Pipe.push, lambda n: n)
    Pipe.push_vector = rec.counted("vos.pipes.push", Pipe.push_vector,
                                   lambda r: r[0])

    # host pool: submission and the simulation blocked on workers
    HostCoordinator._dispatch = rec.timed_call("pool.submit",
                                               HostCoordinator._dispatch)
    HostCoordinator._dispatch_sort = rec.timed_call(
        "pool.submit", HostCoordinator._dispatch_sort)
    WorkerPool.wait_for = rec.timed_call("pool.wait", WorkerPool.wait_for)


def layer_times(spans: list[list]) -> dict[str, float]:
    """Host seconds per layer from the span tree.

    Inclusive times count only the outermost span of each name, so a
    recursive layer (expansion inside a command substitution) is not
    counted twice.  Self times subtract the children named alongside.
    """
    n = len(spans)
    child_time = [0.0] * n          # all direct children
    child_body = [0.0] * n          # direct children that are process bodies
    child_cmd = [0.0] * n           # direct children that are commands
    nested: list[frozenset] = [frozenset()] * n  # names on the ancestor path
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        if parent >= 0:
            child_time[parent] += dur
            if name == "vos.body":
                child_body[parent] += dur
            elif name.startswith("cmd."):
                child_cmd[parent] += dur
            nested[i] = nested[parent] | {spans[parent][0]}
    out: Counter = Counter()
    for i, (name, start, end, _parent) in enumerate(spans):
        dur = end - start
        if name == "jit.try_execute":
            out["jit.try_execute_s"] += dur - child_time[i]
        elif name == "vos.kernel.run":
            out["vos.kernel.self_s"] += dur - child_body[i]
        elif name.startswith("cmd."):
            out[f"commands.{name[4:]}.busy_s"] += dur - child_cmd[i]
        elif name not in nested[i]:
            out[name + "_s"] += dur
    return dict(out)
