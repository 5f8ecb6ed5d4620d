"""The structured tracer: typed span/event records on the virtual clock.

A :class:`Tracer` is installed on a kernel
(``Shell(tracer=Tracer())`` or ``kernel.install_tracer(tracer)``) and
receives callbacks from every layer of the stack:

* the kernel — syscall dispatch, process spawn/exit/wait, CPU bursts,
  disk I/O (with queue wait, IOPS mode and burst-credit balance), pipe
  reads/writes (with queue depth) and backpressure stalls, scheduler
  ticks, and network sends;
* :mod:`repro.vos.faults` — every injected fault, inline, with the
  plan's op counter;
* the engines — Jash JIT compile/decide/degrade, PaSh-AOT regions,
  transactional attempts/rollbacks/commits, and distributed dispatch.

The kernel and fault-plan callbacks are the shared event vocabulary of
:class:`~repro.obs.hooks.KernelObserver`; the tracer overrides every
one of them.  Tracing is **zero-cost when disabled**: no tracer
installed means every kernel hook site is a single ``is not None``
guard on the kernel's observation slot and no record object is ever
constructed (:attr:`Tracer.total_records` is the witness the tests use).

Records are deterministic for a fixed workload + seed: they carry only
virtual timestamps, kernel pids, and canonicalized names — pipe ids and
``/tmp`` scratch paths (which embed process-global counters) are
renumbered in first-seen order so two identical runs export
byte-identical traces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .accounting import ResourceAccounting
from .hooks import KernelObserver

#: Record phases, mirroring the Chrome trace_event vocabulary.
SPAN = "X"
INSTANT = "i"
COUNTER = "C"


@dataclass
class TraceRecord:
    """One typed trace record (span, instant, or counter)."""

    name: str
    cat: str      # "process" | "cpu" | "disk" | "pipe" | "splice" | "wait"
                  # | "sched" | "net" | "fault" | "syscall" | "jit" | "aot"
                  # | "tx" | "analysis" | "dshell" | "supervise"
    ph: str       # SPAN | INSTANT | COUNTER
    ts: float     # virtual seconds (span start)
    dur: float = 0.0
    pid: int = 0  # vOS pid (0 = kernel-level record)
    node: str = ""
    args: dict = field(default_factory=dict)


#: raw pipe ids in process error strings ("pipe 17: injected break")
_PIPE_ID = re.compile(r"\bpipe (\d+)")


class Tracer(KernelObserver):
    """Collects typed records and folds them into ResourceAccounting.

    ``record_events=False`` keeps the accounting but drops the event
    list (cheap metrics-only mode for benchmarks); ``syscall_events``
    additionally emits one instant per syscall dispatch (verbose).
    """

    #: class-wide count of records ever emitted — the "zero events when
    #: tracing is disabled" invariant is asserted against this.
    total_records = 0

    def __init__(self, record_events: bool = True,
                 syscall_events: bool = False):
        self.record_events = record_events
        self.syscall_events = syscall_events
        self.records: list[TraceRecord] = []
        self.accounting = ResourceAccounting()
        self.subscribers: list = []
        # open-span state, keyed by pid
        self._cpu: dict[int, tuple[float, float]] = {}    # start, work
        self._stall: dict[int, tuple[float, str, int]] = {}  # start, kind, pipe
        self._wait: dict[int, tuple[float, int]] = {}     # start, child pid
        self._splice: dict[int, tuple[float, str, list]] = {}  # start, src, dsts
        # canonical renumbering for determinism
        self._pipe_keys: dict[int, int] = {}
        self._tmp_names: dict[str, str] = {}
        self._credits_exhausted: set[str] = set()

    # -- emission ------------------------------------------------------------------

    def _emit(self, record: TraceRecord) -> None:
        Tracer.total_records += 1
        if self.record_events:
            self.records.append(record)
        for fn in self.subscribers:
            fn(record)

    def subscribe(self, fn) -> None:
        """Call ``fn(record)`` for every record as it is emitted."""
        self.subscribers.append(fn)

    def attach(self, kernel) -> None:
        """Bind to the kernel being traced (called by install_tracer) so
        accounting can surface kernel-level counters like dispatches."""
        self.accounting.attach(kernel)

    # -- canonical names -----------------------------------------------------------

    def pipe_key(self, pipe) -> int:
        return self._pipe_id_key(pipe.id)

    def _pipe_id_key(self, pipe_id: int) -> int:
        key = self._pipe_keys.get(pipe_id)
        if key is None:
            key = len(self._pipe_keys) + 1
            self._pipe_keys[pipe_id] = key
        return key

    def canon_path(self, path: str) -> str:
        """Stable names for /tmp scratch files (their real names embed
        process-global counters and would break trace determinism)."""
        if not path.startswith("/tmp/"):
            return path
        canon = self._tmp_names.get(path)
        if canon is None:
            canon = f"/tmp/scratch.{len(self._tmp_names) + 1}"
            self._tmp_names[path] = canon
        return canon

    # -- generic hooks for engine layers ---------------------------------------------

    def span(self, cat: str, name: str, start: float, end: float,
             proc=None, **args) -> None:
        self._emit(TraceRecord(
            name, cat, SPAN, start, max(0.0, end - start),
            pid=proc.pid if proc is not None else 0,
            node=proc.node.name if proc is not None else "", args=args,
        ))

    def instant(self, cat: str, name: str, now: float, proc=None, **args) -> None:
        self._emit(TraceRecord(
            name, cat, INSTANT, now,
            pid=proc.pid if proc is not None else 0,
            node=proc.node.name if proc is not None else "", args=args,
        ))

    def counter(self, cat: str, name: str, now: float, node: str = "",
                **values) -> None:
        self._emit(TraceRecord(name, cat, COUNTER, now, node=node, args=values))

    # -- per-region accounting (engines) ----------------------------------------------

    def region_begin(self) -> dict[str, float]:
        """Snapshot the accounting totals; pass to :meth:`region_end`."""
        return self.accounting.totals()

    def region_end(self, cat: str, name: str, start: float, end: float,
                   snapshot: dict[str, float], proc=None, **args) -> None:
        """Close a region: emit a span whose args carry the resource
        delta consumed while the region ran."""
        from .accounting import RegionStats

        totals = self.accounting.totals()
        delta = {k: totals[k] - snapshot.get(k, 0.0) for k in totals}
        self.accounting.regions.append(
            RegionStats(cat, name, start, end, args=dict(args), delta=delta))
        shown = {k: round(v, 9) for k, v in delta.items()
                 if k != "processes" and v}
        self.span(cat, name, start, end, proc=proc, **args, delta=shown)

    # -- kernel hooks: processes ---------------------------------------------------------

    def on_spawn(self, now: float, proc, parent=None) -> None:
        st = self.accounting.proc(proc)
        if parent is not None:
            st.parent = parent.pid
        self._emit(TraceRecord(
            f"spawn:{proc.name}", "process", INSTANT, now, pid=proc.pid,
            node=proc.node.name,
            args={"parent": parent.pid if parent is not None else 0},
        ))

    def on_exit(self, now: float, proc) -> None:
        # close any span left open by a kill while blocked
        if proc.pid in self._cpu:
            start, work = self._cpu.pop(proc.pid)
            self.span("cpu", "cpu", start, now, proc, killed=True)
        if proc.pid in self._stall:
            self._end_stall(now, proc, 0, killed=True)
        if proc.pid in self._splice:  # pragma: no cover - kernel closes first
            self.on_splice_end(now, proc, 0, 0, error="killed")
        if proc.pid in self._wait:
            start, child = self._wait.pop(proc.pid)
            st = self.accounting.proc(proc)
            st.wait_s += now - start
            self.span("wait", "wait", start, now, proc, child=child,
                      killed=True)
        st = self.accounting.proc(proc)
        st.end = now
        st.exit_status = proc.exit_status
        args = {"status": proc.exit_status}
        if proc.error:
            # pipe ids come from a process-global counter: renumber them
            args["error"] = _PIPE_ID.sub(
                lambda m: f"pipe {self._pipe_id_key(int(m.group(1)))}",
                proc.error)
        self._emit(TraceRecord(
            f"{proc.name}", "process", SPAN, proc.start_time,
            max(0.0, now - proc.start_time), pid=proc.pid,
            node=proc.node.name, args=args,
        ))

    def on_dispatch(self, now: float, proc, request) -> None:
        if self.syscall_events:
            self._emit(TraceRecord(
                type(request).__name__, "syscall", INSTANT, now,
                pid=proc.pid, node=proc.node.name,
            ))

    # -- kernel hooks: CPU ---------------------------------------------------------------

    def on_cpu_begin(self, now: float, proc, work: float) -> None:
        self._cpu[proc.pid] = (now, work)

    def on_cpu_end(self, now: float, proc) -> None:
        entry = self._cpu.pop(proc.pid, None)
        if entry is None:
            return
        start, work = entry
        self.accounting.proc(proc).cpu_s += work
        self.span("cpu", "cpu", start, now, proc,
                  core_s=round(work, 9))

    def on_cpu_killed(self, now: float, proc, remaining: float) -> None:
        entry = self._cpu.pop(proc.pid, None)
        if entry is None:
            return
        start, work = entry
        consumed = max(0.0, work - max(0.0, remaining))
        self.accounting.proc(proc).cpu_s += consumed
        self.span("cpu", "cpu", start, now, proc,
                  core_s=round(consumed, 9), killed=True)

    # -- kernel hooks: disk ---------------------------------------------------------------

    def on_disk_submit(self, now: float, disk, request) -> None:
        proc = request.process
        self.counter("disk", f"disk.queue:{proc.node.name}", now,
                     node=proc.node.name,
                     depth=len(disk.queue) + (1 if disk.current else 0))

    def on_disk_complete(self, now: float, disk, request) -> None:
        proc = request.process
        node = proc.node.name
        service = max(0.0, now - request.service_start)
        queued = max(0.0, request.service_start - request.start)
        st = self.accounting.proc(proc)
        st.disk_bytes += request.bytes
        st.disk_ops += request.ops
        st.disk_time_s += service
        st.disk_wait_s += queued
        mode = "burst" if disk.credits > 0 else "base"
        args = {
            "bytes": request.bytes,
            "ops": round(request.ops, 3),
            "queue_wait_s": round(queued, 9),
            "service_s": round(service, 9),
            "credits": round(disk.credits, 3),
            "iops_mode": mode,
        }
        if request.slow > 1.0:
            args["slow_factor"] = request.slow
        self.span("disk", f"disk.io:{disk.spec.name}", request.start, now,
                  proc, **args)
        self.counter("disk", f"disk.credits:{node}", now, node=node,
                     credits=round(disk.credits, 3))
        if disk.credits <= 0 and disk.spec.burst_credit_ops > 0 \
                and node not in self._credits_exhausted:
            self._credits_exhausted.add(node)
            self.instant("disk", f"disk.credits_exhausted:{node}", now, proc)

    # -- kernel hooks: pipes ---------------------------------------------------------------

    def on_pipe_read(self, now: float, proc, pipe, nbytes: int) -> None:
        key = self.pipe_key(pipe)
        ps = self.accounting.pipe(key)
        ps.readers.add(proc.pid)
        ps.bytes_read += nbytes
        self.accounting.proc(proc).pipes_read.add(key)
        self.counter("pipe", f"pipe.depth:{key}", now, node=proc.node.name,
                     depth=pipe.size)

    def on_pipe_write(self, now: float, proc, pipe, nbytes: int) -> None:
        key = self.pipe_key(pipe)
        ps = self.accounting.pipe(key)
        ps.writers.add(proc.pid)
        ps.bytes_written += nbytes
        depth = pipe.size
        if depth > ps.peak_depth:
            ps.peak_depth = depth
        self.accounting.proc(proc).pipes_written.add(key)
        self.counter("pipe", f"pipe.depth:{key}", now, node=proc.node.name,
                     depth=depth)

    def on_pipe_stall_begin(self, now: float, proc, pipe, kind: str) -> None:
        self._stall[proc.pid] = (now, kind, self.pipe_key(pipe))

    def on_pipe_stall_end(self, now: float, proc, nbytes: int = 0,
                          broken: bool = False) -> None:
        self._end_stall(now, proc, nbytes, broken=broken)

    def _end_stall(self, now: float, proc, nbytes: int, broken: bool = False,
                   killed: bool = False) -> None:
        entry = self._stall.pop(proc.pid, None)
        if entry is None:
            return
        start, kind, key = entry
        st = self.accounting.proc(proc)
        if kind == "read":
            st.stall_read_s += now - start
        else:
            st.stall_write_s += now - start
        args = {"pipe": key, "bytes": nbytes}
        if broken:
            args["broken"] = True
        if killed:
            args["killed"] = True
        self.span("pipe", f"stall.{kind}", start, now, proc, **args)

    # -- kernel hooks: splice fast path ------------------------------------------------------

    def _endpoint(self, handle) -> str:
        """Canonical name for a splice endpoint (pipe or file handle)."""
        pipe = getattr(handle, "pipe", None)
        if pipe is not None:
            return f"pipe:{self.pipe_key(pipe)}"
        path = getattr(handle, "path", None)
        if path is not None:
            return self.canon_path(path)
        return type(handle).__name__

    def on_splice_begin(self, now: float, proc, src, dsts) -> None:
        self._splice[proc.pid] = (
            now, self._endpoint(src), [self._endpoint(d) for d in dsts])

    def on_splice_end(self, now: float, proc, nbytes: int, chunks: int,
                      error: str = "") -> None:
        entry = self._splice.pop(proc.pid, None)
        if entry is None:
            return
        start, src, dsts = entry
        st = self.accounting.proc(proc)
        st.splice_bytes += nbytes
        st.splice_chunks += chunks
        args = {"bytes": nbytes, "chunks": chunks, "src": src, "dst": dsts}
        if error:
            args["error"] = error
        self.span("splice", "splice", start, now, proc, **args)

    # -- kernel hooks: wait / net / scheduler ------------------------------------------------

    def on_wait_edge(self, now: float, proc, child) -> None:
        self.accounting.proc(proc).waited_on.add(child.pid)

    def on_wait_begin(self, now: float, proc, child) -> None:
        self._wait[proc.pid] = (now, child.pid)

    def on_wait_end(self, now: float, proc, child) -> None:
        entry = self._wait.pop(proc.pid, None)
        if entry is None:
            return
        start, child_pid = entry
        self.accounting.proc(proc).wait_s += now - start
        self.span("wait", "wait", start, now, proc, child=child_pid)

    def on_net(self, now: float, proc, dst: str, nbytes: int) -> None:
        self.accounting.proc(proc).net_bytes += nbytes
        self.instant("net", f"net.send:{dst}", now, proc, bytes=nbytes)

    def on_tick(self, now: float, kernel) -> None:
        self.counter("sched", "sched", now, ready=len(kernel._ready),
                     running=sum(len(n.cpu_active)
                                 for n in kernel.nodes.values()))

    # -- fault hook (repro.vos.faults) ---------------------------------------------------------

    def on_fault(self, now: float, event, op: int) -> None:
        self._emit(TraceRecord(
            f"fault.{event.kind}", "fault", INSTANT, now,
            args={"target": self.canon_path(event.target),
                  "source": event.source, "op": op},
        ))


def format_record(record: TraceRecord) -> str:
    """Render a record as a one-line text string (debug printing and
    ad-hoc subscriber callbacks)."""
    extra = ""
    if record.args:
        extra = " " + " ".join(f"{k}={v}" for k, v in sorted(record.args.items()))
    if record.ph == SPAN:
        return (f"[{record.ts:.6f}+{record.dur:.6f}] {record.cat} "
                f"{record.name} pid={record.pid}{extra}")
    return f"[{record.ts:.6f}] {record.cat} {record.name} pid={record.pid}{extra}"
