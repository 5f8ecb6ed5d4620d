"""The deterministic metrics plane (S19): virtual-clock time series.

A :class:`MetricsRegistry` is the pull-style complement to the
:class:`~repro.obs.tracer.Tracer`: where the tracer records *events*,
the registry maintains *instruments* — typed counters, gauges, and
log2-bucketed histograms, labelled by process/command, node, pipe,
engine, or fault kind — and samples them into windowed time series at
fixed **virtual-time** intervals.  Because the sampling clock is the
simulation clock, two runs of the same seeded workload produce
byte-identical snapshots (:func:`dumps_snapshot` is the witness the
tests and the CI gate compare).

Like the tracer, the registry subclasses
:class:`~repro.obs.hooks.KernelObserver` (overriding only the kernel
events it counts) and is **zero-cost when not installed**: every hook
site in the kernel and the engines is a single ``is not None`` guard,
and no instrument object is ever constructed
(:attr:`MetricsRegistry.total_updates` is the class-level witness).

Three consumers sit on top:

* ``jash run --metrics OUT.json`` — the deterministic snapshot export;
* :func:`render_prometheus` — Prometheus text exposition
  (``# TYPE``/``# HELP`` + sorted sample lines), for scraping a
  long-running ``serve``/``--supervise`` process;
* ``jash stat`` (:mod:`repro.obs.stat`) — per-window tables: top
  commands by CPU/disk/stall, pipe backpressure, cache hit rate over
  time.

Determinism rules (also DESIGN.md §13):

* samples happen only when *virtual* time crosses a window boundary —
  never on the host clock;
* label values are canonical: pipes are renumbered in first-seen order
  and ``/tmp`` scratch paths are renamed, exactly as the tracer does;
* instruments are exported in registration order (itself a function of
  the deterministic simulation), with consecutive identical samples
  collapsed into one window row;
* no wall-clock value, host name, or memory address ever enters an
  instrument or a snapshot.
"""

from __future__ import annotations

import json
import math

from .hooks import KernelObserver

#: histogram bucket exponents are clamped to this range (2^-30 .. 2^40)
_MIN_EXP = -30
_MAX_EXP = 40


def _bucket_exp(value: float) -> int:
    """The log2 bucket for ``value``: smallest e with value <= 2**e."""
    if value <= 0.0:
        return _MIN_EXP
    mantissa, exp = math.frexp(value)  # value = mantissa * 2**exp
    if mantissa == 0.5:
        exp -= 1
    return min(_MAX_EXP, max(_MIN_EXP, exp))


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def sample(self) -> float:
        return self.value


class Gauge:
    """A value that goes up and down (queue depth, occupancy, age)."""

    __slots__ = ("value", "peak")
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)

    def sample(self) -> float:
        return self.value


class Histogram:
    """Log2-bucketed distribution: bucket ``e`` counts observations in
    ``(2**(e-1), 2**e]``.  Samples fold to (count, sum) per window."""

    __slots__ = ("buckets", "count", "sum")
    kind = "histogram"

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        e = _bucket_exp(value)
        self.buckets[e] = self.buckets.get(e, 0) + 1
        self.count += 1
        self.sum += value

    def sample(self) -> float:
        return float(self.count)


class MetricsRegistry(KernelObserver):
    """Typed, labelled instruments sampled on the virtual clock.

    ``interval`` is the sampling window in virtual seconds.  The kernel's
    ``on_tick`` hook calls :meth:`maybe_sample` as the clock advances
    (once per event-loop step); engines and the supervisor update instruments
    through the same get-or-create accessors user code uses.
    """

    #: class-wide count of instrument updates ever applied — the
    #: "zero-cost when not installed" witness (cf. Tracer.total_records).
    total_updates = 0

    def __init__(self, interval: float = 0.25):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.interval = float(interval)
        #: (name, labels-tuple) -> instrument
        self._instruments: dict[tuple, object] = {}
        #: registration order: (name, labels-tuple, instrument)
        self.series: list[tuple[str, tuple, object]] = []
        #: window rows: (t_first, t_last, [value per series at sample])
        self.windows: list[list] = []
        self._next_sample: float = self.interval
        # canonical renumbering for determinism (mirrors the tracer)
        self._pipe_keys: dict[int, int] = {}
        self._tmp_names: dict[str, str] = {}
        # open pipe-stall state, keyed by pid
        self._stall: dict[int, tuple[float, str, int]] = {}
        self._live_procs = 0

    # -- instrument access ---------------------------------------------------

    def _get(self, cls, name: str, labels: tuple):
        key = (name, labels)
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls()
            self._instruments[key] = inst
            self.series.append((name, labels, inst))
        MetricsRegistry.total_updates += 1
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, tuple(sorted(labels.items())))

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, tuple(sorted(labels.items())))

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, tuple(sorted(labels.items())))

    # -- canonical names -----------------------------------------------------

    def pipe_key(self, pipe) -> int:
        key = self._pipe_keys.get(pipe.id)
        if key is None:
            key = len(self._pipe_keys) + 1
            self._pipe_keys[pipe.id] = key
        return key

    def canon_path(self, path: str) -> str:
        if not path.startswith("/tmp/"):
            return path
        canon = self._tmp_names.get(path)
        if canon is None:
            canon = f"/tmp/scratch.{len(self._tmp_names) + 1}"
            self._tmp_names[path] = canon
        return canon

    # -- virtual-clock sampling ----------------------------------------------

    def maybe_sample(self, now: float) -> None:
        """Record a window row for every boundary the clock crossed.

        Between two boundaries crossed by one jump no instrument can
        have changed (updates only happen while time stands still), so
        a run of identical samples collapses into one row spanning
        [t_first, t_last]."""
        if now < self._next_sample:
            return
        values = [inst.sample() for _name, _labels, inst in self.series]
        first = self._next_sample
        last = first
        while self._next_sample <= now:
            last = self._next_sample
            self._next_sample += self.interval
        if self.windows:
            prev = self.windows[-1]
            if prev[2] == values and len(prev[2]) == len(values):
                prev[1] = last
                return
        self.windows.append([first, last, values])

    def finish(self, now: float) -> None:
        """Close the trailing partial window (call once, at run end)."""
        if not self.windows or self.windows[-1][1] < now:
            values = [inst.sample() for _n, _l, inst in self.series]
            if self.windows and self.windows[-1][2] == values:
                self.windows[-1][1] = now
            else:
                self.windows.append([now, now, values])

    # -- kernel hooks (the KernelObserver events this plane counts) ---------

    def on_dispatch(self, now: float, proc, request) -> None:
        self.counter("kernel.dispatches", req=type(request).__name__).inc()
        self.counter("proc.dispatches", proc=proc.name).inc()

    def on_spawn(self, now: float, proc, parent=None) -> None:
        self.counter("proc.spawns", proc=proc.name).inc()
        self._live_procs += 1
        self.gauge("procs.live").set(float(self._live_procs))

    def on_exit(self, now: float, proc) -> None:
        self._live_procs = max(0, self._live_procs - 1)
        self.gauge("procs.live").set(float(self._live_procs))
        if proc.pid in self._stall:
            self.on_pipe_stall_end(now, proc)

    def on_cpu_begin(self, now: float, proc, work: float) -> None:
        """CPU core-seconds, counted at burst submission."""
        self.counter("proc.cpu_s", proc=proc.name).inc(work)
        self.histogram("cpu.burst_s").observe(work)

    def on_disk_submit(self, now: float, disk, request) -> None:
        proc = request.process
        self.gauge("disk.queue_depth", node=proc.node.name).set(
            float(len(disk.queue) + (1 if disk.current else 0)))

    def on_disk_complete(self, now: float, disk, request) -> None:
        proc = request.process
        node = proc.node.name
        self.counter("disk.bytes", node=node).inc(float(request.bytes))
        self.counter("disk.ops", node=node).inc(request.ops)
        self.counter("disk.time_s", node=node).inc(
            max(0.0, now - request.service_start))
        self.counter("proc.disk_bytes", proc=proc.name).inc(
            float(request.bytes))
        self.gauge("disk.credits", node=node).set(disk.credits)
        self.histogram("disk.request_bytes").observe(float(request.bytes))

    def on_pipe_read(self, now: float, proc, pipe, nbytes: int) -> None:
        key = self.pipe_key(pipe)
        self.counter("pipe.read_bytes", pipe=key).inc(float(nbytes))
        self.counter("proc.read_bytes", proc=proc.name).inc(float(nbytes))
        self.gauge("pipe.occupancy", pipe=key).set(float(pipe.size))

    def on_pipe_write(self, now: float, proc, pipe, nbytes: int) -> None:
        key = self.pipe_key(pipe)
        self.counter("pipe.write_bytes", pipe=key).inc(float(nbytes))
        self.gauge("pipe.occupancy", pipe=key).set(float(pipe.size))

    def on_pipe_stall_begin(self, now: float, proc, pipe, kind: str) -> None:
        self._stall[proc.pid] = (now, kind, self.pipe_key(pipe))

    def on_pipe_stall_end(self, now: float, proc, nbytes: int = 0,
                          broken: bool = False) -> None:
        entry = self._stall.pop(proc.pid, None)
        if entry is None:
            return
        start, kind, key = entry
        self.counter("pipe.stalls", pipe=key, kind=kind).inc()
        self.counter("pipe.stall_s", pipe=key, kind=kind).inc(now - start)
        self.counter("proc.stall_s", kind=kind, proc=proc.name).inc(
            now - start)

    def on_splice_chunk(self, now: float, proc, nbytes: int,
                        nparts: int) -> None:
        self.counter("kernel.splice_bytes").inc(float(nbytes))
        self.counter("kernel.splice_chunks").inc(float(nparts))

    def on_net(self, now: float, proc, dst: str, nbytes: int) -> None:
        self.counter("net.bytes", node=proc.node.name).inc(float(nbytes))

    def on_tick(self, now: float, kernel) -> None:
        if now >= self._next_sample:
            self.maybe_sample(now)

    def on_fault(self, now: float, event, op: int) -> None:
        self.counter("faults.fired", kind=event.kind).inc()

    # -- snapshot / export ---------------------------------------------------

    def value(self, name: str, **labels) -> float:
        """Current sample value of one instrument (0.0 if absent)."""
        inst = self._instruments.get((name, tuple(sorted(labels.items()))))
        return inst.sample() if inst is not None else 0.0

    def sum_by_name(self, name: str) -> float:
        """Sum of an instrument's sample value across all label sets."""
        return sum(inst.sample() for n, _l, inst in self.series if n == name)

    def snapshot(self) -> dict:
        """The deterministic, JSON-able state of every instrument plus
        the windowed time series (sparse: each window row carries only
        the series whose value changed since the previous row)."""
        series = []
        for name, labels, inst in self.series:
            entry: dict = {"name": name, "kind": inst.kind,
                           "labels": {k: v for k, v in labels}}
            if inst.kind == "histogram":
                entry["count"] = inst.count
                entry["sum"] = round(inst.sum, 9)
                entry["buckets"] = {str(e): c for e, c
                                    in sorted(inst.buckets.items())}
            else:
                entry["value"] = round(inst.value, 9)
                if inst.kind == "gauge":
                    entry["peak"] = round(inst.peak, 9)
            series.append(entry)
        windows = []
        prev: list = []
        for t0, t1, values in self.windows:
            changed = {
                str(i): round(v, 9)
                for i, v in enumerate(values)
                if i >= len(prev) or v != prev[i]
            }
            windows.append({"t": round(t0, 9), "end": round(t1, 9),
                            "values": changed})
            prev = values
        return {
            "clock": "virtual",
            "interval": self.interval,
            "series": series,
            "windows": windows,
        }


def dumps_snapshot(registry: MetricsRegistry) -> str:
    """Serialize deterministically (sorted keys, fixed separators) —
    two same-seed runs must produce byte-identical strings."""
    return json.dumps(registry.snapshot(), sort_keys=True,
                      separators=(",", ":"))


def dump_snapshot(registry: MetricsRegistry, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_snapshot(registry))
        fh.write("\n")


# -- Prometheus text exposition ----------------------------------------------

def _prom_name(name: str) -> str:
    return "jash_" + name.replace(".", "_").replace("-", "_")


def _prom_labels(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


def _prom_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition format, deterministically ordered
    (families sorted by name, samples by label set)."""
    families: dict[str, list] = {}
    kinds: dict[str, str] = {}
    for name, labels, inst in registry.series:
        families.setdefault(name, []).append((labels, inst))
        kinds[name] = inst.kind
    lines: list[str] = []
    for name in sorted(families):
        kind = kinds[name]
        pname = _prom_name(name)
        if kind == "counter":
            pname += "_total"
        lines.append(f"# TYPE {pname} "
                     f"{'histogram' if kind == 'histogram' else kind}")
        for labels, inst in sorted(families[name], key=lambda kv: kv[0]):
            label_s = _prom_labels(labels)
            if kind == "histogram":
                cum = 0
                for e, c in sorted(inst.buckets.items()):
                    cum += c
                    le = 2.0 ** e
                    bucket_labels = labels + (("le", _prom_value(le)),)
                    lines.append(f"{pname}_bucket"
                                 f"{_prom_labels(bucket_labels)} {cum}")
                inf_labels = labels + (("le", "+Inf"),)
                lines.append(f"{pname}_bucket{_prom_labels(inf_labels)} "
                             f"{inst.count}")
                lines.append(f"{pname}_sum{label_s} "
                             f"{_prom_value(round(inst.sum, 9))}")
                lines.append(f"{pname}_count{label_s} {inst.count}")
            else:
                lines.append(f"{pname}{label_s} "
                             f"{_prom_value(round(inst.value, 9))}")
    return "\n".join(lines) + "\n"
