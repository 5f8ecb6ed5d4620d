"""Deterministic fault injection for the virtual OS.

The paper's §4 asks for a shell that is "fault tolerant" — able to
re-execute failed work safely.  The seed kernel assumed every disk read,
pipe write, and process succeeds; this module is the chaos layer that
breaks that assumption on purpose.  A :class:`FaultPlan` is installed on
a :class:`~repro.vos.kernel.Kernel` (``Shell(faults=...)`` or
``kernel.faults = plan``) and is consulted at syscall dispatch:

* ``disk-error`` — the operation fails with :class:`InjectedDiskError`
  (EIO analogue); the victim process exits with status 74
  (``EX_IOERR`` from sysexits.h).
* ``disk-slow`` — the disk request's service time is multiplied by
  ``slow_factor`` (a transient brown-out, not a failure).
* ``pipe-break`` — the write fails with :class:`InjectedPipeBreak`
  (also exit 74; deliberately distinct from a benign SIGPIPE 141).
* ``crash`` — the process performing the operation (or, for
  time-triggered specs, every matching process) is SIGKILLed
  (exit 137).
* ``partial-write`` — a *torn* write: a deterministic prefix
  (``fraction`` of the payload) reaches the file or pipe before the
  operation fails with :class:`InjectedPartialWrite` (exit 74).
  Unlike ``disk-error``, state HAS been mutated — this is the fault
  that crash-consistent recovery layers must survive.
* ``net-error`` — a cross-node transfer is lost; the sender dies
  with :class:`InjectedNetError` (exit 74, connection-reset analogue).
* ``net-partition`` — spec-only: during the window ``[at, at +
  duration)`` every matching cross-node send fails.  Window firings
  are recorded (source ``"window"``) but do not consume the
  ``max_faults`` storm budget — a partition is a condition, not an
  event.

Network faults draw from a *separate* seeded RNG and op counter
(``net_ops``), so installing them never perturbs the disk/pipe fault
schedule of an existing seed.  Specs may also target a fault *path*
via ``via=`` (``"splice"`` for the PR 5 kernel pump, ``"writev"`` for
vectored writes) to aim injections at the zero-copy fast paths.

Faults fire from two sources, both deterministic:

* explicit :class:`FaultSpec` entries matching an *operation count*
  (the Nth fault-eligible operation: disk reads/writes and pipe
  writes) or a *virtual time*, optionally filtered by node name,
  path prefix, or process-name prefix;
* a seeded Bernoulli ``rate`` over eligible operations, drawn from
  ``random.Random(seed)`` — the simulation itself is deterministic,
  so the same seed over the same workload yields the same faults at
  the same virtual times.

Every firing is appended to :attr:`FaultPlan.log`, which doubles as
the reproducibility witness: two runs of the same workload under the
same plan must produce identical logs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

# Exit status of a process killed by an injected I/O fault
# (sysexits.h EX_IOERR).
EX_IOERR = 74
# Exit status of a crashed (SIGKILLed) process: 128 + SIGKILL.
CRASH_STATUS = 137
#: Statuses that recovery layers treat as fault-suspected failures.
FAULT_STATUSES = frozenset({EX_IOERR, CRASH_STATUS})

DISK_ERROR = "disk-error"
DISK_SLOW = "disk-slow"
PIPE_BREAK = "pipe-break"
CRASH = "crash"
PARTIAL_WRITE = "partial-write"
NET_ERROR = "net-error"
NET_PARTITION = "net-partition"
KINDS = (DISK_ERROR, DISK_SLOW, PIPE_BREAK, CRASH,
         PARTIAL_WRITE, NET_ERROR, NET_PARTITION)

_DISK_READ_KINDS = (DISK_ERROR, DISK_SLOW, CRASH)
_DISK_WRITE_KINDS = (DISK_ERROR, DISK_SLOW, CRASH, PARTIAL_WRITE)
#: back-compat alias (reads)
_DISK_KINDS = _DISK_READ_KINDS
_PIPE_KINDS = (PIPE_BREAK, CRASH, PARTIAL_WRITE)
_NET_KINDS = (NET_ERROR,)
#: fault-path tags accepted by FaultSpec.via
VIA_TAGS = ("splice", "writev")


@dataclass
class FaultSpec:
    """One explicit fault trigger.

    Exactly one of ``op`` (fire on the Nth eligible operation, 1-based;
    network specs count ``net_ops``) or ``at`` (fire at/after a virtual
    time) should be set; ``node``, ``path`` and ``proc`` narrow the
    blast radius by node name, path prefix, and process-name prefix,
    and ``via`` by fault path (``"splice"`` / ``"writev"``).  ``times``
    bounds how often the spec fires (time-triggered crashes always fire
    exactly once, killing every matching process at that instant).
    ``fraction`` sets the torn prefix of a ``partial-write``;
    ``duration`` sets the window length of a ``net-partition`` (which
    needs ``at`` and fires on every matching send inside the window,
    ignoring ``times``).
    """

    kind: str
    op: Optional[int] = None
    at: Optional[float] = None
    node: Optional[str] = None
    path: Optional[str] = None
    proc: Optional[str] = None
    slow_factor: float = 8.0
    times: int = 1
    via: Optional[str] = None
    fraction: float = 0.5
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; have {KINDS}")
        if self.slow_factor <= 0:
            raise ValueError(f"slow_factor must be > 0, got {self.slow_factor}")
        if self.via is not None and self.via not in VIA_TAGS:
            raise ValueError(f"unknown via {self.via!r}; have {VIA_TAGS}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        if self.kind == NET_PARTITION and self.at is None:
            raise ValueError("net-partition specs need at= (window start)")


@dataclass
class FaultEvent:
    """One fault firing, recorded for determinism checks."""

    time: float
    kind: str
    target: str
    source: str  # "spec" or "rate"

    def brief(self) -> str:
        return f"{self.time:.6f} {self.kind} {self.target} [{self.source}]"


class _SpecState:
    __slots__ = ("spec", "remaining")

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.remaining = max(0, spec.times)


class FaultPlan:
    """A seedable, deterministic schedule of injected faults.

    ``FaultPlan(seed=7, rate=0.05)`` fails ~5% of eligible operations;
    ``FaultPlan(specs=[FaultSpec("crash", at=0.5, proc="sort")])``
    kills every ``sort`` process at virtual time 0.5.  ``max_faults``
    caps the total number of firings (rate *and* spec), modelling a
    transient fault storm after which retries are guaranteed to see a
    healthy system.

    A plan is stateful (RNG position, op counter, log); use
    :meth:`reset` or a fresh plan to replay a workload.
    """

    def __init__(self, seed: int = 0, rate: float = 0.0,
                 kinds: tuple[str, ...] = (DISK_ERROR,),
                 specs: tuple[FaultSpec, ...] = (),
                 slow_factor: float = 8.0,
                 max_faults: Optional[int] = None,
                 fraction: float = 0.5):
        for kind in kinds:
            if kind not in KINDS:
                raise ValueError(f"unknown fault kind {kind!r}; have {KINDS}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if slow_factor <= 0:
            raise ValueError(f"slow_factor must be > 0, got {slow_factor}")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        self.seed = seed
        self.rate = rate
        self.kinds = tuple(kinds)
        self.specs = tuple(specs)
        self.slow_factor = slow_factor
        self.max_faults = max_faults
        self.fraction = fraction
        #: the kernel's observation slot (repro.obs.hooks), wired by
        #: the kernel: every firing is reported through ``on_fault``
        self.obs = None
        self.reset()

    def reset(self) -> None:
        """Rewind the plan to its initial state (same seed, empty log)."""
        self._rng = random.Random(self.seed)
        # Network faults draw from a distinct stream so that enabling
        # them leaves the disk/pipe schedule of a seed untouched.
        self._net_rng = random.Random(self.seed ^ 0x5DEECE66D)
        self._states = [_SpecState(s) for s in self.specs]
        self.ops = 0
        self.net_ops = 0
        self._budget_used = 0
        self.log: list[FaultEvent] = []

    def fork(self) -> "FaultPlan":
        """A fresh, unfired copy of this plan (for replay runs)."""
        return FaultPlan(seed=self.seed, rate=self.rate, kinds=self.kinds,
                         specs=self.specs, slow_factor=self.slow_factor,
                         max_faults=self.max_faults, fraction=self.fraction)

    # -- bookkeeping -------------------------------------------------------------

    @property
    def fired(self) -> int:
        return len(self.log)

    def _budget_left(self) -> bool:
        return self.max_faults is None or self._budget_used < self.max_faults

    def _record(self, now: float, kind: str, target: str, source: str,
                counted: bool = True) -> None:
        event = FaultEvent(now, kind, target, source)
        self.log.append(event)
        if counted:
            self._budget_used += 1
        obs = self.obs
        if obs is not None:
            obs.on_fault(now, event, self.ops)

    def trace(self) -> list[str]:
        """The virtual-time fault trace (for determinism assertions)."""
        return [event.brief() for event in self.log]

    # -- matching ---------------------------------------------------------------

    def _matches(self, spec: FaultSpec, now: float, proc, path: Optional[str],
                 via: Optional[str] = None, ops: Optional[int] = None) -> bool:
        count = self.ops if ops is None else ops
        if spec.op is not None and spec.op != count:
            return False
        if spec.at is not None and now < spec.at:
            return False
        if spec.op is None and spec.at is None:
            return False
        if spec.node is not None and proc.node.name != spec.node:
            return False
        if spec.proc is not None and not proc.name.startswith(spec.proc):
            return False
        if spec.path is not None:
            if path is None or not path.startswith(spec.path):
                return False
        if spec.via is not None and spec.via != via:
            return False
        return True

    def _explicit(self, eligible: tuple[str, ...], now: float, proc,
                  path: Optional[str], via: Optional[str] = None,
                  ops: Optional[int] = None) -> Optional[FaultSpec]:
        for state in self._states:
            spec = state.spec
            if state.remaining <= 0 or spec.kind not in eligible:
                continue
            if spec.at is not None and spec.op is None and spec.kind == CRASH:
                continue  # timed crashes fire via due_timed_crashes()
            if not self._matches(spec, now, proc, path, via, ops):
                continue
            if not self._budget_left():
                return None
            state.remaining -= 1
            return spec
        return None

    def _random_kind(self, eligible: tuple[str, ...]) -> Optional[str]:
        kinds = [k for k in self.kinds if k in eligible]
        # Always draw once per eligible op so the RNG stream (and hence
        # the fault schedule) is independent of which ops hit faults.
        draw = self._rng.random()
        if not kinds or self.rate <= 0.0 or draw >= self.rate:
            return None
        if not self._budget_left():
            return None
        if len(kinds) == 1:
            return kinds[0]
        return kinds[int(self._rng.random() * len(kinds)) % len(kinds)]

    # -- kernel consultation -----------------------------------------------------

    def on_disk_io(self, now: float, proc, path: str, write: bool = False,
                   via: Optional[str] = None):
        """Consulted before every file read/write that reaches a disk.
        Returns None, or ``(kind, factor)`` where ``factor`` is the
        slow multiplier for ``disk-slow`` and the torn prefix fraction
        for ``partial-write`` (write ops only)."""
        self.ops += 1
        # Scratch files under /tmp embed a process-global counter in
        # their names; canonicalize them by the plan's op counter so
        # traces are identical across fresh kernels with the same seed.
        shown = path if not path.startswith("/tmp/") else f"tmp@op{self.ops}"
        eligible = _DISK_WRITE_KINDS if write else _DISK_READ_KINDS
        spec = self._explicit(eligible, now, proc, path, via)
        if spec is not None:
            self._record(now, spec.kind, f"{proc.name}:{shown}", "spec")
            factor = (spec.fraction if spec.kind == PARTIAL_WRITE
                      else spec.slow_factor)
            return spec.kind, factor
        kind = self._random_kind(eligible)
        if kind is not None:
            self._record(now, kind, f"{proc.name}:{shown}", "rate")
            factor = self.fraction if kind == PARTIAL_WRITE else self.slow_factor
            return kind, factor
        return None

    def on_pipe_write(self, now: float, proc, pipe, via: Optional[str] = None):
        """Consulted before every pipe write.  Returns None, a kind, or
        ``(PARTIAL_WRITE, fraction)`` for torn pipe writes."""
        self.ops += 1
        # Name the target by the plan's own op counter, not the pipe's
        # process-global id: traces must be identical across fresh
        # kernels run with the same seed.
        target = f"{proc.name}:pipe@op{self.ops}"
        spec = self._explicit(_PIPE_KINDS, now, proc, None, via)
        if spec is not None:
            self._record(now, spec.kind, target, "spec")
            if spec.kind == PARTIAL_WRITE:
                return spec.kind, spec.fraction
            return spec.kind
        kind = self._random_kind(_PIPE_KINDS)
        if kind is not None:
            self._record(now, kind, target, "rate")
            if kind == PARTIAL_WRITE:
                return kind, self.fraction
            return kind
        return None

    # -- network consultation ----------------------------------------------------

    def _partition_active(self, now: float, proc, dst_node: str) -> Optional[FaultSpec]:
        for state in self._states:
            spec = state.spec
            if spec.kind != NET_PARTITION:
                continue
            if not (spec.at <= now < spec.at + spec.duration):
                continue
            if spec.node is not None and spec.node not in (proc.node.name,
                                                           dst_node):
                continue
            if spec.proc is not None and not proc.name.startswith(spec.proc):
                continue
            return spec
        return None

    def on_net_send(self, now: float, proc, dst_node: str):
        """Consulted before every cross-node transfer.  Returns None or
        a net fault kind.  Draws from the dedicated net RNG stream and
        ``net_ops`` counter, never from the disk/pipe stream."""
        self.net_ops += 1
        target = f"{proc.name}:net@op{self.net_ops}->{dst_node}"
        part = self._partition_active(now, proc, dst_node)
        if part is not None:
            # a partition is a standing condition: record the blocked
            # send but do not consume the fault-storm budget
            self._record(now, NET_PARTITION, target, "window", counted=False)
            return NET_PARTITION
        spec = self._explicit(_NET_KINDS, now, proc, None, ops=self.net_ops)
        if spec is not None:
            self._record(now, spec.kind, target, "spec")
            return spec.kind
        # Always draw once per send so the net schedule is independent
        # of which sends hit faults (mirrors _random_kind).
        draw = self._net_rng.random()
        if (NET_ERROR in self.kinds and self.rate > 0.0 and draw < self.rate
                and self._budget_left()):
            self._record(now, NET_ERROR, target, "rate")
            return NET_ERROR
        return None

    # -- time-triggered crashes ---------------------------------------------------

    def next_timed_crash(self) -> Optional[float]:
        """Earliest pending time-triggered crash (a kernel event-time
        candidate)."""
        times = [
            state.spec.at for state in self._states
            if state.remaining > 0 and state.spec.kind == CRASH
            and state.spec.at is not None and state.spec.op is None
        ]
        if not times or not self._budget_left():
            return None
        return min(times)

    def due_timed_crashes(self, now: float) -> list[FaultSpec]:
        """Pop the time-triggered crash specs due at/before ``now``.
        Each fires exactly once (killing all matching processes)."""
        due: list[FaultSpec] = []
        for state in self._states:
            spec = state.spec
            if (state.remaining > 0 and spec.kind == CRASH
                    and spec.at is not None and spec.op is None
                    and spec.at <= now and self._budget_left()):
                state.remaining = 0
                due.append(spec)
        return due

    def crash_matches(self, spec: FaultSpec, proc) -> bool:
        """Does a time-triggered crash spec target this process?"""
        if spec.node is not None and proc.node.name != spec.node:
            return False
        if spec.proc is not None and not proc.name.startswith(spec.proc):
            return False
        return True

    def record_crash(self, now: float, target: str) -> None:
        self._record(now, CRASH, target, "spec")
