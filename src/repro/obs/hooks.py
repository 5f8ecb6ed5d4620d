"""The kernel-event vocabulary: one name and one signature per event.

:class:`KernelObserver` lists every hook the vOS kernel
(:mod:`repro.vos.kernel`) and the fault plan (:mod:`repro.vos.faults`)
emit, each as a no-op.  A sink subclasses it and overrides only the
events it records — :class:`~repro.obs.tracer.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry` are the two sinks.

The kernel holds a single observation slot, ``kernel.obs``, built by
:func:`observer_slot`: ``None`` when nothing is installed, the sink
itself when one is, and a :class:`FanOut` when both are.  Every hook
site is therefore one guard::

    obs = self.obs
    if obs is not None:
        obs.on_x(now, ...)

so an unobserved kernel pays one ``is not None`` check per event and
never builds an argument tuple, record or instrument.
"""

from __future__ import annotations


class KernelObserver:
    """No-op base for kernel-event sinks.  Every hook takes the virtual
    time ``now`` first; the rest of the signature is the event's."""

    # -- processes -----------------------------------------------------------

    def on_spawn(self, now: float, proc, parent=None) -> None:
        """``proc`` was created (``parent`` is None for a root)."""

    def on_exit(self, now: float, proc) -> None:
        """``proc`` finished; ``proc.exit_status``/``proc.error`` are set."""

    def on_dispatch(self, now: float, proc, request) -> None:
        """One syscall ``request`` crossed the process → kernel boundary."""

    # -- CPU -------------------------------------------------------------------

    def on_cpu_begin(self, now: float, proc, work: float) -> None:
        """A burst of ``work`` core-seconds was submitted."""

    def on_cpu_end(self, now: float, proc) -> None:
        """The open burst of ``proc`` completed."""

    def on_cpu_killed(self, now: float, proc, remaining: float) -> None:
        """``proc`` was killed with ``remaining`` core-seconds unrun."""

    # -- disk ------------------------------------------------------------------

    def on_disk_submit(self, now: float, disk, request) -> None:
        """A request was queued on ``disk`` (or started at once)."""

    def on_disk_complete(self, now: float, disk, request) -> None:
        """``disk`` finished serving ``request``."""

    # -- pipes -----------------------------------------------------------------

    def on_pipe_read(self, now: float, proc, pipe, nbytes: int) -> None:
        """``proc`` pulled ``nbytes`` out of ``pipe``."""

    def on_pipe_write(self, now: float, proc, pipe, nbytes: int) -> None:
        """``proc`` pushed ``nbytes`` into ``pipe``."""

    def on_pipe_stall_begin(self, now: float, proc, pipe, kind: str) -> None:
        """``proc`` blocked on ``pipe`` (``kind`` is "read" or "write")."""

    def on_pipe_stall_end(self, now: float, proc, nbytes: int = 0,
                          broken: bool = False) -> None:
        """The open stall of ``proc`` ended after moving ``nbytes``;
        ``broken`` marks a writer woken by a vanished reader."""

    # -- splice fast path --------------------------------------------------------

    def on_splice_begin(self, now: float, proc, src, dsts) -> None:
        """A kernel-side pump from ``src`` to ``dsts`` started."""

    def on_splice_chunk(self, now: float, proc, nbytes: int,
                        nparts: int) -> None:
        """The pump read one chunk vector of ``nparts`` parts."""

    def on_splice_end(self, now: float, proc, nbytes: int, chunks: int,
                      error: str = "") -> None:
        """The pump stopped (at EOF, or with ``error``)."""

    # -- wait / network / scheduler / faults -----------------------------------------

    def on_wait_edge(self, now: float, proc, child) -> None:
        """``proc`` waited on ``child`` (running or already done)."""

    def on_wait_begin(self, now: float, proc, child) -> None:
        """``proc`` blocked until ``child`` exits."""

    def on_wait_end(self, now: float, proc, child) -> None:
        """``child`` exited and woke the blocked ``proc``."""

    def on_net(self, now: float, proc, dst: str, nbytes: int) -> None:
        """``proc`` sent ``nbytes`` to node ``dst``."""

    def on_tick(self, now: float, kernel) -> None:
        """The clock advanced to ``now`` (once per event-loop step)."""

    def on_fault(self, now: float, event, op: int) -> None:
        """The fault plan fired ``event`` at its ``op``-th operation."""


#: every hook name, in declaration order
HOOKS = tuple(name for name in vars(KernelObserver) if name.startswith("on_"))


def _fan(methods):
    if len(methods) == 1:
        return methods[0]

    def fan(*args, **kwargs):
        for method in methods:
            method(*args, **kwargs)
    return fan


class FanOut(KernelObserver):
    """Several sinks in one slot.  Each hook is generated from
    :data:`HOOKS`: it calls, in sink order, only the sinks that override
    it (a hook exactly one sink records is that sink's bound method)."""

    def __init__(self, *sinks: KernelObserver):
        for name in HOOKS:
            noop = getattr(KernelObserver, name)
            methods = [getattr(sink, name) for sink in sinks
                       if getattr(type(sink), name) is not noop]
            if methods:
                setattr(self, name, _fan(methods))


def observer_slot(*sinks):
    """The value of an observation slot for the installed ``sinks``
    (``None`` entries are skipped): None, the lone sink, or a fan-out."""
    present = [sink for sink in sinks if sink is not None]
    if not present:
        return None
    if len(present) == 1:
        return present[0]
    return FanOut(*present)
