"""The persistent forked worker pool.

One pool serves every Shell in the process (workers fork lazily on the
first dispatched region, so ``--jobs N`` costs nothing until a region
actually ships).  Tasks and results travel over pipes; large payloads
travel as spill files under the pool's private scratch directory —
which doubles as the host-level write set: a worker that writes
anywhere else has broken the snapshot protocol, and the coordinator
validates every returned path against the scratch root before touching
it.

Failure model: a worker that raises returns an error result; a worker
that dies (crash, chaos injection, kill) trips its process sentinel in
``connection.wait``.  In-flight tasks of a dead worker are resubmitted
up to ``RetryPolicy.max_retries`` times to a respawned worker; a task
that exhausts the budget (or outlives the watchdog deadline) fails the
whole region, which the coordinator then degrades to in-process
execution — the same ladder supervision uses for crashed rounds.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Callable, Optional

from ..distributed.retry import RetryPolicy

DEFAULT_MIN_SHIP = 4 << 20  # bytes: below this a region never ships


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "")
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


@dataclass
class PoolConfig:
    jobs: int = 1
    #: volume gate floor (env JASH_POOL_MIN_BYTES overrides; difftest
    #: campaigns set 0 so tiny corpora still exercise the machinery)
    min_ship_bytes: int = field(
        default_factory=lambda: _env_int("JASH_POOL_MIN_BYTES",
                                         DEFAULT_MIN_SHIP))
    #: host-wall watchdog + resubmit budget for worker tasks
    policy: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_retries=1, timeout_s=60.0))
    card_limit: int = 4096

    @property
    def watchdog_s(self) -> float:
        return self.policy.timeout_s if self.policy.timeout_s else 60.0


def _worker_main(conn, worker_id: int) -> None:  # pragma: no cover - subprocess
    from . import kernels

    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        if task is None:
            os._exit(0)
        t0 = time.perf_counter()
        try:
            result = kernels.run_task(task)
            result["ok"] = True
        except BaseException as exc:  # noqa: BLE001 - reported, not raised
            result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        result["task_id"] = task["task_id"]
        result["worker"] = worker_id
        result["host_s"] = time.perf_counter() - t0
        try:
            conn.send(result)
        except (BrokenPipeError, OSError):
            os._exit(1)


class _Worker:
    def __init__(self, ctx, worker_id: int):
        self.id = worker_id
        parent, child = ctx.Pipe()
        self.conn = parent
        self.proc = ctx.Process(target=_worker_main, args=(child, worker_id),
                                daemon=True, name=f"jash-pool-{worker_id}")
        self.proc.start()
        child.close()
        self.inflight: dict[int, dict] = {}  # task_id -> task


class WorkerPool:
    """``jobs`` forked workers with crash retry and accounting."""

    def __init__(self, config: PoolConfig):
        self.config = config
        self.scratch = tempfile.mkdtemp(prefix="jash-pool-")
        self._ctx = multiprocessing.get_context("fork")
        self._workers: list[_Worker] = []
        self._next_task = 0
        self._next_worker_id = 0
        self._results: dict[int, dict] = {}
        self._failed: set[int] = set()
        self._attempts: dict[int, int] = {}
        self._closed = False
        #: per-worker accounting surfaced in ``jash stat``
        self.worker_stats: dict[int, dict] = {}
        #: test hook — reorders each batch of ready results before the
        #: coordinator consumes them (adversarial completion order)
        self.reorder_hook: Optional[Callable[[list], list]] = None
        shuffle = os.environ.get("JASH_POOL_SHUFFLE")
        if shuffle:
            rng = random.Random(int(shuffle))
            self.reorder_hook = lambda batch: rng.sample(batch, len(batch))

    # -- lifecycle --------------------------------------------------------

    def _ensure_started(self) -> None:
        # workers fork lazily, one at a time: forking duplicates the
        # parent's page tables, so idle workers beyond the number of
        # concurrent tasks are pure startup cost (see _dispatch)
        if not self._workers:
            self._spawn_worker()

    def _spawn_worker(self) -> _Worker:
        worker = _Worker(self._ctx, self._next_worker_id)
        self._next_worker_id += 1
        self._workers.append(worker)
        self.worker_stats[worker.id] = {
            "tasks": 0, "host_s": 0.0, "bytes_in": 0, "bytes_out": 0,
            "crashes": 0,
        }
        return worker

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
            worker.conn.close()
        self._workers.clear()
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- task plane -------------------------------------------------------

    def spill_path(self, stem: str) -> str:
        return os.path.join(self.scratch, stem)

    def owns(self, path: str) -> bool:
        """Scratch-root containment check for returned spill paths."""
        return os.path.realpath(path).startswith(
            os.path.realpath(self.scratch) + os.sep)

    def submit(self, task: dict) -> int:
        self._ensure_started()
        task_id = self._next_task
        self._next_task += 1
        task = dict(task)
        task["task_id"] = task_id
        self._attempts[task_id] = 1
        self._dispatch(task)
        return task_id

    def _dispatch(self, task: dict) -> None:
        if (len(self._workers) < max(1, self.config.jobs)
                and all(w.inflight for w in self._workers)):
            self._spawn_worker()
        worker = min(self._workers, key=lambda w: len(w.inflight))
        worker.inflight[task["task_id"]] = task
        try:
            worker.conn.send(task)
        except (BrokenPipeError, OSError):
            self._reap(worker)

    def _reap(self, worker: _Worker) -> None:
        """A worker died: respawn and resubmit its in-flight tasks, or
        fail those whose retry budget is spent."""
        if worker in self._workers:
            self._workers.remove(worker)
        self.worker_stats[worker.id]["crashes"] += 1
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.is_alive():
            worker.proc.terminate()
        orphans = list(worker.inflight.values())
        worker.inflight.clear()
        self._ensure_started()
        policy = self.config.policy
        for task in orphans:
            tid = task["task_id"]
            attempts = self._attempts.get(tid, 1)
            # re-execution number is 1-based: a task attempted once may
            # start re-execution #1
            if policy.should_retry(attempts):
                self._attempts[tid] = attempts + 1
                task.pop("chaos", None)  # a chaos crash only fires once
                self._dispatch(task)
            else:
                self._failed.add(tid)

    def _drain_ready(self, timeout: float) -> bool:
        """Collect any ready results; True if something arrived."""
        waitables: list = []
        by_conn: dict = {}
        by_sentinel: dict = {}
        for worker in self._workers:
            waitables.append(worker.conn)
            by_conn[worker.conn] = worker
            waitables.append(worker.proc.sentinel)
            by_sentinel[worker.proc.sentinel] = worker
        if not waitables:
            return False
        ready = connection.wait(waitables, timeout)
        if not ready:
            return False
        batch: list[dict] = []
        dead: list[_Worker] = []
        for item in ready:
            worker = by_conn.get(item)
            if worker is not None:
                try:
                    while worker.conn.poll():
                        batch.append(worker.conn.recv())
                except (EOFError, OSError):
                    dead.append(worker)
                continue
            dead.append(by_sentinel[item])
        if self.reorder_hook is not None and len(batch) > 1:
            batch = self.reorder_hook(list(batch))
        for result in batch:
            self._accept(result)
        for worker in dead:
            if worker in self._workers and not worker.proc.is_alive():
                self._reap(worker)
        return bool(batch) or bool(dead)

    def _accept(self, result: dict) -> None:
        task_id = result["task_id"]
        for worker in self._workers:
            task = worker.inflight.pop(task_id, None)
            if task is not None:
                break
        else:
            return  # stale duplicate (e.g. post-timeout arrival)
        stats = self.worker_stats.setdefault(
            result["worker"],
            {"tasks": 0, "host_s": 0.0, "bytes_in": 0, "bytes_out": 0,
             "crashes": 0})
        stats["tasks"] += 1
        stats["host_s"] += result.get("host_s", 0.0)
        stats["bytes_in"] += result.get("bytes_in", 0)
        stats["bytes_out"] += result.get("bytes_out", 0)
        if result.get("ok"):
            self._results[task_id] = result
        else:
            self._failed.add(task_id)

    def wait_for(self, task_ids: list[int], deadline: float):
        """Block until every task finished or ``deadline`` (host clock,
        ``time.monotonic``) passes.  Returns (results | None, failed).
        Each task is waited on once: a finished wait hands its results
        over and forgets the tasks, so the pool holds no result longer
        than the region that asked for it."""
        pending = [t for t in task_ids
                   if t not in self._results and t not in self._failed]
        while pending:
            if any(t in self._failed for t in task_ids):
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None, {t for t in task_ids if t in self._failed}
            self._drain_ready(min(remaining, 0.25))
            pending = [t for t in task_ids
                       if t not in self._results and t not in self._failed]
        failed = {t for t in task_ids if t in self._failed}
        results = [self._results.pop(t, None) for t in task_ids]
        self._failed -= failed
        if failed:
            return None, failed
        return results, set()


_GLOBAL_POOL: Optional[WorkerPool] = None


def get_global_pool(config: PoolConfig) -> WorkerPool:
    """The process-wide pool, grown to at least ``config.jobs`` workers."""
    global _GLOBAL_POOL
    if _GLOBAL_POOL is None or _GLOBAL_POOL._closed:
        _GLOBAL_POOL = WorkerPool(config)
        atexit.register(shutdown_global_pool)
    elif config.jobs > _GLOBAL_POOL.config.jobs:
        # raising the budget is enough: workers fork on demand
        _GLOBAL_POOL.config.jobs = config.jobs
    return _GLOBAL_POOL


def shutdown_global_pool() -> None:
    global _GLOBAL_POOL
    if _GLOBAL_POOL is not None:
        _GLOBAL_POOL.close()
        _GLOBAL_POOL = None
