"""Dispatch, deterministic merge, and the per-stage oracles.

The coordinator owns the virtual side of the pool protocol.  Per run it
analyzes the program (S16/S20), detects gated regions, snapshots their
input files, and ships part tasks to the pool.  Results merge by part
*index* — never by arrival order — so completion order is irrelevant by
construction (the shuffle-injection tests drive this).  Squeeze seams
between tr parts are repaired at merge exactly the way the serial tr's
cross-chunk ``last_byte`` carry would have: a leading run of the
previous part's final kept byte collapses into it.

Oracles are the only objects the simulation ever sees.  Each stage of
an oracled pipeline gets a fresh oracle per execution; the oracle
validates every chunk the stage actually reads against the precomputed
stream (incremental memcmp over memoryviews) and hands back precomputed
output.  Any divergence — input changed since the snapshot, worker
crash, watchdog expiry, fault-corrupted buffer — kills the oracle
mid-stream and the stage's own code resumes with reconstructed carry
state.  Output mappings are prefix-stable, so the bytes already emitted
are exactly the serial bytes and the fallback is invisible.

Virtual-time identity needs no merging at all: every virtual op (read,
CPU charge, write, fault decision) still executes in the simulation in
the same order with the same arguments, so the fault plan's op counters
advance identically at any ``--jobs``.
"""

from __future__ import annotations

import os
import time
from array import array
from bisect import bisect_right
from typing import Optional

from .kernels import GRID_STEP, assemble_counts, tr_block
from .pool import PoolConfig, WorkerPool, _env_int, get_global_pool
from .regions import RegionPlan, detect_regions

PENDING, DISPATCHED, TR_READY, READY, FAILED = (
    "pending", "dispatched", "tr_ready", "ready", "failed")


class RegionState:
    def __init__(self, plan: RegionPlan, region_no: int):
        self.plan = plan
        self.no = region_no
        self.status = PENDING
        self.snapshot: bytes = b""
        self.in_spill: str = ""
        self.deadline: float = 0.0
        self.tr_task_ids: list[int] = []
        self.sort_task_ids: list[int] = []
        self.merge_task_id: Optional[int] = None
        #: seam-merged output stream + global grid per tr stage
        self.streams: list[bytes] = []
        self.grids: list[array] = []
        self.sorted_stream: bytes = b""
        self.run_ends: array = array("q")
        self.n_lines: int = 0
        self.host_s: float = 0.0
        #: single-part fast path: the lone part's final-stage spill is
        #: byte-identical to the merged stream (a first part never
        #: trims), so the sort wave can read it without a rewrite
        self.final_spill: Optional[str] = None
        #: fused tr+sort results (single-part regions): the tr wave's
        #: result dicts already carry the sort parts
        self.sort_results: Optional[list] = None

    @property
    def pre_sort_stream(self) -> bytes:
        return self.streams[-1] if self.streams else self.snapshot


class HostCoordinator:
    """One per Shell; shares the process-global worker pool."""

    def __init__(self, config: PoolConfig):
        self.config = config
        self.pool: Optional[WorkerPool] = None
        self._regions: dict[int, RegionState] = {}
        self._region_no = 0
        self._fs = None
        self.stats = {
            "regions_detected": 0,
            "regions_dispatched": 0,
            "regions_validated": 0,
            "regions_failed": 0,
            "oracle_hits": 0,
            "oracle_fallbacks": 0,
            "tasks": 0,
            "bytes_shipped": 0,
            "bytes_returned": 0,
        }

    # -- per-run lifecycle -------------------------------------------------

    def begin_run(self, program, fs, cwd: str) -> None:
        self._fs = fs
        self._regions = {}
        # marks make end_run apply per-run deltas to the metrics plane
        # while self.stats stays cumulative for ``jash stat``
        self._mark = dict(self.stats)
        try:
            from ..analysis import analyze_program
            from ..compiler.cost import StaticCosts

            analysis = analyze_program(program, fs=fs, cwd=cwd)
            try:
                hints = StaticCosts.from_analysis(analysis)
            except Exception:
                hints = None
            plans = detect_regions(program, analysis, fs, cwd,
                                   self.config.min_ship_bytes,
                                   self.config.jobs, static_hints=hints)
        except Exception:
            plans = []
        for plan in plans:
            state = RegionState(plan, self._region_no)
            self._region_no += 1
            self._regions[plan.key] = state
            self.stats["regions_detected"] += 1
            if not plan.deferred:
                self._dispatch(state)

    def end_run(self, kernel=None) -> None:
        """Merge the run's pool deltas into its planes: metrics counters
        through the registry (so ``total_updates`` witnesses them) and
        spans to the tracer."""
        metrics = getattr(kernel, "metrics", None) if kernel else None
        tracer = getattr(kernel, "tracer", None) if kernel else None
        mark = getattr(self, "_mark", None) or {}
        delta = {k: v - mark.get(k, 0) for k, v in self.stats.items()}
        if metrics is not None and delta["regions_dispatched"]:
            # aggregates only: which worker got which task is host
            # scheduling noise, and the registry's snapshots must stay
            # byte-identical across reruns.  The per-worker split is
            # host telemetry and lives in the ``jash stat`` pool section.
            for key in ("regions_dispatched", "regions_validated",
                        "regions_failed", "oracle_hits",
                        "oracle_fallbacks", "tasks", "bytes_shipped",
                        "bytes_returned"):
                if delta[key]:
                    metrics.counter(f"pool.{key}").inc(delta[key])
        if tracer is not None and self.pool is not None:
            now = getattr(kernel, "now", 0.0)
            for state in self._regions.values():
                if state.status == PENDING:
                    continue
                # no host wall times here: the trace stream, like the
                # metrics snapshot, must be byte-identical across reruns
                tracer.instant(
                    "pool", f"region{state.no}", now,
                    status=state.status, bytes=len(state.snapshot),
                    parts=len(state.tr_task_ids)
                    or len(state.sort_task_ids))
        self._regions = {}

    # -- dispatch ----------------------------------------------------------

    def _ensure_pool(self) -> WorkerPool:
        if self.pool is None:
            self.pool = get_global_pool(self.config)
        return self.pool

    def _n_parts(self) -> int:
        """How many parts a wave splits into.

        Capped at the host's core count, not just ``--jobs``: on a
        single-core host N concurrent workers only thrash each other's
        caches (measured ~2x slower than one worker over the same
        bytes), so extra parts cost wall time without buying
        parallelism.  ``JASH_POOL_PARTS`` overrides the cap — tests use
        it to force multi-part merges regardless of the machine."""
        forced = _env_int("JASH_POOL_PARTS", 0)
        if forced > 0:
            return max(1, min(forced, 8))
        cores = os.cpu_count() or 1
        return max(1, min(self.config.jobs, cores, 8))

    def _parts(self, total: int, single: bool) -> list[tuple[int, int]]:
        """Byte ranges for part tasks; cuts land on GRID_STEP boundaries
        so per-part grids concatenate into one global table."""
        jobs = self._n_parts()
        if single or jobs == 1 or total < 4 * GRID_STEP:
            return [(0, total)]
        step = total // jobs
        cuts = [0]
        for i in range(1, jobs):
            cut = (i * step) // GRID_STEP * GRID_STEP
            if cut > cuts[-1]:
                cuts.append(cut)
        cuts.append(total)
        return list(zip(cuts[:-1], cuts[1:]))

    def _line_parts(self, stream: bytes, spill: str) -> list[list]:
        """Line-aligned (path, a, b) segment lists over one spill."""
        total = len(stream)
        jobs = self._n_parts()
        if jobs == 1 or total < 1 << 16:
            return [[(spill, 0, total)]] if total else [[(spill, 0, 0)]]
        cuts = [0]
        for i in range(1, jobs):
            probe = (i * total) // jobs
            if probe <= cuts[-1]:
                continue
            nl = stream.find(b"\n", probe)
            if nl < 0 or nl + 1 >= total:
                break
            cuts.append(nl + 1)
        cuts.append(total)
        return [[(spill, a, b)] for a, b in zip(cuts[:-1], cuts[1:])]

    def _dispatch(self, state: RegionState) -> None:
        plan = state.plan
        pool = self._ensure_pool()
        try:
            state.snapshot = self._fs.read_bytes(plan.input_path)
        except Exception:
            state.status = FAILED
            self.stats["regions_failed"] += 1
            return
        state.in_spill = pool.spill_path(f"r{state.no}-in.bin")
        with open(state.in_spill, "wb") as fh:
            fh.write(state.snapshot)
        state.deadline = time.monotonic() + self.config.watchdog_s
        self.stats["regions_dispatched"] += 1
        self.stats["bytes_shipped"] += len(state.snapshot)
        chaos = getattr(self, "chaos", None)
        if plan.tr_chain:
            parts = self._parts(len(state.snapshot), plan.single_part)
            # one part + a sort stage: fuse both waves into one task
            fuse = len(parts) == 1 and plan.has_sort
            for k, (a, b) in enumerate(parts):
                task = {
                    "kind": "tr_sort_part" if fuse else "tr_part",
                    "in_path": state.in_spill,
                    "a": a, "b": b, "chain": plan.tr_chain,
                    "out_prefix": pool.spill_path(f"r{state.no}-p{k}"),
                }
                if fuse:
                    task["card_limit"] = self.config.card_limit
                if chaos and k == 0:
                    task["chaos"] = chaos
                state.tr_task_ids.append(pool.submit(task))
                self.stats["tasks"] += 1
        else:
            self._dispatch_sort(state, state.snapshot, state.in_spill,
                                chaos=chaos)
        state.status = DISPATCHED

    def _dispatch_sort(self, state: RegionState, stream: bytes,
                       spill: str, chaos=None) -> None:
        pool = self._ensure_pool()
        for k, segments in enumerate(self._line_parts(stream, spill)):
            task = {
                "kind": "sort_part", "segments": segments,
                "card_limit": self.config.card_limit,
                "out_prefix": pool.spill_path(f"r{state.no}-s{k}"),
            }
            if chaos and k == 0 and not state.tr_task_ids:
                task["chaos"] = chaos
            state.sort_task_ids.append(pool.submit(task))
            self.stats["tasks"] += 1

    # -- merge -------------------------------------------------------------

    def _fail(self, state: RegionState) -> None:
        if state.status != FAILED:
            state.status = FAILED
            self.stats["regions_failed"] += 1

    def _merge_tr(self, state: RegionState, results: list[dict]) -> bool:
        """Seam-merge per-part tr streams into one stream + global
        (input offset -> output offset) table per stage.  Part order is
        task-submission order regardless of completion order.

        A stage's input is the previous stage's seam-merged output.
        Workers computed stage k+1 from *pre-trim* stage-k parts, so a
        nonzero trim on a squeezing non-final stage would desynchronize
        them — detection forbids that shape (``single_part``), which
        makes every non-final seam trim exactly zero and part p's
        stage-k input base simply the sum of earlier parts' stage-(k-1)
        output lengths."""
        pool = self.pool
        plan = state.plan
        n_stages = len(plan.tr_chain)
        for result in results:
            if any(not pool.owns(p) for p in result["streams"]):
                return False
            state.host_s += result.get("host_s", 0.0)
            self.stats["bytes_returned"] += result.get("bytes_out", 0)
        for stage_i in range(n_stages):
            spec = plan.tr_chain[stage_i]
            squeeze = spec["squeeze"]
            merged: list[bytes] = []
            in_offs = array("q", [0])
            out_offs = array("q", [0])
            in_total = 0
            out_total = 0
            prev_last = -1
            for result in results:
                with open(result["streams"][stage_i], "rb") as fh:
                    part = fh.read()
                if len(part) != result["lens"][stage_i]:
                    return False
                part_in_len = (result["b"] - result["a"] if stage_i == 0
                               else result["lens"][stage_i - 1])
                trim = 0
                if squeeze and prev_last >= 0 and prev_last in squeeze:
                    while trim < len(part) and part[trim] == prev_last:
                        trim += 1
                part_grid = array("q")
                part_grid.frombytes(result["grids"][stage_i])
                # entry j sits at local input offset min(j*GRID_STEP,
                # part_in_len); entry 0 duplicates the previous part's
                # closing boundary
                for j in range(1, len(part_grid)):
                    in_offs.append(min(j * GRID_STEP, part_in_len)
                                   + in_total)
                    out_offs.append(max(part_grid[j] - trim, 0)
                                    + out_total)
                part = part[trim:]
                merged.append(part)
                in_total += part_in_len
                out_total += len(part)
                if part:
                    prev_last = part[-1]
            state.streams.append(b"".join(merged))
            state.grids.append((in_offs, out_offs))
        if len(results) == 1 and n_stages:
            state.final_spill = results[0]["streams"][n_stages - 1]
        return True

    def _advance(self, state: RegionState) -> bool:
        """Drive a region's merge pipeline forward after task waves."""
        pool = self.pool
        plan = state.plan
        if state.status == DISPATCHED and state.tr_task_ids:
            results, failed = pool.wait_for(state.tr_task_ids,
                                            state.deadline)
            if results is None:
                self._fail(state)
                return False
            if not self._merge_tr(state, results):
                self._fail(state)
                return False
            state.status = TR_READY
            if plan.has_sort:
                if results and "part" in results[0]:
                    state.sort_results = results
                    return True
                final = state.streams[-1]
                spill = state.final_spill
                if spill is None:
                    spill = pool.spill_path(f"r{state.no}-final.bin")
                    with open(spill, "wb") as fh:
                        fh.write(final)
                self._dispatch_sort(state, final, spill)
            else:
                state.status = READY
                self.stats["regions_validated"] += 1
            return True
        if state.status == DISPATCHED and not state.tr_task_ids:
            state.status = TR_READY
            return True
        if state.status == TR_READY and plan.has_sort:
            fused = state.sort_results is not None
            if fused:
                results = state.sort_results
            else:
                results, failed = pool.wait_for(state.sort_task_ids,
                                                state.deadline)
            if results is None:
                self._fail(state)
                return False
            parts = []
            all_counts = True
            total_lines = 0
            for result in results:
                if not fused:  # fused results were accounted in _merge_tr
                    state.host_s += result.get("host_s", 0.0)
                kind, payload, m = result["part"]
                total_lines += m
                if kind == "spill":
                    if not pool.owns(payload):
                        self._fail(state)
                        return False
                    all_counts = False
                parts.append(result["part"])
            if all_counts:
                counts: dict[bytes, int] = {}
                for _, payload, _m in parts:
                    for word, count in payload.items():
                        counts[word] = counts.get(word, 0) + count
                stream, runs, n_lines = assemble_counts(
                    counts, plan.sort_reverse, plan.sort_unique,
                    total_lines)
                state.sorted_stream = stream
                state.run_ends = runs
                state.n_lines = n_lines
                state.status = READY
                self.stats["regions_validated"] += 1
                self.stats["bytes_returned"] += len(stream)
                return True
            task = {
                "kind": "sort_merge", "parts": parts,
                "reverse": plan.sort_reverse, "unique": plan.sort_unique,
                "out_prefix": pool.spill_path(f"r{state.no}-m"),
            }
            state.merge_task_id = pool.submit(task)
            self.stats["tasks"] += 1
            results, failed = pool.wait_for([state.merge_task_id],
                                            state.deadline)
            if results is None or not pool.owns(results[0]["stream"]):
                self._fail(state)
                return False
            result = results[0]
            state.host_s += result.get("host_s", 0.0)
            with open(result["stream"], "rb") as fh:
                state.sorted_stream = fh.read()
            state.run_ends = array("q")
            state.run_ends.frombytes(result["runs"])
            state.n_lines = result["n_lines"]
            state.status = READY
            self.stats["regions_validated"] += 1
            self.stats["bytes_returned"] += len(state.sorted_stream)
            return True
        return state.status in (READY, TR_READY)

    def require(self, state: RegionState, level: str) -> bool:
        """Block (host wall only — virtual time does not advance) until
        the region reaches ``level``, its watchdog expires, or a task
        fails.  False means the caller must fall back in-process."""
        want_ready = (level == "sorted")
        while True:
            if state.status == FAILED:
                return False
            if state.status == READY:
                return True
            if state.status == TR_READY and not want_ready:
                return True
            if state.status == PENDING:
                self._dispatch(state)
                if state.status == FAILED:
                    return False
                continue
            if not self._advance(state):
                return False

    # -- oracle hand-out ---------------------------------------------------

    def oracles_for(self, pipeline_node) -> Optional[list]:
        """Fresh per-execution oracles aligned to the pipeline's stages,
        or None when the statement carries no dispatched region."""
        state = self._regions.get(id(pipeline_node))
        if state is None:
            return None
        if state.status == PENDING:
            self._dispatch(state)
        if state.status == FAILED:
            return None
        oracles: list = []
        for stage in state.plan.stages:
            if stage.kind == "tr":
                oracles.append(TrOracle(self, state, stage.tr_index))
            elif stage.kind == "sort":
                oracles.append(SortOracle(self, state))
            elif stage.kind == "uniq":
                oracles.append(UniqOracle(self, state))
            else:
                oracles.append(None)
        return oracles

    def oracle_for_simple(self, node):
        """The single-stage (bare ``sort FILE``) variant."""
        oracles = self.oracles_for(node)
        if not oracles:
            return None
        return oracles[0]


# ---------------------------------------------------------------------------
# stage oracles
# ---------------------------------------------------------------------------


class _OracleBase:
    kind = ""

    def __init__(self, coord: HostCoordinator, state: RegionState):
        self.coord = coord
        self.state = state
        self.dead = False
        self.armed = False

    def _kill(self) -> None:
        if not self.dead:
            self.dead = True
            self.coord.stats["oracle_fallbacks"] += 1

    def _score(self) -> None:
        self.coord.stats["oracle_hits"] += 1


class TrOracle(_OracleBase):
    """Validates a tr stage's input chunks and emits precomputed output
    slices.  Prefix-stable: a kill after N chunks leaves the stage in
    exactly the serial state (``last_emitted_byte`` is the carry)."""

    kind = "tr"

    def __init__(self, coord, state, tr_index: int):
        super().__init__(coord, state)
        self.tr_index = tr_index
        self.in_pos = 0
        self.out_pos = 0
        self.in_view = b""
        self.out_view = b""
        self.in_offs: array = array("q")
        self.out_offs: array = array("q")
        self.spec: dict = {}

    def _arm(self) -> bool:
        if not self.coord.require(self.state, "tr"):
            return False
        state = self.state
        self.in_view = (state.snapshot if self.tr_index == 0
                        else state.streams[self.tr_index - 1])
        self.out_view = state.streams[self.tr_index]
        self.in_offs, self.out_offs = state.grids[self.tr_index]
        self.spec = state.plan.tr_chain[self.tr_index]
        self.armed = True
        return True

    def _outoff(self, b: int) -> int:
        """Output offset for input offset ``b``: nearest table boundary
        at or below ``b``, plus a <= GRID_STEP remainder transformed
        with the carry byte the merged stream holds at that boundary."""
        if b >= len(self.in_view):
            return len(self.out_view)
        j = bisect_right(self.in_offs, b) - 1
        base_in = self.in_offs[j]
        base_out = self.out_offs[j]
        carry = self.out_view[base_out - 1] if base_out > 0 else -1
        block, _ = tr_block(self.in_view[base_in:b], self.spec, carry)
        return base_out + len(block)

    def try_chunk(self, data: bytes) -> Optional[bytes]:
        """The precomputed output for this input chunk, or None — after
        which the caller must transform this chunk (and the rest of the
        stream) itself, seeded by :meth:`last_emitted_byte`."""
        if self.dead:
            return None
        if not self.armed and not self._arm():
            self._kill()
            return None
        end = self.in_pos + len(data)
        if (end > len(self.in_view)
                or self.in_view[self.in_pos : end] != data):
            self._kill()
            return None
        out_end = self._outoff(end)
        out = self.out_view[self.out_pos : out_end]
        self.in_pos = end
        self.out_pos = out_end
        return out

    def last_emitted_byte(self) -> int:
        return self.out_view[self.out_pos - 1] if self.out_pos else -1

    def finish(self) -> None:
        if not self.dead and self.armed:
            self._score()


class SortOracle(_OracleBase):
    """Validates the pre-sort stream chunk by chunk; at EOF hands back
    the precomputed sorted stream and line count.  Killing it costs
    nothing: the serial path already retains the raw chunks."""

    kind = "sort"

    def __init__(self, coord, state):
        super().__init__(coord, state)
        self.in_pos = 0

    def feed(self, data: bytes) -> None:
        if self.dead:
            return
        if not self.armed:
            if not self.coord.require(self.state, "tr"):
                self._kill()
                return
            self.armed = True
        view = self.state.pre_sort_stream
        end = self.in_pos + len(data)
        if end > len(view) or view[self.in_pos : end] != data:
            self._kill()
            return
        self.in_pos = end

    def finish(self) -> Optional[tuple[bytes, int]]:
        """(sorted stream, total line count) — None means fall back."""
        if self.dead:
            return None
        if self.in_pos != len(self.state.pre_sort_stream):
            self._kill()
            return None
        if not self.coord.require(self.state, "sorted"):
            self._kill()
            return None
        self._score()
        return self.state.sorted_stream, self.state.n_lines


class UniqOracle(_OracleBase):
    """Replays uniq's per-blob group keys from the sort run table."""

    kind = "uniq"

    def __init__(self, coord, state):
        super().__init__(coord, state)
        self.in_pos = 0
        self.run_idx = 0

    def _word(self, idx: int) -> bytes:
        stream = self.state.sorted_stream
        start = self.state.run_ends[idx - 1] if idx else 0
        nl = stream.index(b"\n", start)
        return stream[start:nl]

    def feed_blob(self, blob: bytes) -> Optional[list[bytes]]:
        """The groupby keys for one complete-lines blob, or None (fall
        back to computing them; subsequent blobs also fall back)."""
        if self.dead:
            return None
        if not self.armed:
            if not self.coord.require(self.state, "sorted"):
                self._kill()
                return None
            self.armed = True
        state = self.state
        a = self.in_pos
        b = a + len(blob)
        stream = state.sorted_stream
        if b > len(stream) or stream[a:b] != blob:
            self._kill()
            return None
        runs = state.run_ends
        while self.run_idx < len(runs) and runs[self.run_idx] <= a:
            self.run_idx += 1
        keys: list[bytes] = []
        j = self.run_idx
        while j < len(runs):
            keys.append(self._word(j))
            if runs[j] >= b:
                break
            j += 1
        self.in_pos = b
        return keys

    def finish(self) -> None:
        if not self.dead and self.armed:
            self._score()


def render_pool_stats(stats: dict, worker_stats: dict) -> str:
    """The ``jash stat`` pool section."""
    lines = ["", "host pool"]
    lines.append(
        f"  regions: {stats['regions_dispatched']} dispatched, "
        f"{stats['regions_validated']} validated, "
        f"{stats['regions_failed']} failed; "
        f"oracle hits {stats['oracle_hits']}, "
        f"fallbacks {stats['oracle_fallbacks']}")
    lines.append(
        f"  bytes: {stats['bytes_shipped']} shipped, "
        f"{stats['bytes_returned']} returned; "
        f"tasks {stats['tasks']}")
    for wid, ws in sorted(worker_stats.items()):
        lines.append(
            f"  worker {wid}: {ws['tasks']} task(s), "
            f"{ws['host_s']:.3f}s host, {ws['bytes_in']}B in, "
            f"{ws['bytes_out']}B out, {ws['crashes']} crash(es)")
    return "\n".join(lines) + "\n"
