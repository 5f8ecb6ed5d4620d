"""S21 multi-core execution plane: the --jobs N equality gate.

The worker pool is an *execution* detail, never an observable one:
every test here pins some adversarial condition (completion order,
worker crashes, fault injection) and then asserts the strongest
possible property — stdout bytes, stderr bytes, exit status AND the
virtual clock are exactly equal to the serial run.  ``oracle_hits``
assertions prove the pool actually executed the region (a silently
idle pool would pass any equality gate).
"""

from __future__ import annotations

import os

import pytest

from repro import FaultPlan, RetryPolicy, Shell
from repro.bench.workloads import access_log, words_text
from repro.obs.metrics import MetricsRegistry
from repro.parallel_host import shutdown_global_pool
from repro.parallel_host.pool import PoolConfig, WorkerPool
from repro.vos.machines import laptop

WORDS = words_text(300_000, seed=3)
LOG = access_log(2_000, seed=11)
NO_NEWLINE = WORDS[:-1] + b"tail-without-newline"

SPELL = "cat /w.txt | tr -cs A-Za-z '\\n' | sort | uniq"
SCRIPTS = (
    SPELL,
    "cat /w.txt | tr a-z A-Z | sort",
    "cat /w.txt | tr -d aeiou | tr -s ' ' | sort -u",
    "sort -r /w.txt | uniq",
    "cat /w.txt | tr -cs A-Za-z '\\n' | sort | uniq > /out.txt; "
    "wc -l /out.txt",
)


@pytest.fixture(autouse=True)
def pool_env(monkeypatch):
    """Every test runs with the ship-volume gate disarmed (the corpora
    here are far below the production 4 MiB floor) and multi-part
    splitting forced (the host cap would otherwise collapse to one part
    per wave on single-core CI machines, leaving the merge discipline
    untested).  The global pool is torn down around each test so
    env-sensitive pool state (shuffle hooks, retry budgets) never leaks
    between tests."""
    monkeypatch.setenv("JASH_POOL_MIN_BYTES", "0")
    monkeypatch.setenv("JASH_POOL_PARTS", "4")
    monkeypatch.delenv("JASH_JOBS", raising=False)
    monkeypatch.delenv("JASH_POOL_SHUFFLE", raising=False)
    shutdown_global_pool()
    yield
    shutdown_global_pool()


def run_once(script, jobs=1, data=WORDS, faults=None, metrics=None):
    shell = Shell(laptop(), jobs=jobs, faults=faults, metrics=metrics)
    shell.fs.write_bytes("/w.txt", data)
    result = shell.run(script)
    return shell, result


def assert_identical(script, jobs=4, data=WORDS, require_hits=True):
    _, serial = run_once(script, jobs=1, data=data)
    shell, pooled = run_once(script, jobs=jobs, data=data)
    assert pooled.stdout == serial.stdout
    assert pooled.stderr == serial.stderr
    assert pooled.status == serial.status
    assert pooled.elapsed == serial.elapsed
    if require_hits:
        assert shell.host_coord.stats["oracle_hits"] > 0
    return shell


class TestEqualityGate:
    @pytest.mark.parametrize("script", SCRIPTS)
    def test_jobs4_byte_and_time_identical(self, script):
        assert_identical(script)

    def test_jobs2_and_jobs8(self):
        assert_identical(SPELL, jobs=2)
        assert_identical(SPELL, jobs=8)

    def test_no_trailing_newline(self):
        assert_identical(SPELL, data=NO_NEWLINE)

    def test_binaryish_input(self):
        blob = bytes(range(256)) * 1200
        assert_identical("cat /w.txt | tr -d '\\0' | sort", data=blob)

    def test_log_corpus(self):
        assert_identical("cat /w.txt | tr -s ' ' | sort | uniq", data=LOG)

    def test_redirect_target_outside_pool(self):
        shell = assert_identical(
            "cat /w.txt | tr a-z A-Z | sort > /out.txt; cat /out.txt")
        _, serial = run_once(
            "cat /w.txt | tr a-z A-Z | sort > /out.txt; cat /out.txt")
        assert shell.fs.read_bytes("/out.txt") == serial.stdout

    def test_volume_gate_keeps_small_inputs_off_pool(self, monkeypatch):
        monkeypatch.setenv("JASH_POOL_MIN_BYTES", str(4 << 20))
        shell, pooled = run_once(SPELL, jobs=4)
        _, serial = run_once(SPELL, jobs=1)
        assert pooled.stdout == serial.stdout
        assert pooled.elapsed == serial.elapsed
        assert shell.host_coord.stats["regions_dispatched"] == 0


class TestAdversarialMerge:
    def test_shuffled_completion_order(self, monkeypatch):
        """Results arriving in any order must merge by part index."""
        for seed in ("1", "7", "1234"):
            shutdown_global_pool()
            monkeypatch.setenv("JASH_POOL_SHUFFLE", seed)
            assert_identical(SPELL)
            assert_identical("cat /w.txt | tr -d aeiou | tr -s ' ' | sort")

    def test_reorder_hook_reverses_batches(self):
        _, serial = run_once(SPELL, jobs=1)
        shell = Shell(laptop(), jobs=4)
        shell.fs.write_bytes("/w.txt", WORDS)
        pool = shell.host_coord._ensure_pool()
        pool.reorder_hook = lambda batch: list(reversed(batch))
        pooled = shell.run(SPELL)
        assert pooled.stdout == serial.stdout
        assert pooled.elapsed == serial.elapsed
        assert shell.host_coord.stats["oracle_hits"] > 0

    def test_worker_crash_mid_region_retries(self):
        _, serial = run_once(SPELL, jobs=1)
        shell = Shell(laptop(), jobs=2)
        shell.fs.write_bytes("/w.txt", WORDS)
        shell.host_coord.chaos = "crash"
        pooled = shell.run(SPELL)
        assert pooled.stdout == serial.stdout
        assert pooled.elapsed == serial.elapsed
        stats = shell.host_coord.stats
        assert stats["regions_validated"] == 1, "retry should recover"
        crashes = sum(w["crashes"]
                      for w in shell.host_coord.pool.worker_stats.values())
        assert crashes >= 1, "chaos crash must actually have fired"

    def test_retry_exhausted_degrades_in_process(self):
        """With a zero retry budget a crashed worker fails the region;
        the stage must fall back to in-process execution with identical
        observable behavior (the prefix-stable oracle contract)."""
        _, serial = run_once(SPELL, jobs=1)
        shell = Shell(laptop(), jobs=2)
        shell.host_coord.config.policy = RetryPolicy(max_retries=0,
                                                     timeout_s=60.0)
        shell.fs.write_bytes("/w.txt", WORDS)
        shell.host_coord.chaos = "crash"
        pooled = shell.run(SPELL)
        assert pooled.stdout == serial.stdout
        assert pooled.stderr == serial.stderr
        assert pooled.elapsed == serial.elapsed
        assert shell.host_coord.stats["regions_failed"] == 1


class TestFaultAndMetricsWitnesses:
    def test_fault_counters_match_across_jobs(self):
        """Workers execute zero virtual ops, so an injected fault plan
        must see the exact same op stream — and fire the exact same
        faults — at --jobs 2 as at --jobs 1."""
        plan1 = FaultPlan(seed=7, rate=0.02)
        _, serial = run_once(SPELL, jobs=1, faults=plan1)
        plan2 = FaultPlan(seed=7, rate=0.02)
        _, pooled = run_once(SPELL, jobs=2, faults=plan2)
        assert plan2.ops == plan1.ops
        assert pooled.stdout == serial.stdout
        assert pooled.status == serial.status
        assert pooled.elapsed == serial.elapsed

    def test_pool_counters_go_through_registry_witness(self):
        reg = MetricsRegistry()
        before = MetricsRegistry.total_updates
        shell, _ = run_once(SPELL, jobs=2, metrics=reg)
        assert shell.host_coord.stats["regions_validated"] == 1
        series = {s["name"]: s for s in reg.snapshot()["series"]
                  if s["name"].startswith("pool.")}
        assert series["pool.regions_validated"]["value"] == 1.0
        assert series["pool.oracle_hits"]["value"] > 0
        assert "worker" not in str(series), \
            "per-worker labels are host noise and must stay out"
        assert MetricsRegistry.total_updates > before

    def test_metrics_snapshot_identical_across_reruns(self):
        snaps = []
        for _ in range(2):
            shutdown_global_pool()
            reg = MetricsRegistry()
            run_once(SPELL, jobs=2, metrics=reg)
            snaps.append(repr(reg.snapshot()))
        assert snaps[0] == snaps[1]


class TestPoolHoldsNothing:
    def test_results_are_handed_over_not_kept(self):
        shell, result = run_once(SPELL, jobs=2)
        assert result.status == 0
        assert shell.host_coord.stats["oracle_hits"] > 0
        pool = shell.host_coord.pool
        assert pool._results == {}
        assert pool._failed == set()

    def test_function_shadowing_a_pooled_command_declines(self):
        script = "tr() { echo hijacked; }; " + SPELL
        shell, result = run_once(script, jobs=2)
        assert result.stdout == b"hijacked\n"
        assert shell.host_coord.stats["oracle_hits"] == 0


class TestPoolUnit:
    def test_owns_rejects_paths_outside_scratch(self, tmp_path):
        pool = WorkerPool(PoolConfig(jobs=1))
        try:
            assert pool.owns(pool.spill_path("x.bin"))
            assert not pool.owns(str(tmp_path / "evil.bin"))
            assert not pool.owns("/etc/passwd")
            # prefix tricks: /tmp/jash-pool-XYZevil is not inside scratch
            assert not pool.owns(pool.scratch + "-evil/x.bin")
        finally:
            pool.close()

    def test_task_round_trip_and_crash_retry(self):
        pool = WorkerPool(PoolConfig(jobs=2))
        try:
            import time as _time

            spill = pool.spill_path("in.bin")
            with open(spill, "wb") as fh:
                fh.write(b"b\na\nb\n")
            task = {"kind": "sort_part", "segments": [(spill, 0, 6)],
                    "out_prefix": pool.spill_path("s0"), "chaos": "crash"}
            tid = pool.submit(task)
            results, failed = pool.wait_for([tid],
                                            _time.monotonic() + 30.0)
            assert not failed
            kind, payload, m = results[0]["part"]
            assert kind == "counts" and payload == {b"a": 1, b"b": 2}
            assert m == 3
        finally:
            pool.close()

    def test_zero_retry_budget_fails_task(self):
        pool = WorkerPool(PoolConfig(
            jobs=1, policy=RetryPolicy(max_retries=0, timeout_s=30.0)))
        try:
            import time as _time

            spill = pool.spill_path("in.bin")
            with open(spill, "wb") as fh:
                fh.write(b"a\n")
            tid = pool.submit({"kind": "sort_part",
                               "segments": [(spill, 0, 2)],
                               "out_prefix": pool.spill_path("s0"),
                               "chaos": "crash"})
            results, failed = pool.wait_for([tid],
                                            _time.monotonic() + 30.0)
            assert results is None and tid in failed
        finally:
            pool.close()

    def test_single_core_cap_and_parts_override(self, monkeypatch):
        shell = Shell(laptop(), jobs=8)
        coord = shell.host_coord
        monkeypatch.delenv("JASH_POOL_PARTS", raising=False)
        cores = os.cpu_count() or 1
        assert coord._n_parts() == min(8, cores)
        monkeypatch.setenv("JASH_POOL_PARTS", "3")
        assert coord._n_parts() == 3


class TestLintJS2260:
    def _analysis(self, text, files=()):
        from repro.analysis import analyze_program
        from repro.parser import parse

        shell = Shell(laptop())
        for path, data in files:
            shell.fs.write_bytes(path, data)
        program = parse(text)
        return program, analyze_program(program, fs=shell.fs)

    def test_warns_when_no_region_is_eligible(self):
        from repro.lint import check_jobs_eligibility

        program, analysis = self._analysis("echo hi; ls")
        diag = check_jobs_eligibility(program, analysis, 4)
        assert diag is not None and diag.code == "JS2260"
        assert "safe_parallel" in diag.message

    def test_silent_when_a_region_clears(self):
        from repro.lint import check_jobs_eligibility

        program, analysis = self._analysis(
            "cat /w.txt | tr a-z A-Z | sort", files=[("/w.txt", WORDS)])
        assert check_jobs_eligibility(program, analysis, 4) is None

    def test_silent_at_jobs_one(self):
        from repro.lint import check_jobs_eligibility

        program, analysis = self._analysis("echo hi")
        assert check_jobs_eligibility(program, analysis, 1) is None
