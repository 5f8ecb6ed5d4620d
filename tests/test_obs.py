"""Observability tests: tracer invariants, accounting, export schema,
critical path, engine spans, pinned trace/metrics digests, and the
kernel's observation slot."""

import hashlib
import json

import pytest

from repro import FaultPlan, FaultSpec, JashConfig, JashOptimizer, Shell
from repro.bench import words_text
from repro.compiler import OptimizerConfig
from repro.distributed import Cluster, DistributedShell
from repro.obs import (
    KernelObserver,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    critical_path,
    dumps_chrome,
    dumps_snapshot,
    format_record,
    render_report,
    validate_chrome_trace,
)
from repro.obs.hooks import HOOKS, FanOut, observer_slot
from repro.vos.machines import laptop

PIPELINE = "cat /in.txt | tr -cs A-Za-z '\\n' | sort > /out.txt"


def words(n_lines=2000):
    return b"".join(b"alpha beta%d gamma\n" % (i % 53) for i in range(n_lines))


def traced_run(script=PIPELINE, data=None, optimizer=None, faults=None,
               tracer=None):
    tracer = tracer if tracer is not None else Tracer()
    shell = Shell(laptop(), optimizer=optimizer, tracer=tracer, faults=faults)
    shell.fs.write_bytes("/in.txt", data if data is not None else words())
    result = shell.run(script)
    return result, tracer, shell


def end_time(record):
    return record.ts + record.dur


class TestTracerInvariants:
    def test_emission_order_is_monotonic_in_virtual_time(self):
        _, tracer, _ = traced_run()
        ends = [end_time(r) for r in tracer.records]
        assert ends == sorted(ends)
        assert all(r.ts >= 0 for r in tracer.records)

    def test_op_spans_non_overlapping_per_process(self):
        """A process blocks on one thing at a time: its cpu/disk/pipe/
        wait spans must not overlap."""
        _, tracer, _ = traced_run()
        by_pid = {}
        for r in tracer.records:
            if r.ph == "X" and r.cat in ("cpu", "disk", "pipe", "wait"):
                by_pid.setdefault(r.pid, []).append(r)
        assert by_pid, "no op spans recorded"
        for pid, spans in by_pid.items():
            spans.sort(key=lambda r: (r.ts, r.ts + r.dur))
            for prev, cur in zip(spans, spans[1:]):
                assert cur.ts >= end_time(prev) - 1e-12, (
                    pid, prev.name, cur.name)

    def test_op_spans_inside_process_span(self):
        _, tracer, _ = traced_run()
        proc_span = {}
        for r in tracer.records:
            if r.ph == "X" and r.cat == "process":
                proc_span[r.pid] = r
        for r in tracer.records:
            if r.ph == "X" and r.cat in ("cpu", "pipe", "wait"):
                parent = proc_span[r.pid]
                assert r.ts >= parent.ts - 1e-12
                assert end_time(r) <= end_time(parent) + 1e-12

    def test_every_process_gets_spawn_and_exit_records(self):
        _, tracer, _ = traced_run()
        spawned = {r.pid for r in tracer.records
                   if r.cat == "process" and r.ph == "i"}
        exited = {r.pid for r in tracer.records
                  if r.cat == "process" and r.ph == "X"}
        assert spawned == exited
        assert len(spawned) >= 4  # jash + pipe glue + 3 stages

    def test_zero_records_when_no_tracer_installed(self):
        before = Tracer.total_records
        shell = Shell(laptop())
        shell.fs.write_bytes("/in.txt", words())
        result = shell.run(PIPELINE)
        assert result.status == 0
        assert Tracer.total_records == before

    def test_tracing_does_not_perturb_the_simulation(self):
        plain = Shell(laptop())
        plain.fs.write_bytes("/in.txt", words())
        r_plain = plain.run(PIPELINE)
        r_traced, _, shell = traced_run()
        assert r_traced.elapsed == r_plain.elapsed
        assert shell.fs.read_bytes("/out.txt") == \
            plain.fs.read_bytes("/out.txt")

    def test_accounting_only_mode_records_nothing(self):
        _, tracer, _ = traced_run(tracer=Tracer(record_events=False))
        assert tracer.records == []
        assert tracer.accounting.totals()["cpu_s"] > 0


class TestDeterminism:
    def test_fixed_seed_exports_byte_identical_traces(self):
        plans = [FaultPlan(seed=9, rate=0.03, kinds=("disk-error",),
                           max_faults=2) for _ in range(2)]
        optimizer_cfg = JashConfig(
            optimizer=OptimizerConfig(min_input_bytes=1024))
        exports = []
        for plan in plans:
            _, tracer, _ = traced_run(
                data=words(20000), optimizer=JashOptimizer(optimizer_cfg),
                faults=plan)
            exports.append(dumps_chrome(tracer))
        assert exports[0] == exports[1]
        assert plans[0].trace() == plans[1].trace()

    def test_syscall_events_off_by_default_on_when_asked(self):
        _, quiet, _ = traced_run()
        assert not any(r.cat == "syscall" for r in quiet.records)
        _, verbose, _ = traced_run(tracer=Tracer(syscall_events=True))
        assert any(r.cat == "syscall" for r in verbose.records)


class TestAccounting:
    def test_cpu_and_pipe_attribution(self):
        result, tracer, _ = traced_run()
        assert result.status == 0
        acct = tracer.accounting
        by_name = {st.name: st for st in acct.per_process.values()}
        for name in ("cat", "tr", "sort"):
            assert by_name[name].cpu_s > 0, name
            assert by_name[name].wall_s > 0, name
        # every pipe balances: reads never exceed writes
        for ps in acct.pipes.values():
            assert ps.bytes_read <= ps.bytes_written
            assert ps.writers and ps.readers
        # the root shell waits on its children
        assert by_name["jash"].wait_s > 0
        assert by_name["jash"].bound() == "child-wait"

    def test_breakdown_covers_wall_clock(self):
        _, tracer, _ = traced_run()
        for st in tracer.accounting.per_process.values():
            parts = st.breakdown()
            assert parts["other"] >= 0
            assert sum(parts.values()) == pytest.approx(st.wall_s)

    def test_parent_edges(self):
        _, tracer, _ = traced_run()
        acct = tracer.accounting
        roots = [st for st in acct.per_process.values()
                 if st.parent is None]
        assert len(roots) == 1 and roots[0].name == "jash"


class TestCriticalPath:
    def test_names_the_pipeline_chain(self):
        _, tracer, _ = traced_run()
        hops = critical_path(tracer.accounting)
        names = [h.stats.name for h in hops]
        assert names[-1] == "sort"
        assert "cat" in names

    def test_render_report_contents(self):
        _, tracer, _ = traced_run()
        report = render_report(tracer)
        assert "critical path" in report
        assert "sort" in report
        assert "slowest hop" in report

    def test_report_mentions_faults(self):
        plan = FaultPlan(specs=(FaultSpec("disk-error", op=1),))
        result, tracer, _ = traced_run("cat /in.txt > /copy.txt",
                                       faults=plan)
        assert plan.fired == 1
        report = render_report(tracer)
        assert "injected faults" in report
        assert "disk-error" in report


class TestChromeExport:
    def test_schema_valid_and_loadable(self):
        _, tracer, _ = traced_run()
        blob = dumps_chrome(tracer)
        obj = json.loads(blob)
        assert validate_chrome_trace(obj) == []
        assert obj["displayTimeUnit"] == "ms"

    def test_metadata_names_nodes_and_processes(self):
        _, tracer, _ = traced_run()
        obj = chrome_trace(tracer)
        meta = [e for e in obj["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)
        assert any(e["name"] == "thread_name" for e in meta)

    def test_validator_flags_bad_events(self):
        assert validate_chrome_trace({"traceEvents": [{"name": "x"}]})
        assert validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "X", "ts": 0,
                              "pid": 1, "tid": 1}]})  # missing dur


class TestEngineSpans:
    def test_jit_compile_and_region_spans(self):
        cfg = JashConfig(optimizer=OptimizerConfig(min_input_bytes=1024))
        result, tracer, _ = traced_run(data=words(20000),
                                       optimizer=JashOptimizer(cfg))
        assert result.status == 0
        names = [r.name for r in tracer.records if r.cat == "jit"]
        assert "jit.compile" in names
        assert "jit.region" in names
        region = next(r for r in tracer.records if r.name == "jit.region")
        assert region.args["decision"] == "optimized"
        assert "delta" in region.args
        assert tracer.accounting.regions

    def test_jit_skip_instants(self):
        result, tracer, _ = traced_run("echo hi",
                                       optimizer=JashOptimizer())
        skips = [r for r in tracer.records if r.name == "jit.skip"]
        assert skips and all(r.args["reason"] for r in skips)

    def test_tx_attempt_rollback_and_fault_records(self):
        cfg = JashConfig(optimizer=OptimizerConfig(min_input_bytes=1024))
        plan = FaultPlan(seed=9, rate=0.05, kinds=("disk-error",),
                         max_faults=2)
        result, tracer, _ = traced_run(data=words(20000),
                                       optimizer=JashOptimizer(cfg),
                                       faults=plan)
        assert result.status == 0
        assert plan.fired > 0
        names = [r.name for r in tracer.records if r.cat == "tx"]
        assert "tx.attempt" in names
        assert "tx.commit" in names
        faults = [r for r in tracer.records if r.cat == "fault"]
        assert len(faults) == plan.fired
        for r in faults:
            assert r.args["op"] > 0
            assert r.args["source"] in ("spec", "rate")
        # fault instants interleave at the right virtual times
        times = [r.ts for r in faults]
        assert times == [ev.time for ev in plan.log]


WORDFREQ = ("cat /in.txt | tr -cs A-Za-z '\\n' | sort | uniq -c > /out.txt; "
            "wc -l /in.txt")
#: a background ``tr`` killed mid CPU burst (pid = the async wrapper's
#: pid + 1) and waited on, then a ``cat`` splice through a pipe
KILL_WAIT_SPLICE = ("tr a-z A-Z < /in.txt > /dev/null & pid=$!; "
                    "sleep 0.0001; kill $((pid + 1)); wait $pid; "
                    "echo st=$?; cat /in.txt | cat > /o.txt")


def _shell_scenario(script, make_optimizer=None, make_faults=None):
    def run(tracer, registry):
        shell = Shell(laptop(),
                      optimizer=make_optimizer and make_optimizer(),
                      faults=make_faults and make_faults(),
                      tracer=tracer, metrics=registry)
        shell.fs.write_bytes("/in.txt", words_text(40000, seed=3))
        assert shell.run(script).status == 0
        return shell.kernel
    return run


def _jash():
    return JashOptimizer(JashConfig(
        optimizer=OptimizerConfig(min_input_bytes=1024)))


def _dshell(tracer, registry):
    cluster = Cluster(n_nodes=2)
    cluster.kernel.install_tracer(tracer)
    cluster.kernel.install_metrics(registry)
    for i in range(2):
        cluster.write_file(f"/logs/part{i}.log", b"".join(
            b"host%d %s e%d\n" % (j % 3, b"ERROR" if j % 7 == 0 else b"INFO",
                                   j) for j in range(400)), ["node1"])
    result = DistributedShell(cluster).run(
        "grep ERROR | wc -l", ["/logs/part0.log", "/logs/part1.log"])
    assert result.status == 0
    return cluster.kernel


#: scenario -> (sha256 of dumps_chrome, sha256 of dumps_snapshot).
#: These pin *what* the kernel emits, not only that two runs agree: a
#: refactor of the hook sites that drops or reorders an event fails here.
PINNED = {
    "jash-wordfreq": (_shell_scenario(WORDFREQ, _jash),
        "5a457c78bf314167f9a4a682e5f5e3c943a59b68767e4da1cfe2a52d0355f0d8",
        "cd15d8e182cf9d5eaa66ca35c1c04eaf2c2c84923f2abececa9410f188bda923"),
    "jash-wordfreq-faults": (_shell_scenario(
        WORDFREQ, _jash, lambda: FaultPlan(seed=9, rate=0.03,
                                           kinds=("disk-error",),
                                           max_faults=2)),
        "d505f331993abf6f6cd743c80fcffb4d29a38d7556d44eb6109a143617f5b644",
        "f0480cb4508cf01a4e5197c277ac7a1ac05117d3d207dc237415f60cfb1ac4eb"),
    # the plan above fires nothing on this input; this one fires a
    # pipe break and a disk error inside the JIT region (both retried).
    # The writer's error string names the broken pipe, canonically.
    "jash-wordfreq-faults-fired": (_shell_scenario(
        WORDFREQ, _jash, lambda: FaultPlan(seed=2, rate=0.1,
                                           kinds=("disk-error",
                                                  "pipe-break"),
                                           max_faults=2)),
        "76a7dc379179b4b2ded6e0e414db14e6c9a80def21f0ded751c2e004953a08ab",
        "0981c6813ff5b8f7d9aff4eecebe1a766855e5c810d75499b54ba4648e5035bd"),
    "kill-wait-splice": (_shell_scenario(KILL_WAIT_SPLICE),
        "9e1da2e0cbb374e1f6ab61332f5a05c45b428c1608f3ba392381174c75a9829a",
        "7541214c386a72104c98c9cbd7b09cd0d59ea77c18c88e3114b5bf069754ce61"),
    "dshell-two-nodes": (_dshell,
        "ba51a4a6d63b58d34ca6ccb848ce851ee4ea55364b689e652ed20dbc31235426",
        "06478f42b8d1e8649f8c98d20b83576ffc3c6284b09b7a80be5a0f49bdf1d2e6"),
}


def _digests(run, tracer, registry):
    kernel = run(tracer, registry)
    trace_sha = snap_sha = None
    if tracer is not None:
        trace_sha = hashlib.sha256(dumps_chrome(tracer).encode()).hexdigest()
    if registry is not None:
        registry.finish(kernel.now)
        snap_sha = hashlib.sha256(
            dumps_snapshot(registry).encode()).hexdigest()
    return trace_sha, snap_sha


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_trace_and_snapshot_digests(self, name):
        run, trace_sha, snap_sha = PINNED[name]
        got = _digests(run, Tracer(syscall_events=True),
                       MetricsRegistry(interval=0.01))
        assert got == (trace_sha, snap_sha)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_one_sink_alone_emits_the_same(self, name):
        """The slot holding a lone sink (no fan-out) sees every event."""
        run, trace_sha, snap_sha = PINNED[name]
        assert _digests(run, Tracer(syscall_events=True), None) == \
            (trace_sha, None)
        assert _digests(run, None, MetricsRegistry(interval=0.01)) == \
            (None, snap_sha)


class TestObservationSlot:
    def test_sinks_share_one_hook_vocabulary(self):
        for sink in (Tracer, MetricsRegistry):
            assert issubclass(sink, KernelObserver)
            hooks = {name for name in dir(sink) if name.startswith("on_")}
            assert hooks <= set(HOOKS), hooks - set(HOOKS)

    def test_slot_is_none_a_lone_sink_or_a_fan_out(self):
        kernel = laptop().make_kernel()
        plan = FaultPlan()
        kernel.faults = plan
        assert kernel.obs is None and plan.obs is None
        tracer = Tracer()
        kernel.install_tracer(tracer)
        assert kernel.obs is tracer and plan.obs is tracer
        registry = MetricsRegistry()
        kernel.install_metrics(registry)
        assert isinstance(kernel.obs, FanOut) and plan.obs is kernel.obs
        # a hook only one sink records is that sink's own bound method
        assert kernel.obs.on_cpu_end == tracer.on_cpu_end
        kernel.install_tracer(None)
        assert kernel.obs is registry
        later = FaultPlan()
        kernel.faults = later
        assert later.obs is registry

    def test_fan_out_calls_each_overriding_sink_in_order(self):
        calls = []

        class Left(KernelObserver):
            def on_net(self, now, proc, dst, nbytes):
                calls.append(("left", dst, nbytes))

        class Right(KernelObserver):
            def on_net(self, now, proc, dst, nbytes):
                calls.append(("right", dst, nbytes))

        fan = observer_slot(Left(), None, Right())
        fan.on_net(0.0, None, "node1", 7)
        fan.on_tick(0.0, None)  # nobody overrides it: the base no-op
        assert calls == [("left", "node1", 7), ("right", "node1", 7)]


class TestFormatting:
    def test_legacy_trace_shim_is_gone(self):
        # the PR 2 kernel.trace DeprecationWarning shim was removed once
        # every call site moved to the Tracer; assigning the attribute
        # must not silently install anything
        shell = Shell(laptop())
        assert not hasattr(type(shell.kernel), "trace")

    def test_format_record_shapes(self):
        _, tracer, _ = traced_run()
        for r in tracer.records[:50]:
            line = format_record(r)
            assert line.startswith("[")
            assert r.name in line
