"""S19 metrics-plane tests: instruments, virtual-clock windows,
deterministic snapshots (plain, faulted, and supervised crash/resume),
Prometheus exposition, `jash stat` tables, splice observability, and
the JIT engine's counters (installing a registry changes no decision)."""

from __future__ import annotations

import pytest

from repro import FaultPlan, JashConfig, JashOptimizer, Shell
from repro.compiler import OptimizerConfig
from repro.obs import (
    MetricsRegistry,
    Tracer,
    dumps_chrome,
    dumps_snapshot,
    render_prometheus,
    render_report,
    render_stat,
    validate_chrome_trace,
)
from repro.obs.metrics import _MAX_EXP, _MIN_EXP, _bucket_exp
from repro.supervise import (
    CrashPoint,
    SimulatedCrash,
    SuperviseConfig,
    Supervisor,
    SyntheticSource,
)
from repro.vos.machines import laptop

from .conftest import fast_machine

PIPELINE = "cat /in.txt | tr -cs A-Za-z '\\n' | sort > /out.txt"
SUP_SCRIPT = "cat /stream.log | tr a-z A-Z | grep -v ERROR"


def words(n_lines=2000):
    return b"".join(b"alpha beta%d gamma\n" % (i % 53) for i in range(n_lines))


def metered_run(script=PIPELINE, data=None, optimizer=None, faults=None,
                metrics=None, tracer=None, machine=None):
    metrics = metrics if metrics is not None else MetricsRegistry()
    shell = Shell(machine or laptop(), optimizer=optimizer, faults=faults,
                  tracer=tracer, metrics=metrics)
    shell.fs.write_bytes("/in.txt", data if data is not None else words())
    result = shell.run(script)
    metrics.finish(shell.kernel.now)
    return result, metrics, shell


def make_supervisor(tmp_path, seed=7, script=SUP_SCRIPT, **kw):
    kw.setdefault("min_input_bytes", 16)
    kw.setdefault("machine", fast_machine())
    config = SuperviseConfig(script=script, checkpoint_dir=str(tmp_path),
                             **kw)
    return Supervisor(config, SyntheticSource(seed=seed))


# -- instruments -------------------------------------------------------------------


class TestInstruments:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        assert reg.value("c") == 3.5
        g = reg.gauge("g")
        g.set(4.0)
        g.add(-1.0)
        assert g.value == 3.0 and g.peak == 4.0
        h = reg.histogram("h")
        for v in (1.0, 3.0, 1000.0):
            h.observe(v)
        assert h.count == 3 and h.sum == 1004.0

    def test_labels_make_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("x", proc="a").inc()
        reg.counter("x", proc="b").inc(2)
        # label order is canonicalized
        reg.counter("x", proc="a").inc()
        assert reg.value("x", proc="a") == 2.0
        assert reg.value("x", proc="b") == 2.0
        assert reg.sum_by_name("x") == 4.0
        assert len(reg.series) == 2

    def test_log2_buckets(self):
        assert _bucket_exp(0.0) == _MIN_EXP
        assert _bucket_exp(-5.0) == _MIN_EXP
        assert _bucket_exp(1.0) == 0       # (0.5, 1]
        assert _bucket_exp(1.5) == 1       # (1, 2]
        assert _bucket_exp(2.0) == 1       # exact powers land low
        assert _bucket_exp(3.0) == 2
        assert _bucket_exp(2.0 ** 50) == _MAX_EXP
        assert _bucket_exp(2.0 ** -50) == _MIN_EXP

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsRegistry(interval=0.0)

    def test_pipe_and_path_canonicalization(self):
        reg = MetricsRegistry()

        class P:
            def __init__(self, id):
                self.id = id

        assert reg.pipe_key(P(77)) == 1
        assert reg.pipe_key(P(12)) == 2
        assert reg.pipe_key(P(77)) == 1
        assert reg.canon_path("/tmp/xyz-9f3a") == "/tmp/scratch.1"
        assert reg.canon_path("/tmp/xyz-9f3a") == "/tmp/scratch.1"
        assert reg.canon_path("/data/in.txt") == "/data/in.txt"


# -- zero cost when not installed --------------------------------------------------


class TestZeroCost:
    def test_no_registry_no_updates(self):
        before = MetricsRegistry.total_updates
        shell = Shell(laptop())
        shell.fs.write_bytes("/in.txt", words())
        assert shell.run(PIPELINE).status == 0
        assert MetricsRegistry.total_updates == before

    def test_metrics_do_not_perturb_the_simulation(self):
        bare = Shell(laptop())
        bare.fs.write_bytes("/in.txt", words())
        ref = bare.run(PIPELINE)
        result, reg, shell = metered_run()
        assert result.status == ref.status == 0
        assert result.elapsed == ref.elapsed
        assert shell.fs.read_bytes("/out.txt") == \
            bare.fs.read_bytes("/out.txt")
        assert reg.sum_by_name("kernel.dispatches") > 0


# -- sampling windows --------------------------------------------------------------


class TestWindows:
    def test_windows_sample_on_the_virtual_clock(self):
        reg = MetricsRegistry(interval=0.001)
        result, reg, _ = metered_run(metrics=reg)
        assert result.status == 0
        assert len(reg.windows) > 1
        ends = [w[1] for w in reg.windows]
        assert ends == sorted(ends)
        # every row carries one value per series registered at the time
        for _t0, _t1, values in reg.windows:
            assert len(values) <= len(reg.series)

    def test_identical_samples_collapse(self):
        reg = MetricsRegistry(interval=0.25)
        reg.counter("c").inc()
        reg.maybe_sample(1.0)   # crosses 0.25..1.0 in one jump => one row
        assert len(reg.windows) == 1
        assert reg.windows[0][0] == 0.25
        assert reg.windows[0][1] == 1.0
        reg.maybe_sample(1.5)   # unchanged value extends the row
        assert len(reg.windows) == 1
        assert reg.windows[0][1] == 1.5
        reg.counter("c").inc()
        reg.maybe_sample(2.0)   # changed value starts a new row
        assert len(reg.windows) == 2

    def test_finish_closes_partial_window(self):
        reg = MetricsRegistry(interval=10.0)
        reg.counter("c").inc()
        reg.finish(0.5)
        assert len(reg.windows) == 1
        assert reg.windows[0][1] == 0.5

    def test_snapshot_windows_are_sparse(self):
        result, reg, _ = metered_run(metrics=MetricsRegistry(interval=0.001))
        assert result.status == 0
        snap = reg.snapshot()
        assert snap["clock"] == "virtual"
        assert len(snap["series"]) == len(reg.series)
        sizes = [len(w["values"]) for w in snap["windows"]]
        # later rows only carry the series that changed
        assert any(s < len(reg.series) for s in sizes[1:])


# -- deterministic snapshots -------------------------------------------------------


class TestDeterminism:
    def test_snapshot_byte_identical(self):
        snaps = []
        for _ in range(2):
            result, reg, _ = metered_run(
                optimizer=JashOptimizer(JashConfig(
                    optimizer=OptimizerConfig(min_input_bytes=4096))))
            assert result.status == 0
            snaps.append(dumps_snapshot(reg))
        assert snaps[0] == snaps[1]

    def test_snapshot_byte_identical_under_faults(self):
        snaps = []
        for _ in range(2):
            plan = FaultPlan(seed=5, rate=0.01, kinds=("disk-error",),
                             max_faults=2)
            result, reg, _ = metered_run(
                optimizer=JashOptimizer(JashConfig(
                    optimizer=OptimizerConfig(min_input_bytes=4096))),
                faults=plan)
            assert result.status == 0
            snaps.append(dumps_snapshot(reg))
            assert reg.sum_by_name("faults.fired") == plan.fired
        assert snaps[0] == snaps[1]

    def test_supervised_crash_resume_snapshot_byte_identical(self, tmp_path):
        def scenario(ckpt):
            reg = MetricsRegistry()
            sup = make_supervisor(ckpt, metrics=reg)
            with pytest.raises(SimulatedCrash):
                sup.run_rounds(3, 4096,
                               crashes=[CrashPoint(1, "post-payload")])
            # fresh process: new supervisor and a fresh registry
            reg2 = MetricsRegistry()
            sup2 = make_supervisor(ckpt, metrics=reg2)
            sup2.resume()
            sup2.run_rounds(3 - sup2.round, 4096)
            reg2.finish(sup2.shell.kernel.now)
            return dumps_snapshot(reg), dumps_snapshot(reg2)

        a = scenario(tmp_path / "a")
        b = scenario(tmp_path / "b")
        assert a == b
        assert '"supervise.events"' in a[1]

    def test_supervisor_commit_and_round_metrics(self, tmp_path):
        reg = MetricsRegistry()
        sup = make_supervisor(tmp_path, metrics=reg)
        sup.run_rounds(3, 4096)
        assert reg.sum_by_name("supervise.rounds") == 3
        assert reg.sum_by_name("supervise.attempts") >= 3
        assert reg.sum_by_name("supervise.journal_bytes") > 0
        assert reg.sum_by_name("supervise.commits") == 3
        assert reg.value("supervise.checkpoint_lag_bytes") > 0
        # later commits measure the age since the previous one
        assert reg.gauge("supervise.checkpoint_age_s").peak > 0


# -- prometheus --------------------------------------------------------------------


class TestPrometheus:
    def test_families_and_counters(self):
        reg = MetricsRegistry()
        reg.counter("kernel.dispatches", req="Read").inc(3)
        reg.gauge("procs.live").set(2.0)
        text = render_prometheus(reg)
        assert "# TYPE jash_kernel_dispatches_total counter" in text
        assert 'jash_kernel_dispatches_total{req="Read"} 3' in text
        assert "# TYPE jash_procs_live gauge" in text
        assert "jash_procs_live 2" in text

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("disk.request_bytes")
        for v in (1.0, 1.5, 3.0):
            h.observe(v)
        text = render_prometheus(reg)
        assert 'jash_disk_request_bytes_bucket{le="1"} 1' in text
        assert 'jash_disk_request_bytes_bucket{le="2"} 2' in text
        assert 'jash_disk_request_bytes_bucket{le="4"} 3' in text
        assert 'jash_disk_request_bytes_bucket{le="+Inf"} 3' in text
        assert "jash_disk_request_bytes_sum 5.5" in text
        assert "jash_disk_request_bytes_count 3" in text

    def test_render_is_deterministic_and_sorted(self):
        texts = []
        for _ in range(2):
            _result, reg, _ = metered_run()
            texts.append(render_prometheus(reg))
        assert texts[0] == texts[1]
        families = [ln.split()[2] for ln in texts[0].splitlines()
                    if ln.startswith("# TYPE")]
        assert families == sorted(families)


# -- jash stat ---------------------------------------------------------------------


class TestStat:
    def test_tables_render(self):
        _result, reg, _ = metered_run(metrics=MetricsRegistry(interval=0.01))
        report = render_stat(reg, top=3)
        assert "per-window deltas (virtual clock)" in report
        assert "top 3 processes by cpu" in report
        assert "pipe backpressure" in report
        assert "cache hit rate over time" in report
        assert "sort" in report
        assert "pipe:1" in report

    def test_empty_registry_renders(self):
        report = render_stat(MetricsRegistry())
        assert "(no samples)" in report
        assert "(none)" in report

    def test_cli_stat_and_metrics_export(self, tmp_path, capsys):
        from repro.cli import main

        host_in = tmp_path / "in.txt"
        host_in.write_bytes(words())
        out = tmp_path / "m.json"
        rc = main(["stat", "-c", "sort /in.txt | uniq -c",
                   "--file", f"{host_in}:/in.txt", "--interval", "0.01",
                   "--metrics", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "per-window deltas" in captured.out
        assert out.read_text().startswith("{")

    def test_cli_stat_prometheus_format(self, tmp_path, capsys):
        from repro.cli import main

        host_in = tmp_path / "in.txt"
        host_in.write_bytes(words())
        rc = main(["stat", "-c", "sort /in.txt", "--format", "prom",
                   "--file", f"{host_in}:/in.txt"])
        assert rc == 0
        assert "# TYPE jash_kernel_dispatches_total counter" in \
            capsys.readouterr().out

    def test_cli_run_metrics_deterministic(self, tmp_path):
        from repro.cli import main

        host_in = tmp_path / "in.txt"
        host_in.write_bytes(words())
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(["run", "-c", "sort /in.txt | uniq -c",
                       "--file", f"{host_in}:/in.txt",
                       "--metrics", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# -- splice observability ----------------------------------------------------------


class TestSpliceObservability:
    def run_traced(self, no_splice=False):
        from repro.commands.base import set_splice_enabled

        tracer = Tracer()
        reg = MetricsRegistry()
        shell = Shell(laptop(), tracer=tracer, metrics=reg)
        shell.fs.write_bytes("/in.txt", words())
        if no_splice:
            set_splice_enabled(False)
        try:
            result = shell.run("cat /in.txt | tr -cs A-Za-z '\\n' "
                               "| wc -l")
        finally:
            set_splice_enabled(True)
        return result, tracer, reg

    def test_splice_spans_and_accounting(self):
        result, tracer, reg = self.run_traced()
        assert result.status == 0
        spans = [r for r in tracer.records if r.cat == "splice"]
        assert spans, "no splice spans for a cat-headed pipeline"
        for r in spans:
            assert r.args["bytes"] > 0
            assert r.args["chunks"] > 0
            assert r.args["src"]
            assert r.args["dst"]
        cat = [st for st in tracer.accounting.per_process.values()
               if st.name == "cat"]
        assert cat and cat[0].splice_bytes > 0
        assert cat[0].splice_chunks > 0
        assert reg.value("kernel.splice_bytes") > 0
        assert reg.value("kernel.splice_chunks") > 0

    def test_splice_section_in_report(self):
        _result, tracer, _reg = self.run_traced()
        report = render_report(tracer)
        assert "splice fast path" in report
        assert "[splice]" in report

    def test_no_splice_no_spans(self):
        result, tracer, reg = self.run_traced(no_splice=True)
        assert result.status == 0
        assert not [r for r in tracer.records if r.cat == "splice"]
        assert reg.value("kernel.splice_bytes") == 0

    def test_dispatches_in_totals_and_table(self):
        tracer = Tracer()
        shell = Shell(laptop(), tracer=tracer)
        shell.fs.write_bytes("/in.txt", words())
        assert shell.run("cat /in.txt | wc -l").status == 0
        totals = tracer.accounting.totals()
        assert totals["dispatches"] == float(shell.kernel.dispatches)
        assert totals["dispatches"] > 0
        assert tracer.accounting.to_dict()["totals"]["dispatches"] > 0
        assert "syscall dispatches:" in tracer.accounting.table()
        assert "spliced bytes:" in tracer.accounting.table()


# -- supervised tracing (satellite: supervise.* spans + resumed runs) --------------


class TestSupervisedTracing:
    def test_round_spans_export_and_validate(self, tmp_path):
        import json

        tracer = Tracer()
        sup = make_supervisor(tmp_path, tracer=tracer)
        sup.run_rounds(2, 4096)
        rounds = [r for r in tracer.records if r.name == "supervise.round"]
        assert len(rounds) == 2
        for r in rounds:
            assert r.args["committed"] is True
            assert r.args["attempts"] >= 1
        obj = json.loads(dumps_chrome(tracer))
        assert not validate_chrome_trace(obj)
        names = {ev.get("name") for ev in obj["traceEvents"]}
        assert "supervise.round" in names

    def test_resumed_run_report_has_supervision_section(self, tmp_path):
        sup = make_supervisor(tmp_path)
        with pytest.raises(SimulatedCrash):
            sup.run_rounds(2, 4096, crashes=[CrashPoint(1, "torn-record")])
        tracer = Tracer()
        sup2 = make_supervisor(tmp_path, tracer=tracer)
        sup2.resume()
        sup2.run_rounds(2 - sup2.round, 4096)
        report = render_report(tracer)
        assert "supervision" in report
        assert "round 1" in report
        # dispatch accounting survives the resume's fresh kernels
        totals = tracer.accounting.totals()
        assert totals["dispatches"] >= float(sup2.shell.kernel.dispatches)

    def test_accounting_attach_carries_dispatches(self):
        tracer = Tracer()
        shell = Shell(laptop(), tracer=tracer)
        shell.fs.write_bytes("/in.txt", b"b\na\n")
        assert shell.run("sort /in.txt").status == 0
        first = tracer.accounting.totals()["dispatches"]
        assert first > 0
        shell2 = Shell(laptop(), tracer=tracer)
        shell2.fs.write_bytes("/in.txt", b"d\nc\n")
        assert shell2.run("sort /in.txt").status == 0
        combined = tracer.accounting.totals()["dispatches"]
        assert combined == first + float(shell2.kernel.dispatches)


# -- JIT engine counters -----------------------------------------------------------


def jit_events(optimizer):
    return [(e.node_text, e.decision, e.reason, e.plan_description,
             e.estimate_s, e.baseline_s) for e in optimizer.events]


class TestProfileFeedback:
    def run_jit(self, metrics=None, tracer=None):
        optimizer = JashOptimizer(JashConfig(
            optimizer=OptimizerConfig(min_input_bytes=4096)))
        shell = Shell(laptop(), optimizer=optimizer, metrics=metrics,
                      tracer=tracer)
        shell.fs.write_bytes("/in.txt", words())
        result = shell.run(PIPELINE)
        assert result.status == 0
        return result, optimizer, shell

    def test_flag_off_is_bit_identical(self):
        # the metrics plane only observes: installing a registry leaves
        # every JIT decision and the virtual clock unchanged
        ref_result, ref_opt, _ = self.run_jit()
        result, opt, _ = self.run_jit(metrics=MetricsRegistry())
        assert jit_events(opt) == jit_events(ref_opt)
        assert result.elapsed == ref_result.elapsed

    def test_engine_counters(self):
        reg = MetricsRegistry()
        _result, optimizer, shell = self.run_jit(metrics=reg)
        # every decision is counted (some skip paths count without
        # appending a JitEvent, so >=)
        assert reg.sum_by_name("jit.decisions") >= len(optimizer.events)
        assert reg.value("jit.compiles") >= 1
        assert (reg.value("jit.cert_hits") + reg.value("jit.cert_misses")
                ) > 0
