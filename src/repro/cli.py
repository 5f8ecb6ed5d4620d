"""Command-line front end: ``jash``.

Subcommands::

    jash run SCRIPT.sh [--engine bash|pash|jash] [--machine PROFILE]
    jash run -c 'cat f | sort' --trace OUT.json  # + Chrome trace export
    jash run -c '...' --metrics OUT.json    # + deterministic metrics snapshot
    jash stat SCRIPT.sh [--interval 0.25]   # windowed telemetry tables
    jash profile SCRIPT.sh                  # critical-path report
    jash lint SCRIPT.sh                     # static diagnostics
    jash check SCRIPT.sh [--format json]    # whole-script effect analysis
    jash explain 'cut -c1-4 | sort -rn'     # spec-backed explanation
    jash parse -c 'if true; then echo x; fi'  # AST dump
    jash infer sort -rn                     # black-box spec inference

Scripts run on the *virtual* OS; use --file HOST:VIRT to load inputs.
"""

from __future__ import annotations

import argparse
import sys

from .bench.runners import make_engine
from .parser import ShellSyntaxError
from .shell import Shell
from .vos.machines import PROFILES, profile


def main(argv=None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        return 141  # stdout consumer went away (e.g. `jash ... | head`)
    except ShellSyntaxError as err:
        where = f"line {err.line}: " if err.line > 0 else ""
        print(f"jash: {where}syntax error: {err}", file=sys.stderr)
        return 2


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="jash", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    run_p = sub.add_parser("run", help="run a script on the virtual OS")
    run_p.add_argument("script", nargs="?", help="script file (host path)")
    run_p.add_argument("-c", dest="inline", help="inline script text")
    run_p.add_argument("--engine", choices=("bash", "pash", "jash"),
                       default="jash")
    run_p.add_argument("--machine", choices=sorted(PROFILES), default="laptop")
    run_p.add_argument("--file", action="append", default=[],
                       metavar="HOST:VIRT",
                       help="copy a host file into the virtual fs")
    run_p.add_argument("--report", action="store_true",
                       help="print the optimizer's decisions afterwards")
    run_p.add_argument("--trace", metavar="OUT.json",
                       help="record a trace and export Chrome trace_event "
                            "JSON (open in ui.perfetto.dev)")
    run_p.add_argument("--metrics", metavar="OUT.json",
                       help="sample the metrics plane on the virtual clock "
                            "and export the deterministic snapshot")
    run_p.add_argument("--no-splice", action="store_true",
                       help="disable the kernel splice fast path (results "
                            "are identical; this exists to prove it)")
    run_p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="host worker processes for certificate-gated "
                            "regions (default $JASH_JOBS or 1; stdout and "
                            "virtual times are identical at any N)")
    run_p.add_argument("--supervise", action="store_true",
                       help="run under the crash-consistent supervisor "
                            "(journaled rounds, durable checkpoints, "
                            "resume from --checkpoint after a crash)")
    run_p.add_argument("--checkpoint", metavar="DIR",
                       help="checkpoint directory (journal + cache "
                            "snapshot); required with --supervise")
    run_p.add_argument("--input", metavar="VIRT", default="/stream.log",
                       help="virtual path of the growing input "
                            "(default /stream.log)")
    run_p.add_argument("--tail", metavar="HOST",
                       help="host file to tail as the growing input; "
                            "default is a seeded synthetic log stream")
    run_p.add_argument("--rounds", type=int, default=1,
                       help="supervised rounds to run (default 1)")
    run_p.add_argument("--grow", type=int, default=65536, metavar="BYTES",
                       help="bytes the synthetic source grows per round")
    run_p.add_argument("--seed", type=int, default=0,
                       help="synthetic source seed")

    stat_p = sub.add_parser(
        "stat", help="run a script with the metrics plane and print "
                     "per-window telemetry tables")
    stat_p.add_argument("script", nargs="?", help="script file (host path)")
    stat_p.add_argument("-c", dest="inline", help="inline script text")
    stat_p.add_argument("--engine", choices=("bash", "pash", "jash"),
                        default="jash")
    stat_p.add_argument("--machine", choices=sorted(PROFILES),
                        default="laptop")
    stat_p.add_argument("--file", action="append", default=[],
                        metavar="HOST:VIRT",
                        help="copy a host file into the virtual fs")
    stat_p.add_argument("--interval", type=float, default=0.25,
                        metavar="VSEC",
                        help="sampling window in virtual seconds "
                             "(default 0.25)")
    stat_p.add_argument("--top", type=int, default=5,
                        help="processes to show in the top table")
    stat_p.add_argument("--format", choices=("table", "prom"),
                        default="table",
                        help="table report or Prometheus text exposition")
    stat_p.add_argument("--metrics", metavar="OUT.json",
                        help="also export the deterministic snapshot")
    stat_p.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="host worker processes; adds the pool section "
                             "to the report when N > 1")
    stat_p.add_argument("--supervise", action="store_true",
                        help="drive the script under the supervisor and "
                             "report across its rounds")
    stat_p.add_argument("--checkpoint", metavar="DIR",
                        help="checkpoint directory; required with "
                             "--supervise")
    stat_p.add_argument("--input", metavar="VIRT", default="/stream.log")
    stat_p.add_argument("--tail", metavar="HOST",
                        help="host file to tail as the growing input")
    stat_p.add_argument("--rounds", type=int, default=1)
    stat_p.add_argument("--grow", type=int, default=65536, metavar="BYTES")
    stat_p.add_argument("--seed", type=int, default=0)

    prof_p = sub.add_parser(
        "profile", help="run a script with tracing and print the "
                        "critical-path report")
    prof_p.add_argument("script", nargs="?", help="script file (host path)")
    prof_p.add_argument("-c", dest="inline", help="inline script text")
    prof_p.add_argument("--engine", choices=("bash", "pash", "jash"),
                        default="jash")
    prof_p.add_argument("--machine", choices=sorted(PROFILES),
                        default="laptop")
    prof_p.add_argument("--file", action="append", default=[],
                        metavar="HOST:VIRT",
                        help="copy a host file into the virtual fs")
    prof_p.add_argument("--trace", metavar="OUT.json",
                        help="also export the Chrome trace_event JSON")
    prof_p.add_argument("--top", type=int, default=8,
                        help="processes to show in the report table")

    lint_p = sub.add_parser("lint", help="static analysis of a script")
    lint_p.add_argument("script", nargs="?")
    lint_p.add_argument("-c", dest="inline")

    check_p = sub.add_parser(
        "check", help="whole-script effect analysis: safety certificates, "
                      "races, def-use flow, plus all lint diagnostics")
    check_p.add_argument("script", nargs="?")
    check_p.add_argument("-c", dest="inline")
    check_p.add_argument("--format", choices=("text", "json"),
                         default="text")
    check_p.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="also report S21 pool eligibility (JS2260) "
                              "as if run with --jobs N")

    explain_p = sub.add_parser("explain",
                               help="explain a pipeline or a JSnnnn "
                                    "lint code")
    explain_p.add_argument("pipeline")

    tutor_p = sub.add_parser("tutor", help="review a script with guidance")
    tutor_p.add_argument("script", nargs="?")
    tutor_p.add_argument("-c", dest="inline")

    parse_p = sub.add_parser("parse", help="dump the AST")
    parse_p.add_argument("script", nargs="?")
    parse_p.add_argument("-c", dest="inline")

    infer_p = sub.add_parser("infer", help="infer a command's spec")
    infer_p.add_argument("argv", nargs="+")

    diff_p = sub.add_parser(
        "difftest",
        help="differential conformance campaign vs the host /bin/sh")
    diff_p.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    diff_p.add_argument("--count", type=int, default=200,
                        help="number of generated scripts (default 200)")
    diff_p.add_argument("--profile", default="default", dest="grammar_profile",
                        help="grammar profile (see `jash difftest --list-profiles`)")
    diff_p.add_argument("--list-profiles", action="store_true",
                        help="list grammar profiles and exit")
    diff_p.add_argument("--minimize", action="store_true",
                        help="delta-debug each divergence to a minimal script")
    diff_p.add_argument("--save-corpus", action="store_true",
                        help="write minimized divergences to tests/corpus/divergences/")
    diff_p.add_argument("--shell", default=None,
                        help="host shell binary (default: sh on PATH)")
    diff_p.add_argument("--baseline", default=None,
                        help="known-divergence baseline JSON (fail only on new ones)")
    diff_p.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline with this campaign's divergences")
    diff_p.add_argument("--show", type=int, default=10, metavar="N",
                        help="print at most N divergences (default 10)")
    diff_p.add_argument("--replay", default=None, metavar="DIR",
                        help="replay checked-in session traces from DIR "
                             "instead of generating scripts")
    diff_p.add_argument("--report", default=None, metavar="FILE",
                        help="write a JSON divergence report (CI artifact)")
    diff_p.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="run the virtual side under the S21 host pool "
                             "with N workers (ship gate forced open so tiny "
                             "corpora still exercise it)")

    args = parser.parse_args(argv)

    if args.cmd == "run":
        if args.no_splice:
            from .commands.base import set_splice_enabled

            set_splice_enabled(False)
        text = _script_text(args)
        machine = profile(args.machine)
        metrics = _make_metrics(args)
        if args.supervise:
            return _supervise(args, text, machine, metrics=metrics)
        optimizer = make_engine(args.engine)
        tracer = None
        if args.trace:
            from .obs import Tracer

            tracer = Tracer()
        shell = Shell(machine, optimizer=optimizer, tracer=tracer,
                      metrics=metrics, jobs=args.jobs)
        for spec in args.file:
            host, _, virt = spec.partition(":")
            with open(host, "rb") as fh:
                shell.fs.write_bytes(virt or "/" + host, fh.read())
        _warn_jobs_idle(text, shell)
        result = shell.run(text)
        sys.stdout.write(result.out)
        sys.stderr.write(result.err)
        print(f"[virtual time: {result.elapsed:.4f}s on {machine.name}]",
              file=sys.stderr)
        if args.report and optimizer is not None and hasattr(optimizer, "report"):
            print(optimizer.report(), file=sys.stderr)
        if tracer is not None:
            from .obs import dump_chrome

            dump_chrome(tracer, args.trace)
            print(f"[trace: {len(tracer.records)} records -> {args.trace}]",
                  file=sys.stderr)
        if metrics is not None:
            _export_metrics(metrics, shell.kernel.now, args.metrics)
        return result.status

    if args.cmd == "stat":
        return _stat(args)

    if args.cmd == "profile":
        from .obs import Tracer, dump_chrome, render_report

        text = _script_text(args)
        machine = profile(args.machine)
        optimizer = make_engine(args.engine)
        tracer = Tracer()
        shell = Shell(machine, optimizer=optimizer, tracer=tracer)
        for spec in args.file:
            host, _, virt = spec.partition(":")
            with open(host, "rb") as fh:
                shell.fs.write_bytes(virt or "/" + host, fh.read())
        result = shell.run(text)
        sys.stderr.write(result.err)
        print(f"[status {result.status}, virtual time {result.elapsed:.4f}s "
              f"on {machine.name}, engine {args.engine}]")
        print(render_report(tracer, top=args.top))
        if args.trace:
            dump_chrome(tracer, args.trace)
            print(f"[trace: {len(tracer.records)} records -> {args.trace}]")
        return result.status

    if args.cmd == "lint":
        from .lint import lint

        text = _script_text(args)
        diagnostics = lint(text)
        for diag in diagnostics:
            print(diag)
        return 1 if any(d.severity == "error" for d in diagnostics) else 0

    if args.cmd == "check":
        return _check(args)

    if args.cmd == "explain":
        import re as _re

        from .lint import explain, explain_check

        if _re.fullmatch(r"JS\d{4}", args.pipeline):
            print(explain_check(args.pipeline))
        else:
            print(explain(args.pipeline))
        return 0

    if args.cmd == "tutor":
        from .lint import tutor

        print(tutor(_script_text(args)).render())
        return 0

    if args.cmd == "parse":
        from .parser import parse

        print(parse(_script_text(args)))
        return 0

    if args.cmd == "infer":
        from .annotations.inference import infer

        result = infer(args.argv)
        print(f"{' '.join(args.argv)}: {result.par_class.value}")
        if result.aggregator is not None:
            agg = result.aggregator
            print(f"  aggregator: {agg.kind.value} {' '.join(agg.argv)}")
        for line in result.evidence:
            print(f"  evidence: {line}")
        return 0

    if args.cmd == "difftest":
        return _difftest(args)

    return 2


def _warn_jobs_idle(text: str, shell) -> None:
    """JS2260: tell the user when --jobs > 1 cannot do anything."""
    if shell.host_coord is None:
        return
    from .analysis import analyze_program
    from .lint import check_jobs_eligibility
    from .parser import parse

    try:
        program = parse(text)
        diag = check_jobs_eligibility(
            program, analyze_program(program, fs=shell.fs), shell.jobs)
    except Exception:
        return
    if diag is not None:
        print(diag, file=sys.stderr)


def _make_metrics(args):
    if not getattr(args, "metrics", None):
        return None
    from .obs import MetricsRegistry

    return MetricsRegistry(interval=getattr(args, "interval", 0.25))


def _export_metrics(metrics, now: float, path: str) -> None:
    from .obs import dump_snapshot

    metrics.finish(now)
    dump_snapshot(metrics, path)
    print(f"[metrics: {len(metrics.series)} series, "
          f"{len(metrics.windows)} window(s) -> {path}]", file=sys.stderr)


def _supervise(args, text: str, machine, metrics=None,
               emit_output: bool = True) -> int:
    """``jash run --supervise``: journaled rounds over a growing input,
    resumable from the checkpoint directory after a crash."""
    from .supervise import (FileTailSource, Supervisor, SuperviseConfig,
                            SyntheticSource)

    if not args.checkpoint:
        print("jash run --supervise requires --checkpoint DIR",
              file=sys.stderr)
        return 2
    tracer = None
    if getattr(args, "trace", None):
        from .obs import Tracer

        tracer = Tracer()
    source = (FileTailSource(args.tail) if args.tail
              else SyntheticSource(seed=args.seed))
    config = SuperviseConfig(script=text, checkpoint_dir=args.checkpoint,
                             input_path=args.input, machine=machine,
                             tracer=tracer, metrics=metrics)
    supervisor = Supervisor(config, source)
    repairs = supervisor.resume()
    if repairs["records"]:
        print(f"[resumed: {repairs['records']} committed round(s), "
              f"input offset {supervisor.journal.input_offset}, repaired "
              f"{repairs['torn_tail_bytes']}B torn tail / "
              f"{repairs['orphan_segs']} orphan seg(s)]", file=sys.stderr)
    for _ in range(max(1, args.rounds)):
        if not args.tail:
            source.grow(args.grow)
        report = supervisor.run_round()
        print(f"[round {report.round}: engine {report.engine}, "
              f"{report.attempts} attempt(s), {report.mode} commit, "
              f"output {report.output_len}B, saved {report.saved_bytes}B]",
              file=sys.stderr)
    if emit_output:
        sys.stdout.buffer.write(supervisor.committed_output())
        sys.stdout.flush()
    if tracer is not None:
        from .obs import dump_chrome

        dump_chrome(tracer, args.trace)
        print(f"[trace: {len(tracer.records)} records -> {args.trace}]",
              file=sys.stderr)
    if metrics is not None and supervisor.shell is not None:
        metrics.finish(supervisor.shell.kernel.now)
        if getattr(args, "metrics", None):
            _export_metrics(metrics, supervisor.shell.kernel.now,
                            args.metrics)
    return 0


def _stat(args) -> int:
    """``jash stat``: run the workload with the metrics plane installed
    and print the windowed telemetry report (script stdout is
    suppressed; telemetry is the product)."""
    from .obs import MetricsRegistry, render_prometheus, render_stat

    text = _script_text(args)
    machine = profile(args.machine)
    metrics = MetricsRegistry(interval=args.interval)
    shell = None
    if args.supervise:
        status = _supervise(args, text, machine, metrics=metrics,
                            emit_output=False)
        if status != 0:
            return status
    else:
        optimizer = make_engine(args.engine)
        shell = Shell(machine, optimizer=optimizer, metrics=metrics,
                      jobs=args.jobs)
        for spec in args.file:
            host, _, virt = spec.partition(":")
            with open(host, "rb") as fh:
                shell.fs.write_bytes(virt or "/" + host, fh.read())
        _warn_jobs_idle(text, shell)
        result = shell.run(text)
        sys.stderr.write(result.err)
        print(f"[status {result.status}, virtual time {result.elapsed:.4f}s "
              f"on {machine.name}, engine {args.engine}]", file=sys.stderr)
        metrics.finish(shell.kernel.now)
        if args.metrics:
            _export_metrics(metrics, shell.kernel.now, args.metrics)
    if args.format == "prom":
        sys.stdout.write(render_prometheus(metrics))
    else:
        sys.stdout.write(render_stat(metrics, top=args.top))
        if shell is not None and shell.host_coord is not None:
            from .parallel_host import render_pool_stats

            coord = shell.host_coord
            worker_stats = (coord.pool.worker_stats
                            if coord.pool is not None else {})
            sys.stdout.write(render_pool_stats(coord.stats, worker_stats))
    return 0


def _difftest(args) -> int:
    """``jash difftest``: generate seeded scripts, run them in both
    shells, and report divergences (optionally minimized / baselined)."""
    from pathlib import Path

    from . import difftest as dt
    from .difftest import runner as dt_runner

    if args.list_profiles:
        for name in dt.profiles():
            print(name)
        return 0

    if args.jobs and args.jobs > 1:
        # the runner builds its own Shells; the env default reaches them.
        # Forcing the ship gate open makes tiny generated corpora still
        # exercise the pool machinery.
        import os

        os.environ["JASH_JOBS"] = str(args.jobs)
        os.environ.setdefault("JASH_POOL_MIN_BYTES", "0")

    if args.replay:
        return _difftest_replay(args)

    if dt_runner.HOST_SH is None and args.shell is None:
        print("difftest: no host /bin/sh available; nothing to compare against",
              file=sys.stderr)
        return 0

    cases = dt.generate_cases(args.seed, args.count, args.grammar_profile)
    result = dt.run_campaign(cases, sh=args.shell)
    print(f"difftest: {result.agreed}/{result.total} agreed "
          f"(profile={args.grammar_profile}, seed={args.seed})")

    divergences = result.divergences
    if args.minimize and divergences:
        minimized = []
        for d in divergences:
            reduced = dt.minimize(d.case, sh=args.shell)
            # re-run so the reported outcomes describe the reduced case
            minimized.append(dt.run_case(reduced, sh=args.shell) or d)
        divergences = minimized

    baseline_path = Path(args.baseline) if args.baseline else None
    baseline = dt.load_baseline(baseline_path) if (
        args.baseline or args.update_baseline) else {}
    new, known = (dt.split_new(divergences, baseline)
                  if baseline else (divergences, []))
    if known:
        print(f"difftest: {len(known)} known divergence(s) in baseline")

    for d in new[:args.show]:
        print(f"--- {d.case.ident} [{dt.fingerprint(d.case)}]: {d.reason}")
        print(d.case.script)
        if d.case.files:
            for name in sorted(d.case.files):
                print(f"  file {name}: {d.case.files[name]!r}")
        print(f"  virtual: status={d.virtual.status} "
              f"stdout={d.virtual.stdout[:120]!r}")
        print(f"  host:    status={d.host.status} "
              f"stdout={d.host.stdout[:120]!r}")
    if len(new) > args.show:
        print(f"... and {len(new) - args.show} more")

    if args.save_corpus:
        for d in new:
            host = d.host
            entry = dt.CorpusEntry(
                name=d.case.ident, profile=d.case.profile, reason=d.reason,
                script=d.case.script, files=d.case.files,
                expect_status=host.status, expect_stdout=host.stdout)
            path = dt.write_entry(entry)
            print(f"difftest: saved {path}")

    if args.report:
        _write_difftest_report(
            args.report, result,
            mode="grammar", profile=args.grammar_profile, seed=args.seed,
            new=new, known=known)

    if args.update_baseline:
        path = dt.save_baseline(divergences, baseline_path)
        print(f"difftest: baseline updated -> {path}")
        return 0

    if new:
        print(f"difftest: {len(new)} NEW divergence(s)", file=sys.stderr)
        return 1
    return 0


def _write_difftest_report(path, result, *, mode, new, known,
                           profile=None, seed=None) -> None:
    """JSON divergence report for CI artifact upload."""
    import json

    from . import difftest as dt

    def _div(d):
        return {
            "ident": d.case.ident,
            "fingerprint": dt.fingerprint(d.case),
            "reason": d.reason,
            "script": d.case.script,
            "files": {name: data.decode("latin-1")
                      for name, data in sorted(d.case.files.items())},
            "virtual": {"status": d.virtual.status,
                        "stdout": d.virtual.stdout.decode("latin-1"),
                        "error": d.virtual.error},
            "host": {"status": d.host.status,
                     "stdout": d.host.stdout.decode("latin-1"),
                     "error": d.host.error},
        }

    payload = {
        "mode": mode,
        "profile": profile,
        "seed": seed,
        "total": result.total,
        "agreed": result.agreed,
        "new": [_div(d) for d in new],
        "known": [_div(d) for d in known],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"difftest: report written -> {path}")


def _difftest_replay(args) -> int:
    """``jash difftest --replay DIR``: replay checked-in session traces.
    With a host shell: the full virtual-vs-host comparison.  Without one:
    verify the virtual shell against each trace's recorded expectations."""
    from pathlib import Path

    from . import difftest as dt
    from .difftest import runner as dt_runner

    directory = Path(args.replay)
    traces = dt.load_sessions(directory)
    if not traces:
        print(f"difftest: no *.session traces under {directory}",
              file=sys.stderr)
        return 1

    if dt_runner.HOST_SH is None and args.shell is None:
        # host-less box: fall back to the recorded expectations
        failures = []
        for trace in traces:
            reason = dt.verify_recorded(trace)
            if reason is not None:
                failures.append((trace, reason))
        print(f"difftest: replayed {len(traces)} session(s) against "
              f"recordings, {len(failures)} mismatch(es)")
        for trace, reason in failures[:args.show]:
            print(f"--- session-{trace.name}: {reason}")
        return 1 if failures else 0

    result = dt.run_replay(traces, sh=args.shell)
    print(f"difftest: {result.agreed}/{result.total} session(s) agreed "
          f"(dir={directory})")

    divergences = result.divergences
    if args.minimize and divergences:
        by_name = {f"session-{t.name}": t for t in traces}
        minimized = []
        for d in divergences:
            trace = by_name.get(d.case.ident)
            if trace is None:
                minimized.append(d)
                continue
            reduced = dt.minimize_session(trace, sh=args.shell)
            case = dt.session_case(reduced)
            minimized.append(dt.run_case(case, sh=args.shell) or d)
        divergences = minimized

    baseline_path = Path(args.baseline) if args.baseline else None
    baseline = dt.load_baseline(baseline_path) if args.baseline else {}
    new, known = (dt.split_new(divergences, baseline)
                  if baseline else (divergences, []))
    if known:
        print(f"difftest: {len(known)} known divergence(s) in baseline")

    for d in new[:args.show]:
        print(f"--- {d.case.ident} [{dt.fingerprint(d.case)}]: {d.reason}")
        print(d.case.script)
        print(f"  virtual: status={d.virtual.status} "
              f"stdout={d.virtual.stdout[:120]!r}")
        print(f"  host:    status={d.host.status} "
              f"stdout={d.host.stdout[:120]!r}")
    if len(new) > args.show:
        print(f"... and {len(new) - args.show} more")

    if args.report:
        _write_difftest_report(args.report, result, mode="replay",
                               new=new, known=known)

    if new:
        print(f"difftest: {len(new)} NEW session divergence(s)",
              file=sys.stderr)
        return 1
    return 0


def _check(args) -> int:
    """``jash check``: run the S16 analyzer + all lint checks and render
    a whole-script safety report."""
    import json

    from .analysis import analyze_program
    from .lint import lint
    from .parser import parse

    text = _script_text(args)
    program = parse(text)
    result = analyze_program(program)
    diagnostics = lint(text)
    if args.jobs and args.jobs > 1:
        from .lint import check_jobs_eligibility

        jobs_diag = check_jobs_eligibility(program, result, args.jobs)
        if jobs_diag is not None:
            diagnostics.append(jobs_diag)
    errors = sum(1 for d in diagnostics if d.severity == "error")

    if args.format == "json":
        payload = result.to_dict()
        # deterministic order regardless of check registration or hash
        # seed: position first, then code/message/context tie-breaks
        payload["diagnostics"] = [
            {"code": d.code, "severity": d.severity,
             "line": d.line, "col": d.col,
             "message": d.message, "context": d.context}
            for d in sorted(diagnostics,
                            key=lambda d: (d.line, d.col, d.code,
                                           d.message, d.context))
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if errors else 0

    stats = result.stats()
    print(f"statements analyzed: {stats['statements']}")
    print(f"certificates: {stats['certificates']} "
          f"(safe_parallel {stats['safe_parallel']}, "
          f"safe_reorder {stats['safe_reorder']}, "
          f"unsafe {stats['unsafe']})")
    for cert in result.cert_list:
        print(f"  [{cert.verdict}] `{cert.node_text}` — {cert.reason} "
              f"({cert.digest})")
        for hazard in cert.hazards:
            print(f"      hazard: {hazard}")
    if result.statements:
        print("effects:")
        for stmt in result.statements:
            s = stmt.summary
            reads = ", ".join(sorted(p.display() for p in s.reads)) or "-"
            writes = ", ".join(sorted(p.display() for p in s.writes)) or "-"
            mark = " &" if stmt.is_async else ""
            opaque = " (opaque)" if s.opaque else ""
            print(f"  `{stmt.text}`{mark}: reads {reads}; writes "
                  f"{writes}{opaque}")
    if result.races:
        print("races:")
        for race in result.races:
            print(f"  {race.display()}")
    if result.use_before_def:
        print("use-before-def:")
        for use in result.use_before_def:
            print(f"  ${use.name} in `{_unparse_node(use.node)}`")
    if diagnostics:
        print("diagnostics:")
        for diag in diagnostics:
            print(f"  {diag}")
    print(f"{errors} error(s), "
          f"{sum(1 for d in diagnostics if d.severity == 'warning')} "
          f"warning(s)")
    return 1 if errors else 0


def _unparse_node(node) -> str:
    from .parser.unparse import unparse

    return unparse(node)


def _script_text(args) -> str:
    if getattr(args, "inline", None):
        return args.inline
    if getattr(args, "script", None):
        with open(args.script, "r") as fh:
            return fh.read()
    return sys.stdin.read()


if __name__ == "__main__":
    raise SystemExit(main())
