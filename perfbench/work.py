"""One workload in a fresh interpreter: set up, report ready, run, report.

``run.py`` spawns this with ``PYTHONPATH`` pointing at the checkout's
``src``.  Everything up to the ``READY`` line is set-up (importing
``repro.cli``, building the shell, loading inputs into the virtual
filesystem); ``run.py`` times it from the spawn.  The result is one
``RESULT {json}`` line.

Every mode except ``setup`` starts with one warm-up job: it pays the
lazy imports and cold caches a process pays once, and it is checked but
not timed.

Modes:

* ``setup`` — exit after ``READY`` (more set-up samples);
* ``run`` — closed loop, one client: jobs back to back until
  ``--seconds`` have passed (whole passes of the script list for
  ``scripts``);
* ``trace`` — a fixed number of jobs untraced, then the same jobs with
  :mod:`probes` installed; reports per-layer figures;
* ``baseline`` — a fixed number of untraced jobs (the ``spell-pool``
  sequential and one-part baselines).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import refs


@dataclass(slots=True)
class Job:
    latency: float  # host seconds
    virtual: float  # RunResult.elapsed
    in_bytes: int
    error: str | None


class PipelineWorkload:
    """One pipeline over one input (``wordfreq``, ``spell-pool``).

    Each job runs in its own shell, as a separate ``jash run`` would: the
    one built during set-up serves the first job, and a fresh one with
    the input in its VFS replaces it after every job.  Between jobs the
    ``--jobs`` pool is shut down and garbage collected, as at the end of
    a ``jash run``, so no job inherits workers, pool state or memory
    from the one before."""

    pass_len = 1

    def __init__(self, inputs: Path, script: str, in_path: str,
                 out_path: str, engine: str, jobs: int):
        self.data = (inputs / "input.txt").read_bytes()
        self.expected = (inputs / "expected.txt").read_bytes()
        self.script, self.in_path, self.out_path = script, in_path, out_path
        self.engine, self.jobs = engine, jobs
        self.first_output: bytes | None = None
        self.worker_host_s = 0.0
        self._totals: dict = {}
        self.shell = self._new_shell()

    def _new_shell(self):
        from repro.bench.runners import make_engine
        from repro.shell import Shell
        from repro.vos.machines import laptop

        shell = Shell(laptop(), optimizer=make_engine(self.engine),
                      jobs=self.jobs)
        shell.fs.write_bytes(self.in_path, self.data)
        return shell

    def run_job(self, i: int) -> Job:
        shell = self.shell
        try:
            t0 = time.perf_counter()
            result = shell.run(self.script)
            latency = time.perf_counter() - t0
        finally:
            self._retire(shell)
        out = shell.fs.read_bytes(self.out_path)
        if self.first_output is None:
            self.first_output = out
        error = refs.compare(out, result.status, self.expected, 0)
        return Job(latency, result.elapsed, len(self.data), error)

    def _retire(self, shell) -> None:
        for key, value in shell_counters(shell).items():
            self._totals[key] = self._totals.get(key, 0) + value
        coord = shell.host_coord
        if coord is not None and coord.pool is not None:
            from repro.parallel_host import shutdown_global_pool

            self.worker_host_s += sum(
                s["host_s"] for s in coord.pool.worker_stats.values())
            shutdown_global_pool()  # joins the workers: their rusage lands
        # the run leaves its buffers in reference cycles; a process that
        # exits after one run never carries them into the next
        gc.collect()
        self.shell = self._new_shell()

    def counters(self) -> dict:
        return dict(self._totals,
                    **{"parallel_host.worker_host_s": self.worker_host_s})

    def finish(self) -> dict:
        facts = {"output_sha256": hashlib.sha256(
            self.first_output or b"").hexdigest()}
        if self.jobs > 1:
            facts["worker_peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return facts


class ScriptsWorkload:
    """A stream of short scripts, each in a fresh ``Shell(laptop(),
    optimizer=JashOptimizer())`` as separate ``jash run`` calls get."""

    def __init__(self, inputs: Path, seed: int):
        from repro.jit import JashOptimizer
        from repro.shell import Shell
        from repro.vos.machines import laptop

        self._shell = lambda: Shell(laptop(), optimizer=JashOptimizer())
        programs = json.loads((inputs / "programs.json").read_text())
        for prog in programs:
            prog["files"] = {k: v.encode() for k, v in prog["files"].items()}
            prog["expect_stdout"] = prog["expect_stdout"].encode()
        scripts = refs.load_corpus() + programs
        random.Random(f"order:{seed}").shuffle(scripts)
        self.scripts = scripts
        self.pass_len = len(scripts)
        self._totals: dict = {}

    def run_job(self, i: int) -> Job:
        entry = self.scripts[i % self.pass_len]
        t0 = time.perf_counter()
        shell = self._shell()
        for name, data in entry["files"].items():
            shell.fs.write_bytes("/" + name, data)
        result = shell.run(entry["script"])
        latency = time.perf_counter() - t0
        for key, value in shell_counters(shell).items():
            self._totals[key] = self._totals.get(key, 0) + value
        in_bytes = len(entry["script"]) + sum(map(len, entry["files"].values()))
        error = refs.compare(result.stdout, result.status,
                             entry["expect_stdout"], entry["expect_status"])
        if error:
            error = f"{entry['name']}: {error}"
        return Job(latency, result.elapsed, in_bytes, error)

    def counters(self) -> dict:
        return dict(self._totals)

    def finish(self) -> dict:
        return {}


def shell_counters(shell) -> dict:
    """Cumulative counters the program already keeps."""
    out = {"vos.kernel.dispatches": shell.kernel.dispatches,
           "vos.kernel.steps": shell.kernel.steps}
    opt = shell.optimizer
    if opt is not None:
        out["cert_hits"] = opt.cert_hits
        out["cert_misses"] = opt.cert_misses
        out["jit.regions_optimized"] = opt.optimized_count
        out["jit.regions_degraded"] = opt.degraded_count
    if shell.host_coord is not None:
        for key, value in shell.host_coord.stats.items():
            out["parallel_host." + key] = value
    return out


def make_workload(name: str, inputs: Path, seed: int, jobs: int | None):
    if name == "wordfreq":
        return PipelineWorkload(inputs, refs.WORDFREQ_SCRIPT,
                                refs.WORDFREQ_INPUT, refs.WORDFREQ_OUTPUT,
                                "jash", jobs or 1)
    if name == "spell-pool":
        return PipelineWorkload(inputs, refs.SPELL_SCRIPT, refs.SPELL_INPUT,
                                refs.SPELL_OUTPUT, "bash", jobs or 2)
    if name == "scripts":
        return ScriptsWorkload(inputs, seed)
    raise ValueError(f"unknown workload {name!r}")


def run_jobs(workload, count: int | None = None,
             seconds: float | None = None) -> list[Job]:
    """Closed loop: the next job starts when the previous one ended.
    Stops after ``count`` jobs, or at the first pass boundary after
    ``seconds``; a job that raises is a failed job, not an abort."""
    jobs: list[Job] = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        try:
            jobs.append(workload.run_job(len(jobs)))
        except Exception as exc:  # a crash is a failed job; keep measuring
            jobs.append(Job(time.perf_counter() - start, 0.0, 0,
                            f"{type(exc).__name__}: {exc}"))
        if count is not None:
            if len(jobs) >= count:
                break
        elif (time.perf_counter() - t0 >= seconds and len(jobs) >= 2
              and len(jobs) % workload.pass_len == 0):
            break
    return jobs


def summarize(jobs: list[Job], untimed: list[Job]) -> dict:
    """Timings of ``jobs``; failures of ``untimed`` jobs count too."""
    return {
        "latencies": [j.latency for j in jobs],
        "virtuals": [j.virtual for j in jobs],
        "in_bytes": sum(j.in_bytes for j in jobs),
        "errors": [j.error for j in untimed + jobs if j.error],
        "attempted": len(untimed) + len(jobs),
    }


def traced(workload, count: int, spans_out: Path) -> dict:
    """``count`` jobs untraced, then the same jobs traced, after the
    warm-up job every mode starts with."""
    import probes

    warmup = run_jobs(workload, count=1)
    untraced = run_jobs(workload, count=count)
    before = workload.counters()
    rec = probes.Recorder()
    probes.install(rec)
    jobs = run_jobs(workload, count=count)
    after = workload.counters()
    rec.dump(spans_out)
    layers = probes.layer_times(rec.spans)
    counters = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    counters.update(rec.counts)
    # medians, so one slow job on a noisy host does not set the figure
    overhead = count * (statistics.median(j.latency for j in jobs)
                        - statistics.median(j.latency for j in untraced))
    out = summarize(untraced + jobs, untimed=warmup)
    out.update(layers=layers, counters=counters, overhead_s=overhead)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", default="run",
                    choices=("setup", "run", "trace", "baseline"))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--count", type=int, default=0,
                    help="jobs of a trace or baseline run (0: one pass)")
    ap.add_argument("--jobs", type=int, default=None)
    args = ap.parse_args(argv)

    import repro.cli  # noqa: F401  - what `jash run` pays before anything

    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if src not in Path(repro.cli.__file__).resolve().parents:
        print(f"repro imported from {repro.cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    workload = make_workload(args.workload, args.inputs, args.seed, args.jobs)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    count = args.count or workload.pass_len
    if args.mode == "trace":
        result = traced(workload, count, args.inputs / "spans.jsonl")
    else:
        warmup = run_jobs(workload, count=1)
        if args.mode == "run":
            jobs = run_jobs(workload, seconds=args.seconds)
        else:
            jobs = run_jobs(workload, count=count)
        result = summarize(jobs, untimed=warmup)
        result["pass_len"] = workload.pass_len
    result.update(workload.finish())
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
