"""The repository benchmark: end-to-end and per-layer host figures.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wordfreq --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload spell-pool --seed 1 --trace 1
    python3 perfbench/run.py --check      # every workload once, untimed

Each run generates its inputs from ``--seed`` in a separate process,
times set-up over several fresh interpreters, then runs the workload in
the last of them: with ``--trace 0`` a closed loop for ``--seconds``
reporting the end-to-end metrics, with ``--trace 1`` a fixed number of
jobs untraced and then traced, reporting the per-layer metrics.  The
last line of standard output is the result as one JSON object.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("wordfreq", "spell-pool", "scripts")
#: fresh interpreters timed per run; the median is ``setup_s``
SETUPS = 9
#: fixed job counts of a traced run, run untraced and then traced
#: (0: one pass of the script list)
TRACE_JOBS = {"wordfreq": 2, "spell-pool": 3, "scripts": 0}
#: jobs per spell-pool baseline in a traced run
BASELINE_JOBS = 2
#: host seconds a whole run may take; children still running then are
#: killed and the run fails without a result
RUN_BUDGET_S = 170.0

#: top-level ``repro`` packages and modules reported by import time
IMPORT_PACKAGES = (
    "analysis", "annotations", "bench", "cli", "commands", "compiler", "dfg",
    "difftest", "distributed", "incremental", "jit", "lint", "obs",
    "parallel_host", "parser", "semantics", "shell", "supervise", "vos")
#: commands whose busy time is reported by name; the rest sum to "other"
REPORTED_COMMANDS = (
    "awk", "basename", "cat", "cut", "echo", "grep", "head", "paste",
    "printf", "sed", "seq", "sleep", "sort", "tail", "test", "tr", "uniq",
    "wc")
#: registry names that are not valid metric names
COMMAND_ALIASES = {"[": "test"}
POOL_COUNTERS = ("regions_dispatched", "regions_validated", "oracle_hits",
                 "oracle_fallbacks", "bytes_shipped", "bytes_returned")

END_TO_END = {
    "throughput_mbps": "MB/s", "scripts_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_p99_ms": "ms", "virtual_s": "sim_s",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(**extra: str) -> dict:
    # nothing the benchmark runs writes bytecode into the checkout, which
    # starts without any: every interpreter compiles the program from
    # source, so set-up time does not depend on what ran before
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC),
               PYTHONHASHSEED="0", TMPDIR=str(WORK / "tmp"),
               PYTHONDONTWRITEBYTECODE="1")
    env.update(extra)
    return env


def remaining(deadline: float) -> float:
    left = deadline - perf_counter()
    if left <= 0:
        raise BenchError("out of time")
    return left


def generate(workload: str, seed: int, inputs: Path, deadline: float) -> dict:
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload",
                    workload, "--seed", str(seed), "--out", str(inputs)],
                   env=child_env(), check=True, timeout=remaining(deadline))
    return json.loads((inputs / "facts.json").read_text())


def spawn(workload: str, inputs: Path, seed: int, mode: str, deadline: float,
          *, seconds: float = 0.0, count: int = 0, jobs: int | None = None,
          env: dict | None = None) -> tuple[float, dict | None]:
    """Start a workload interpreter; returns (seconds until READY, the
    RESULT object or None for set-up-only children).  A child still
    running at ``deadline`` is killed."""
    cmd = [sys.executable, str(HERE / "work.py"), "--workload", workload,
           "--inputs", str(inputs), "--seed", str(seed), "--mode", mode,
           "--seconds", str(seconds), "--count", str(count)]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=env or child_env())
    watchdog = threading.Timer(remaining(deadline), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        if ready.strip() != "READY":
            raise BenchError(f"{workload} {mode}: no READY ({ready!r})")
        result = None
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[7:])
        status = proc.wait()
        if status != 0 or (mode != "setup" and result is None):
            raise BenchError(f"{workload} {mode}: exit status {status}")
        return setup, result
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(result: dict, setups: list[float]) -> dict:
    lat = result["latencies"]
    virtuals = result["virtuals"]
    busy = sum(lat)  # the jobs' own time, without the loop between them
    # every job of a pipeline workload runs the same input, so its first
    # job's virtual time is the workload's; a script pass sums its jobs
    virtual = sum(virtuals[:result["pass_len"]])
    return {
        "throughput_mbps": result["in_bytes"] / 1e6 / busy,
        "scripts_per_s": len(lat) / busy,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p99_ms": percentile(lat, 99) * 1e3,
        "virtual_s": virtual,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ratio": 1 - len(result["errors"]) / result["attempted"],
    }


def import_times(deadline: float, runs: int = 3) -> dict:
    """Per-package host seconds of ``import repro.cli`` from ``python -X
    importtime`` (median of ``runs``).  A module's self time goes to the
    nearest ``repro.<package>`` at or above it in the import tree, so
    the standard-library modules a package pulls in count for it."""
    samples: dict[str, list[float]] = {}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            env=child_env(), capture_output=True, text=True,
            timeout=remaining(deadline), check=True)
        totals = attribute_imports(proc.stderr)
        for key in ["total", *IMPORT_PACKAGES]:
            samples.setdefault(key, []).append(totals.get(key, 0.0))
    return {f"import.{k}_s": statistics.median(v) for k, v in samples.items()}


def attribute_imports(log: str) -> dict[str, float]:
    rows = []  # (depth, module, self seconds), in completion order
    for line in log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the column header
        module = name.strip()
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, module, int(self_us) / 1e6))
    # the log lists children before their parent: walk it backwards so
    # each module's ancestors have been seen when it is reached
    out: dict[str, float] = {}
    path: list[str] = []  # module names by depth, root first
    for depth, module, seconds in reversed(rows):
        del path[depth:]
        path.append(module)
        if not path[0].startswith("repro"):
            continue
        out["total"] = out.get("total", 0.0) + seconds
        owner = next((m for m in reversed(path)
                      if m.count(".") >= 1 and m.startswith("repro.")), None)
        if owner is not None:
            pkg = owner.split(".")[1]
            out[pkg] = out.get(pkg, 0.0) + seconds
    return out


def per_layer(traced: dict, facts: dict, baselines: dict) -> dict:
    layers, counts = traced["layers"], traced["counters"]
    hits, misses = counts.get("cert_hits", 0), counts.get("cert_misses", 0)
    pushes = counts.get("vos.pipes.push", 0)
    pool = {k: counts.get("parallel_host." + k, 0) for k in POOL_COUNTERS}
    out = {
        "parser.parse_s": layers.get("parser.parse_s", 0.0),
        "parser.calls": counts.get("parser.calls", 0),
        "analysis.compile_program_s":
            layers.get("analysis.compile_program_s", 0.0),
        "analysis.cert_hit_rate": hits / (hits + misses) if hits + misses
        else 0.0,
        "semantics.expand_word_s": layers.get("semantics.expand_word_s", 0.0),
        "semantics.expand_word_calls":
            counts.get("semantics.expand_word_calls", 0),
        "semantics.arith_s": layers.get("semantics.arith_s", 0.0),
        "jit.try_execute_s": layers.get("jit.try_execute_s", 0.0),
        "jit.try_execute_calls": counts.get("jit.try_execute_calls", 0),
        "jit.regions_optimized": counts.get("jit.regions_optimized", 0),
        "jit.regions_degraded": counts.get("jit.regions_degraded", 0),
        "compiler.split_s": layers.get("compiler.split_s", 0.0),
        "compiler.merge_s": layers.get("compiler.merge_s", 0.0),
        "commands.sort.kway_merge_s":
            layers.get("commands.sort.kway_merge_s", 0.0),
        "vos.kernel.self_s": layers.get("vos.kernel.self_s", 0.0),
        "vos.kernel.dispatches": counts.get("vos.kernel.dispatches", 0),
        "vos.kernel.steps": counts.get("vos.kernel.steps", 0),
        "vos.kernel.processes": counts.get("vos.kernel.processes", 0),
        "vos.pipes.bytes": counts.get("vos.pipes.push.amount", 0),
        "vos.pipes.push_calls": pushes,
        "vos.pipes.bytes_per_push":
            counts.get("vos.pipes.push.amount", 0) / pushes if pushes else 0.0,
        "input.distinct_ratio": facts["distinct_ratio"],
        "trace.overhead_s": traced["overhead_s"],
    }
    busy = dict.fromkeys(REPORTED_COMMANDS + ("other",), 0.0)
    for key, value in layers.items():
        if key.startswith("commands.") and key.endswith(".busy_s"):
            name = COMMAND_ALIASES.get(key[9:-7], key[9:-7])
            busy[name if name in busy else "other"] += value
    for name, value in busy.items():
        out[f"commands.{name}.busy_s"] = value
    for key, value in pool.items():
        out[f"parallel_host.{key}"] = value
    out["parallel_host.useful_ratio"] = (
        pool["regions_validated"] / pool["regions_dispatched"]
        if pool["regions_dispatched"] else 0.0)
    out["parallel_host.submit_s"] = layers.get("pool.submit_s", 0.0)
    out["parallel_host.wait_s"] = layers.get("pool.wait_s", 0.0)
    out["parallel_host.worker_host_s"] = counts.get(
        "parallel_host.worker_host_s", 0.0)
    out["parallel_host.worker_peak_rss_mb"] = traced.get(
        "worker_peak_rss_mb", 0.0)
    out["parallel_host.serial_mbps"] = baselines.get("serial_mbps", 0.0)
    out["parallel_host.one_part_mbps"] = baselines.get("one_part_mbps", 0.0)
    return out


def mbps(result: dict) -> float:
    """Input MB per host second spent inside jobs."""
    return result["in_bytes"] / 1e6 / sum(result["latencies"])


def spell_baselines(inputs: Path, seed: int, traced: dict,
                    deadline: float) -> tuple[dict, list, int]:
    """``--jobs 1`` and one-part ``--jobs 2`` runs of the spell-pool job.
    Their output bytes and virtual time must equal the sequential run's;
    a difference is reported as a failure."""
    _, serial = spawn("spell-pool", inputs, seed, "baseline", deadline,
                      count=BASELINE_JOBS, jobs=1)
    _, one_part = spawn("spell-pool", inputs, seed, "baseline", deadline,
                        count=BASELINE_JOBS, jobs=2,
                        env=child_env(JASH_POOL_PARTS="1"))
    errors = list(serial["errors"]) + list(one_part["errors"])
    for name, other in (("one-part --jobs 2", one_part),
                        ("--jobs 2", traced)):
        if other["output_sha256"] != serial["output_sha256"]:
            errors.append(f"{name}: output differs from --jobs 1")
        if other["virtuals"][0] != serial["virtuals"][0]:
            errors.append(f"{name}: virtual time differs from --jobs 1")
    rates = {"serial_mbps": mbps(serial), "one_part_mbps": mbps(one_part)}
    return rates, errors, serial["attempted"] + one_part["attempted"]


def run(workload: str, seed: int, seconds: float, trace: bool,
        deadline: float) -> dict:
    inputs = WORK / f"{workload}-{seed}-{os.getpid()}"
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        facts = generate(workload, seed, inputs, deadline)
        if trace:
            _, result = spawn(workload, inputs, seed, "trace", deadline,
                              count=TRACE_JOBS[workload])
            baselines, extra_errors, extra_attempts = {}, [], 0
            if workload == "spell-pool":
                baselines, extra_errors, extra_attempts = spell_baselines(
                    inputs, seed, result, deadline)
            shutil.move(inputs / "spans.jsonl",
                        WORK / f"last-{workload}-spans.jsonl")
            metrics = per_layer(result, facts, baselines)
            metrics.update(import_times(deadline))
            units = {k: layer_unit(k) for k in metrics}
            errors = result["errors"] + extra_errors
            attempted = result["attempted"] + extra_attempts
        else:
            # set-up samples before and after the run, so a slow spell
            # of the host during one of them moves the median less
            setups = [spawn(workload, inputs, seed, "setup", deadline)[0]
                      for _ in range(SETUPS // 2)]
            setup, result = spawn(workload, inputs, seed, "run", deadline,
                                  seconds=seconds)
            setups += [setup] + [
                spawn(workload, inputs, seed, "setup", deadline)[0]
                for _ in range(SETUPS - len(setups) - 1)]
            metrics = end_to_end(result, setups)
            units = END_TO_END
            errors, attempted = result["errors"], result["attempted"]
        return {"facts": facts, "metrics": metrics, "units": units,
                "errors": errors, "attempted": attempted}
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mbps"):
        return "MB/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_rate")):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="run every workload once, untimed, and check outputs")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    if not args.check and args.workload is None:
        ap.error("--workload is required unless --check is given")
    sys.dont_write_bytecode = True  # see child_env
    sys.path[:0] = [str(SRC), str(ROOT / "benchmarks")]
    from common import ensure_hashseed, host_metadata

    ensure_hashseed()  # re-execs under PYTHONHASHSEED=0
    deadline = perf_counter() + RUN_BUDGET_S
    try:
        if args.check:
            return check(args.seed, deadline)
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  deadline)
    except (BenchError, subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    meta = {"host": host_metadata(), "workload": args.workload,
            "seed": args.seed, "trace": args.trace,
            "jobs": 2 if args.workload == "spell-pool" else 1,
            "input": out["facts"], "errors": out["errors"][:20]}
    for name, value in out["metrics"].items():
        print(f"{name:40s} {value:16.6f} {out['units'][name]}")
    print(json.dumps(meta, sort_keys=True))
    (WORK / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(dict(meta, metrics=out["metrics"]), indent=2) + "\n")
    failed = len(out["errors"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": out["units"][name]}
                    for name, value in out["metrics"].items()},
    }))
    return 0


def check(seed: int, deadline: float) -> int:
    """Every workload once through generator, program and reference."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    bad = 0
    for workload in WORKLOADS:
        inputs = WORK / f"check-{workload}-{os.getpid()}"
        try:
            generate(workload, seed, inputs, deadline)
            _, result = spawn(workload, inputs, seed, "baseline", deadline)
        finally:
            shutil.rmtree(inputs, ignore_errors=True)
        errors = result["errors"]
        bad += bool(errors)
        print(f"{workload:12s} {result['attempted']:5d} jobs  "
              f"{len(errors)} failed  {'; '.join(errors[:3])}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
