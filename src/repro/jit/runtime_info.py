"""Runtime probing for the JIT (E3).

"By running just-in-time, the optimization subsystem has access to
crucial information regarding performance optimizations, e.g., file
sizes, mappings from filesystems to physical media, and system load."

All probes are stat-like metadata reads: they cost no simulated time,
exactly as a real stat/sysfs read is negligible next to the pipelines
being optimized.
"""

from __future__ import annotations

from typing import Optional

from ..compiler.cost import DiskProbe, Probe
from ..dfg.from_ast import Region
from ..vos.fs import normalize
from ..vos.process import Process

DEFAULT_AVG_LINE = 30.0
_SAMPLE_BYTES = 64 * 1024


def probe_machine(proc: Process, input_bytes: int,
                  avg_line_bytes: float = DEFAULT_AVG_LINE,
                  avg_token_bytes: float = 8.0) -> Probe:
    node = proc.node
    kernel = proc.kernel
    disk = node.disk
    disk._refill(kernel.now)
    runnable = sum(len(n.cpu_active) for n in kernel.nodes.values())
    return Probe(
        cores=node.cores,
        cpu_speed=node.cpu_speed,
        disk=DiskProbe(
            throughput_bps=disk.spec.throughput_bps,
            base_iops=disk.spec.base_iops,
            burst_iops=disk.spec.burst_iops,
            credits=disk.credits,
            request_bytes=disk.spec.request_bytes,
            min_request_bytes=disk.spec.min_request_bytes,
        ),
        input_bytes=input_bytes,
        avg_line_bytes=avg_line_bytes,
        avg_token_bytes=avg_token_bytes,
        runnable_load=max(0, runnable - 1),
    )


def region_input_files(region: Region, fs, cwd: str) -> Optional[list[str]]:
    """The region's input files, when its input is file-backed: the first
    stage's ``< file`` redirect or its file operands."""
    first = region.stages[0]
    paths: list[str] = []
    if first.stdin_file is not None:
        paths.append(first.stdin_file)
    elif first.spec.input_operands:
        args = first.argv[1:]
        for idx in first.spec.input_operands:
            if idx >= len(args) or args[idx] == "-":
                return None
            paths.append(args[idx])
    else:
        return None
    resolved = [normalize(p, cwd) for p in paths]
    if not all(fs.is_file(p) for p in resolved):
        return None
    return resolved


def measure_input(fs, paths: list[str]) -> tuple[int, float, float]:
    """(total bytes, avg line length, avg token length) sampled from the
    heads of the input files."""
    import re

    total = 0
    sample = b""
    for path in paths:
        total += fs.size(path)
        if len(sample) < _SAMPLE_BYTES:
            sample += fs.read_bytes(path)[: _SAMPLE_BYTES - len(sample)]
    if sample:
        lines = sample.count(b"\n")
        avg_line = len(sample) / max(1, lines)
        tokens = len(re.findall(rb"[A-Za-z0-9]+", sample))
        avg_token = len(sample) / max(1, tokens)
    else:
        avg_line = DEFAULT_AVG_LINE
        avg_token = 8.0
    return total, avg_line, avg_token
