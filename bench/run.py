"""Benchmark of the neqatom CLI on three workloads (see NOTES.md).

    python3 bench/run.py --workload resonant-track --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository: the package is imported from its
``src/`` directory, and scratch files go to ``.bench_work/``. The CLI runs
in this process, one command after another (a closed loop with one
client). A *pass* is the fixed list of commands of a workload; the run
first makes one unmeasured pass on the default-seed inputs, checked
against the reference output, then repeats passes on the seeded inputs
until ``--seconds`` are used up. Every row is checked.

With ``--trace 0`` the last line reports the end-to-end metrics, medians
over the passes. With ``--trace 1`` untraced and traced passes alternate;
the last line reports the per-layer metrics, medians over the traced
passes, and the spans are written to ``.bench_work/``. The line before
the last one is the run context.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import check_command
from tracing import Tracer, pass_metrics, point_durations
from workloads import DEFAULT_SEED, WORKLOADS, build

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"

MIN_PASSES = 3
SETUP_SAMPLES = 11
ENV_OVERRIDES = ("NEQATOM_REL_TOL", "NEQATOM_ABS_TOL", "NEQATOM_MAX_SUBDIVISIONS")

# On a shared 2-vCPU virtual machine the CPU's speed switches between a
# fast and a slow state within seconds and drifts over minutes (the same
# fixed loop takes 0.03 s or 0.06 s), far beyond the bounds a run must
# hold. A calibration loop runs before and after every CLI command and
# setup sample, and each time is reported in reference seconds: measured
# seconds / the mean slowness of the two calibrations around it. Slowness
# is a calibration's seconds over the typical seconds below, measured on
# that machine (Intel Xeon, Python 3.11, numpy 2.4).
CALIBRATION_REF_S = {"mixed": 0.05, "large": 0.12}
_CAL_NODES = np.linspace(0.1, 3.0, 4096) + 0.5j
_CAL_LARGE = np.linspace(0.1, 3.0, 400_000) + 0.5j

# import of the package plus load_config, timed inside a fresh interpreter
SETUP_SNIPPET = """\
import sys
from time import perf_counter
t0 = perf_counter()
from neqatom.cli import load_config
load_config(sys.argv[1])
print(repr(perf_counter() - t0))
"""


@dataclass
class PassResult:
    seconds: float
    ref_seconds: float
    attempted: int
    failed: int
    bad: int
    problems: list
    out_bytes: int
    cache_hits: int
    cache_misses: int
    spans: list = field(default_factory=list)
    engine_calls: list = field(default_factory=list)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed


def _calibration_mixed():
    acc = 0.0
    for i in range(1, 60000):
        acc += math.exp(-1.0 / i) * (i % 7)
    for _ in range(60):
        y = np.sqrt(_CAL_NODES * _CAL_NODES + 1.5)
        y = np.exp(2j * y) / (1.0 - y * y)
    small = _CAL_NODES[:30]
    for _ in range(1500):
        y = np.sqrt(small * small + 1.5)
        (np.exp(2j * y) / (1.0 - y * y)).sum()


def _calibration_large():
    for _ in range(3):
        y = np.sqrt(_CAL_LARGE * _CAL_LARGE + 1.5)
        y = np.exp(2j * y) / (1.0 - y * y)


def calibrate(threads: int = 1) -> float:
    """Slowness of the machine for work like that of a CLI command on
    ``threads`` threads: seconds for fixed work over its typical seconds.

    A single-threaded command mixes interpreted float arithmetic with
    complex numpy ufuncs on mid-sized and small arrays. The multi-threaded
    commands spend their time in ufuncs over arrays of 10^5-10^6 nodes, which
    run in parallel outside the interpreter lock, and slow down far less
    when the host is busy; their calibration is that work on every thread.
    Nothing here uses neqatom, so no change to the package moves it.
    """
    start = perf_counter()
    if threads == 1:
        _calibration_mixed()
        return (perf_counter() - start) / CALIBRATION_REF_S["mixed"]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for f in [pool.submit(_calibration_large) for _ in range(threads)]:
            f.result()
    return (perf_counter() - start) / CALIBRATION_REF_S["large"]


def to_reference(seconds: float, before: float, after: float) -> float:
    """Reference seconds of work timed between two calibrations."""
    return seconds / (0.5 * (before + after))


def import_package():
    """Import neqatom from this checkout's src/, or exit with an error."""
    if not (SRC / "neqatom" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'neqatom'}")
    sys.path.insert(0, str(SRC))
    for name in ENV_OVERRIDES:
        os.environ.pop(name, None)
    import neqatom.cli
    import neqatom.response
    if Path(neqatom.__file__).resolve().parent != (SRC / "neqatom").resolve():
        sys.exit(f"bench: imported neqatom from {neqatom.__file__}, not {SRC}")
    return neqatom.cli, neqatom.response


def run_context(args) -> dict:
    import scipy
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "run_seconds": args.seconds, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cli_threads": sorted({c.threads for c in build(args.workload, args.seed)}),
    }


def measure_setup(config_path: Path) -> tuple:
    """Seconds to import neqatom and load one config, in fresh processes.

    Returns (reference seconds, measured seconds) of each sample. The
    first sample is dropped: it may compile the package's bytecode.
    """
    env = {k: v for k, v in os.environ.items() if k not in ENV_OVERRIDES}
    env["PYTHONPATH"] = str(SRC)
    ref, wall = [], []
    with single_cpu():
        before = calibrate()
        for _ in range(SETUP_SAMPLES + 1):
            proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(config_path)],
                                  cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=120, check=True)
            after = calibrate()
            wall.append(float(proc.stdout.strip().splitlines()[-1]))
            ref.append(to_reference(wall[-1], before, after))
            before = after
    return ref[1:], wall[1:]


@contextmanager
def single_cpu(enabled: bool = True):
    """Keep this process and its children on one CPU inside the block, so
    that single-threaded work and the calibrations around it share a CPU."""
    allowed = os.sched_getaffinity(0)
    if enabled:
        os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def load_reference(workload: str):
    path = REFERENCE / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else None


def call_cli(cli, argv, tracer, request) -> int:
    """Exit code of one in-process CLI command; -1 if it raised."""
    try:
        if tracer is None:
            return cli.run_command(argv)
        with tracer.request_span(request):
            return cli.run_command(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return -1


class Runner:
    """Runs passes of one workload; keeps the request count and the last
    calibration, which also serves as the first of the next command."""

    def __init__(self, cli, response, workdir: Path):
        self.cli = cli
        self.b_cache = getattr(response, "_b_vector", None)
        self.workdir = workdir
        self.requests = 0
        self.calibration = {}

    def run_pass(self, commands, reference=None, tracer=None) -> PassResult:
        files = []
        for cmd in commands:
            config = self.workdir / f"{cmd.label}.cfg"
            config.write_text(cmd.config)
            out = self.workdir / f"{cmd.label}.{cmd.fmt}"
            out.unlink(missing_ok=True)
            files.append((config, out))
        hits = misses = 0
        codes, seconds, ref_seconds = [], 0.0, 0.0
        for cmd, (config, out) in zip(commands, files):
            if cmd.threads not in self.calibration:
                self.calibration = {cmd.threads: calibrate(cmd.threads)}
            # each command starts with the cold cache of a fresh CLI process
            if self.b_cache is not None:
                self.b_cache.cache_clear()
            start = perf_counter()
            codes.append(call_cli(self.cli, cmd.argv(str(config), str(out)),
                                  tracer, self.requests))
            wall = perf_counter() - start
            self.requests += 1
            if self.b_cache is not None:
                info = self.b_cache.cache_info()
                hits, misses = hits + info.hits, misses + info.misses
            after = calibrate(cmd.threads)
            seconds += wall
            ref_seconds += to_reference(wall, self.calibration[cmd.threads], after)
            self.calibration = {cmd.threads: after}

        result = PassResult(seconds, ref_seconds, 0, 0, 0, [], 0, hits, misses)
        if tracer is not None:
            result.spans, result.engine_calls = tracer.take()
        refs = {c["label"]: c for c in reference["commands"]} if reference else {}
        for cmd, code, (_, out) in zip(commands, codes, files):
            ref = refs.get(cmd.label) if reference else None
            outcome = check_command(cmd, code, out, ref)
            if reference and (ref is None or ref["config"] != cmd.config):
                outcome.status = ["bad"] * len(outcome.status)
                outcome.problems.append("reference was made from another config")
            result.attempted += len(outcome.status)
            result.failed += outcome.failed
            result.bad += outcome.bad
            result.out_bytes += outcome.out_bytes
            result.problems.extend(f"{cmd.label}: {p}" for p in outcome.problems)
        return result


def percentile(samples: list, q: int) -> float:
    """q-th percentile (q in 10..90 by 10) of at least two samples."""
    return statistics.quantiles(samples, n=10, method="inclusive")[q // 10 - 1]


def end_to_end_metrics(passes, setup_samples) -> dict:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "run_s": statistics.median(p.ref_seconds for p in passes),
        "points_per_s": statistics.median(p.ok / p.ref_seconds for p in passes),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer_metrics(plain, traced, time_keys) -> dict:
    per_pass = []
    for p in traced:
        m = pass_metrics(p.spans, p.engine_calls)
        m.update((k, v * p.ref_seconds / p.seconds) for k, v in m.items() if k in time_keys)
        m["cli.out_bytes"] = p.out_bytes
        lookups = p.cache_hits + p.cache_misses
        m["response.b_cache_hit_ratio"] = p.cache_hits / lookups if lookups else 0.0
        per_pass.append(m)
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    points = [d * p.ref_seconds / p.seconds for p in traced for d in point_durations(p.spans)]
    metrics["analysis.point_ms_p50"] = 1e3 * percentile(points, 50)
    metrics["analysis.point_ms_p90"] = 1e3 * percentile(points, 90)
    everything = plain + traced
    metrics["cli.failed_frac"] = (sum(p.failed for p in everything)
                                  / sum(p.attempted for p in everything))
    metrics["trace.overhead_frac"] = (statistics.median(p.ref_seconds for p in traced)
                                      / statistics.median(p.ref_seconds for p in plain) - 1.0)
    return metrics, len(points)


def write_trace(path: Path, context: dict, passes) -> None:
    """Spans of every traced pass, one JSON array per line, after the context."""
    threads = {}
    origin = min(s[5] for p in passes for s in p.spans)
    with path.open("w") as f:
        f.write(json.dumps({"context": context,
                            "fields": ["id", "parent", "request", "thread", "name",
                                       "start_ns", "end_ns", "nodes"]}) + "\n")
        for p in passes:
            for sid, parent, req, thread, name, start, end, nodes in p.spans:
                tid = threads.setdefault(thread, len(threads))
                f.write(json.dumps([sid, parent, req, tid, name,
                                    round((start - origin) * 1e9),
                                    round((end - origin) * 1e9), nodes]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # metric names and units come from the benchmark's definition
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli, response = import_package()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, spec, cli, response, workdir)
    finally:
        shutil.rmtree(workdir)


def measure(args, spec, cli, response, workdir) -> int:
    context = run_context(args)
    commands = build(args.workload, args.seed)
    reference = load_reference(args.workload)
    if reference is None:
        sys.exit(f"bench: no reference output for {args.workload}")
    runner = Runner(cli, response, workdir)

    setup_samples, setup_wall = [], []
    if not args.trace:
        config = workdir / "setup.cfg"
        config.write_text(commands[0].config)
        setup_samples, setup_wall = measure_setup(config)

    # unmeasured pass: lazy imports settle, and the rows of the default-seed
    # inputs are compared with the reference output of the seed commit
    warmup = runner.run_pass(build(args.workload, DEFAULT_SEED), reference)
    seeded_reference = reference if args.seed == DEFAULT_SEED else None

    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    deadline = perf_counter() + args.seconds
    last = 0.0
    with single_cpu(all(c.threads == 1 for c in commands)):
        while len(plain) + len(traced) < MIN_PASSES or perf_counter() + last <= deadline:
            began = perf_counter()
            if tracer is not None and len(traced) < len(plain):
                with tracer.installed():
                    traced.append(runner.run_pass(commands, seeded_reference, tracer))
            else:
                plain.append(runner.run_pass(commands, seeded_reference))
            last = perf_counter() - began

    everything = [warmup] + plain + traced
    problems = [q for p in everything for q in p.problems]
    for q in problems[:20]:
        print(f"bench: {q}", file=sys.stderr)
    measured = plain + traced
    context.update(passes=len(measured), rows_per_pass=measured[0].attempted,
                   setup_samples=len(setup_samples), traced_passes=len(traced),
                   calibration_ref_s=CALIBRATION_REF_S,
                   pass_wall_s=[p.seconds for p in measured],
                   pass_ref_s=[p.ref_seconds for p in measured],
                   setup_wall_s=setup_wall, setup_ref_s=setup_samples)
    if args.trace:
        time_keys = {m["name"] for m in spec["per_layer"] if m["unit"] in ("s", "ms", "ns")}
        metrics, n_points = per_layer_metrics(plain, traced, time_keys)
        calls = [c for p in traced for c in p.engine_calls]
        context.update(point_samples=n_points, engine_calls=len(calls),
                       counts_agree=all(c["reported_evals"] == c["evals"]
                                        for c in calls if not c["failed"]))
        write_trace(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl", context, traced)
    else:
        metrics = end_to_end_metrics(measured, setup_samples)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.attempted for p in measured),
        "failed": sum(p.failed for p in measured),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
