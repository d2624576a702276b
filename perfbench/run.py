"""versal benchmark: run one seeded workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload recovery --seed 1 --seconds 30 --trace 0

Workloads are ``recovery``, ``experiments`` and ``cli`` (see workloads.py).
With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it alternates untraced and traced passes over a fixed
window of the workload's inputs and reports per-layer metrics.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is ``{"info": ...}`` with the
environment and the input properties.  The run exits 1 if an output is
wrong and 2 if the versal sources are missing.  See README.md.
"""

import os

# one BLAS thread, set before numpy loads; children inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import array  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# The measured run is cut into BLOCKS equal slices of --seconds.  Each slice
# first times one fresh interpreter running ``import versal`` (after one
# untimed warm-up import), then runs operations until the slice ends, so the
# set-up samples span the whole run and the run lasts --seconds in all.
# latency_p50_ms is the mean of the slices' median operation times: the
# shared machine switches between faster and slower spells lasting seconds
# to minutes, and the median of the whole run jumps to whichever spell
# covered most of it, where the mean over slices moves in proportion.
BLOCKS = 12
IMPORT_REPEATS = 3
IMPORTED_PACKAGES = ("versal", "scipy", "numpy")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "conclusive_share": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    import tracing
    import workloads

    units = {}
    for name, spec in tracing.TRACED.items():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.failed"] = "count"
        if spec:
            units[f"{name}.{spec[0]}"] = spec[1]
    units["jordan.recover_structure.success_ratio"] = "ratio"
    for command in workloads.Cli.commands:
        units[f"cli.{command}.wall_ms"] = "ms"
    for package in IMPORTED_PACKAGES:
        units[f"cli.import_{package}_ms"] = "ms"
    units["trace.ops_per_s_untraced"] = "1/s"
    units["trace.ops_per_s_traced"] = "1/s"
    units["trace.overhead_pct"] = "%"
    return units


class Tally:
    """Latency and outcome of every operation attempted in a run.

    Inputs are not kept: in-process workloads report the peak RSS of this
    process, so the tally holds 8 bytes per operation and nothing else.
    """

    def __init__(self):
        self.latencies_ns = array.array("q")
        self.failures = Counter()
        self.inconclusive = 0

    @property
    def attempted(self):
        return len(self.latencies_ns)

    @property
    def failed(self):
        return sum(self.failures.values())


def run_ops(workload, inputs, tally, deadline=None, tracer=None):
    """Closed loop, one caller: run operations until ``inputs`` or time runs out.

    Returns the time spent inside operations, in ns.  Only ``operate`` is
    timed; a failure the workload expects is counted, any other output is
    checked, and an inconclusive one is counted as well.  An iterator of
    inputs resumes where the last call stopped.
    """
    busy = 0
    inputs = iter(inputs)
    while deadline is None or time.perf_counter() < deadline:
        inp = next(inputs, None)
        if inp is None:
            break
        workload.count(inp)
        args = workload.prepare(inp)
        if tracer is not None:
            tracer.op = tally.attempted
        start = time.perf_counter_ns()
        try:
            out = workload.operate(args)
        except workload.failure as exc:
            failure = workload.failure_name(exc)
        else:
            failure = None
        elapsed = time.perf_counter_ns() - start
        busy += elapsed
        tally.latencies_ns.append(elapsed)
        if failure is None:
            workload.check(inp, out)
            tally.inconclusive += workload.inconclusive(out)
        else:
            tally.failures[failure] += 1
    return busy


def warm_up(workload_class, seed):
    """Fill lazy imports and BLAS set-up on inputs the run does not measure."""
    warm = workload_class(OUT)
    try:
        run_ops(warm, itertools.islice(warm.inputs(seed, stream=1),
                                       workload_class.warmup_ops), Tally())
    finally:
        warm.close()


def time_setup(env, repeats):
    """Wall times of ``repeats`` fresh interpreters running ``import versal``."""
    cmd = [sys.executable, "-c", "import versal"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def parse_importtime(text):
    """``(level, module, cumulative_us)`` for each ``-X importtime`` line."""
    entries = []
    for line in text.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$", line)
        if match:
            entries.append((len(match.group(2)) // 2, match.group(3), int(match.group(1))))
    return entries


def package_import_ms(entries, package):
    """Cumulative import time of the outermost modules of ``package``."""
    def owned(name):
        return name == package or name.startswith(package + ".")

    total = 0
    ancestors = []
    # a module's line follows its nested imports, so walk backwards
    for level, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        if owned(name) and not any(owned(a) for _, a in ancestors):
            total += cumulative
        ancestors.append((level, name))
    return total / 1000.0


def measure_import_times(env):
    samples = defaultdict(list)
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import versal"],
                              env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        entries = parse_importtime(proc.stderr)
        for package in IMPORTED_PACKAGES:
            samples[f"cli.import_{package}_ms"].append(package_import_ms(entries, package))
    return {name: statistics.median(values) for name, values in samples.items()}


def environment():
    import importlib.metadata

    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "versal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": {key: {k: deps.get(key, {}).get(k) for k in ("name", "version")}
                 for key in ("blas", "lapack")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def end_to_end(workload, seed, seconds, env):
    import numpy as np

    time_setup(env, 1)
    warm_up(type(workload), seed)
    tally = Tally()
    inputs = workload.inputs(seed)
    setup_samples, slice_p50_ms = [], []
    busy = 0
    start = time.perf_counter()
    for block in range(1, BLOCKS + 1):
        setup_samples += time_setup(env, 1)
        first = tally.attempted
        busy += run_ops(workload, inputs, tally, deadline=start + seconds * block / BLOCKS)
        if tally.attempted > first:
            slice_p50_ms.append(statistics.median(tally.latencies_ns[first:]) / 1e6)
    latencies_ms = np.frombuffer(tally.latencies_ns, dtype=np.int64) / 1e6
    tail = float(np.percentile(latencies_ms, workload.tail_percentile))
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": tally.attempted / (busy / 1e9),
        "latency_p50_ms": statistics.fmean(slice_p50_ms),
        "latency_tail_ms": tail,
        "conclusive_share": (tally.attempted - tally.inconclusive) / tally.attempted,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    info = {
        "setup_s_samples": setup_samples,
        "slice_latency_p50_ms": slice_p50_ms,
        "run_latency_p50_ms": float(np.median(latencies_ms)),
        "latency_tail_percentile": workload.tail_percentile,
        "samples": tally.attempted,
        "samples_beyond_tail": int(np.count_nonzero(latencies_ms > tail)),
        "latency_percentiles_ms": {str(q): float(np.percentile(latencies_ms, q))
                                   for q in (90, 98, 99, 99.5)},
        "wall_s": time.perf_counter() - start,
    }
    return values, tally, info


def traced(workload, seed, seconds, env):
    import tracing
    import workloads

    imports = measure_import_times(env)
    window = list(itertools.islice(workload.inputs(seed), workload.trace_window))
    warm_up(type(workload), seed)
    tally = Tally()
    tracer = tracing.Tracer()
    untraced_ns, traced_ns, passes = [], [], []
    command_ns = defaultdict(list)
    start = time.perf_counter()
    while True:
        first = tally.attempted
        untraced_ns.append(run_ops(workload, window, tally))
        for inp, ns in zip(window, tally.latencies_ns[first:]):
            command_ns[getattr(inp, "command", None)].append(ns)
        mark = len(tracer.spans)
        workload.attach(tracer)
        try:
            traced_ns.append(run_ops(workload, window, tally, tracer=tracer))
        finally:
            workload.detach(tracer)
        passes.append(tracing.layer_totals(tracer.spans[mark:]))
        if time.perf_counter() - start >= seconds:
            break

    exact = [{name: (t["calls"], t["failed"], t["extra"]) for name, t in p.items()}
             for p in passes]
    if any(counts != exact[0] for counts in exact[1:]):
        raise workloads.WrongOutput("exact counts differ between passes over one window")

    values = {}
    for name, spec in tracing.TRACED.items():
        values[f"{name}.calls"] = passes[0][name]["calls"]
        values[f"{name}.self_ms"] = statistics.median(p[name]["self_ns"] for p in passes) / 1e6
        values[f"{name}.failed"] = passes[0][name]["failed"]
        if spec:
            values[f"{name}.{spec[0]}"] = passes[0][name]["extra"]
    structure = passes[0]["jordan.recover_structure"]
    values["jordan.recover_structure.success_ratio"] = (
        (structure["calls"] - structure["failed"]) / structure["calls"]
        if structure["calls"] else 0.0)
    for command in workloads.Cli.commands:
        values[f"cli.{command}.wall_ms"] = (
            statistics.median(command_ns[command]) / 1e6 if command in command_ns else 0.0)
    values.update(imports)
    untraced_rate = len(window) / (statistics.median(untraced_ns) / 1e9)
    traced_rate = len(window) / (statistics.median(traced_ns) / 1e9)
    values["trace.ops_per_s_untraced"] = untraced_rate
    values["trace.ops_per_s_traced"] = traced_rate
    values["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate

    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.dump(spans_path)
    info = {
        "trace_window_ops": len(window),
        "passes": len(passes),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "self_ms_by_class": self_time_by_class(tracer.spans, window, workload, len(passes)),
    }
    return values, tally, info


def self_time_by_class(spans, window, workload, passes):
    """Largest self times per traced pass, split by the workload's op classes.

    Every pass runs the whole window, so operation ``i`` ran input
    ``window[i % len(window)]``.
    """
    import tracing

    by_class = defaultdict(list)
    for span in spans:
        by_class[workload.op_class(window[span[2] % len(window)])].append(span)
    out = {}
    for label, group in sorted(by_class.items()):
        totals = tracing.layer_totals(group)
        whole = sum(t["self_ns"] for t in totals.values())
        top = sorted(totals.items(), key=lambda item: -item[1]["self_ns"])[:4]
        out[label] = {name: {"self_ms": t["self_ns"] / 1e6 / passes,
                             "share": t["self_ns"] / whole}
                      for name, t in top if t["self_ns"]}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("recovery", "experiments", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "versal" / "__init__.py").is_file():
        print(f"error: no versal sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import versal
    if Path(versal.__file__).resolve().parent != (SRC / "versal").resolve():
        print(f"error: imported versal from {versal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    env = workloads.child_env()
    workload = workloads.WORKLOADS[args.workload](OUT)
    run = traced if args.trace else end_to_end
    units = per_layer_units() if args.trace else END_TO_END
    try:
        values, tally, info = run(workload, args.seed, args.seconds, env)
    except workloads.WrongOutput as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1
    finally:
        workload.close()

    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "failed_share": tally.failed / tally.attempted,
        "failures": dict(tally.failures),
        "inconclusive": tally.inconclusive,
        "inputs": workload.describe(),
        "environment": environment(),
    })
    (OUT / f"info-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
