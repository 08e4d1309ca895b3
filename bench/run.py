#!/usr/bin/env python3
"""graddiv's benchmark: one workload per run, accuracy checked beside time.

    python3 bench/run.py --workload discrete_bulk --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --workload known_defects --seed 1 --seconds 5 --trace 0

Run it from the root of a source tree; it imports graddiv from ``src`` and
starts CLI subprocesses with ``src`` on PYTHONPATH, so nothing needs to be
installed. Each workload is a closed loop with one caller: the next
operation starts when the previous one returns, and the loop repeats whole
rotations of the workload's cases until the summed operation time reaches
``--seconds``. Every operation is checked, untimed, against a reference that
does not use the code path under test; a failure is counted and named, and
the run goes on. The cases that fail on today's code (workloads.KNOWN_DEFECTS)
are left out of the timed workloads and run, with the same checks, by the
known_defects workload, which reports "correct": false while any still fails.

Operation and set-up times are reported in calibrated seconds (see
CALIBRATION_S). op_s.tail is a
fixed percentile per workload (TAIL_PERCENTILE), and ok_frac is the share
of operations that passed their check.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the loop
untraced for half the time and traced for the other half, and reports the
per-layer metrics plus the tracing overhead (traced minus untraced) of each
end-to-end metric measured in the loop. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Percentile reported as op_s.tail: the highest that leaves at least ten
# operations beyond it at the operation counts a 20 s run gives today.
TAIL_PERCENTILE = {
    "cli_small": 66,
    "discrete_bulk": 85,
    "capacity_search": 90,
    "continuous_catalog": 95,
}
KNOWN = "known_defects"
SETUP_REPEATS = 5
IN_PROCESS_CLI_PASSES = 3
# Operation times are reported in calibrated seconds: wall time multiplied
# by a nominal time over the current time of a fixed calibration task,
# sampled between operations. On a shared 2-CPU virtual machine the CPU
# speed drifts by +-15 % over tens of seconds; the calibration task slows
# with it, so the ratio cancels most of the drift. In-process workloads
# calibrate on workloads.calibration_time (JSON parsing, sorting, dict
# building and a numpy reduction). cli_small, and the import part of
# setup_s, calibrate on a bare interpreter start, because in-process work
# did not track subprocess times (measured: the ratio was noisier than wall
# time). Per-layer import and cli times are wall seconds. The nominal times
# are typical on the machine the bounds were set on (2-CPU Intel Xeon,
# Python 3.11, numpy 2.4).
CALIBRATION_S = 0.010
BARE_START_S = 0.060
# |value - reference| below this many nats reads as this value: rounding
# noise at 1e-13 would otherwise make max_abs_err vary from seed to seed.
ERROR_RESOLUTION = 1e-9

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "fraction"),
    ("max_abs_err", "nats"),
]
OVERHEAD = [(f"trace_overhead.{name}", unit) for name, unit in END_TO_END if name != "setup_s"]
IMPORT_LAYER = [("import.python_s", "s"), ("import.graddiv_s", "s"), ("import.scipy_s", "s")]
CLI_LAYER = [("cli.run_s", "s/op"), ("cli.process_overhead_s", "s/op")]
# per-layer metric -> span whose self time it reports, per operation
SPAN_TIMES = {
    "jsonio.load_json_s": "jsonio.load_json",
    "jsonio.from_doc_s": "jsonio.from_doc",
    "jsonio.to_doc_s": "jsonio.to_doc",
    "jsonio.canonical_dumps_s": "jsonio.canonical_dumps",
    "ordered.GradingSample_s": "ordered.GradingSample",
    "discrete.ProbabilityVector_s": "discrete.ProbabilityVector",
    "capacity.Capacity_s": "capacity.Capacity",
    "discrete.kernel_s": "discrete.kernel",
    "capacity.exhaustive_s": "capacity.exhaustive",
    "capacity.greedy_s": "capacity.greedy",
    "continuous.corrected_entropy_s": "continuous.corrected_entropy",
    "continuous.divergence_s": "continuous.divergence",
    "continuous.riemann_s": "continuous.riemann",
    "quadrature.integrate_s": "quadrature.integrate",
}
COUNTS = {
    "jsonio.bytes_in": "B/op",
    "jsonio.bytes_out": "B/op",
    "discrete.terms": "count/op",
    "capacity.chains_examined": "count/op",
    "quadrature.panels": "count/op",
    "quadrature.failures": "count/op",
    "families.density_calls": "count/op",
    "families.inverse_calls": "count/op",
}
CHECK_MAXIMA = [("capacity.greedy_gap_max", "nats"), ("quadrature.err_over_est_max", "ratio")]
PER_LAYER = (
    IMPORT_LAYER
    + CLI_LAYER
    + [(name, "s/op") for name in SPAN_TIMES]
    + list(COUNTS.items())
    + CHECK_MAXIMA
    + OVERHEAD
)


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


# ---------------------------------------------------------------- measuring


CALIBRATION_EVERY_S = 0.2


def calibration_sample() -> float:
    """The in-process calibration task run twice, timing the second, so
    that caches the previous operation left cold do not count."""
    from workloads import calibration_time

    calibration_time()
    return calibration_time()


def bare_start_s(env: dict) -> float:
    """Wall time of `python -c pass`: the cli_small calibration task."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True,
                   check=True, timeout=120)
    return time.perf_counter() - start


def measure(cases, seconds: float, calibration, tracer=None):
    """Whole rotations, at least one, until the summed operation time
    reaches seconds.

    calibration is (sample function, nominal seconds); a sample is taken
    before an operation whenever CALIBRATION_EVERY_S has passed since the
    last one. Returns records (case name, wall latency, Verdict, scale); the
    scale is the nominal time over the median of the five samples nearest
    the operation.
    """
    sample, nominal = calibration
    from workloads import Verdict

    records = []
    samples: list[float] = []
    sample_of_op: list[int] = []
    last_sample = -math.inf
    busy = 0.0
    while True:
        for case in cases:
            if time.perf_counter() - last_sample >= CALIBRATION_EVERY_S:
                samples.append(sample())
                last_sample = time.perf_counter()
            sample_of_op.append(len(samples) - 1)
            failure = None
            out = None
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = case.run()
                else:
                    tracer.op = len(records)
                    with tracer.span("op"):
                        out = case.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                failure = f"{case.name}: raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            busy += latency
            if failure is None:
                try:
                    verdict = case.check(out)
                except Exception as exc:  # malformed output fails its operation
                    verdict = Verdict(f"{case.name}: check raised {type(exc).__name__}: {exc}")
            else:
                verdict = Verdict(failure)
            records.append((case.name, latency, verdict))
        if busy >= seconds:
            break
    scaled = []
    for (name, latency, verdict), k in zip(records, sample_of_op):
        nearest = samples[max(0, k - 2):k + 3]
        scaled.append((name, latency, verdict, nominal / statistics.median(nearest)))
    return scaled


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def loop_metrics(records, tail: int, rss_mb: float) -> dict:
    latencies = [latency * scale for _, latency, _, scale in records]
    verdicts = [v for _, _, v, _ in records]
    errors = [v.abs_err for v in verdicts if v.abs_err is not None]
    return {
        "ops_per_s": len(records) / math.fsum(latencies),
        "op_s.p50": statistics.median(latencies),
        "op_s.tail": statistics.quantiles(latencies, n=100, method="inclusive")[tail - 1],
        "peak_rss_mb": rss_mb,
        "ok_frac": sum(v.failure is None for v in verdicts) / len(records),
        "max_abs_err": max([ERROR_RESOLUTION, *errors]),
    }


def import_probe(env: dict) -> dict:
    """Bare interpreter start, import graddiv in a fresh process, and the
    scipy share of that import from -X importtime."""

    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import graddiv"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return {
        "import.python_s": statistics.median(bare_start_s(env) for _ in range(3)),
        "import.graddiv_s": statistics.median(import_s(env) for _ in range(3)),
        "import.scipy_s": scipy_import_us(proc.stderr) / 1e6,
    }


def import_s(env: dict) -> float:
    """The time `import graddiv` takes in a fresh process."""
    snippet = "import time; t = time.perf_counter(); import graddiv; print(time.perf_counter() - t)"
    return float(subprocess.run([sys.executable, "-c", snippet], env=env, capture_output=True,
                                text=True, check=True, timeout=120).stdout)


def calibrated_median(task, calibration) -> float:
    """Median over SETUP_REPEATS of task's wall time, each calibrated by a
    calibration sample taken just before it."""
    sample, nominal = calibration
    ratios = []
    for _ in range(SETUP_REPEATS):
        reference = sample()
        ratios.append(task() / reference)
    return nominal * statistics.median(ratios)


def scipy_import_us(importtime: str) -> int:
    """Cumulative microseconds of every scipy module imported by a non-scipy
    parent. -X importtime lists children before their parent, two spaces of
    indent per level."""
    total = 0
    pending: dict[int, list[tuple[bool, int]]] = {}
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        is_scipy = name.strip().split(".")[0] == "scipy"
        for child_scipy, child_us in pending.pop(depth + 1, []):
            if child_scipy and not is_scipy:
                total += child_us
        pending.setdefault(depth, []).append((is_scipy, int(cumulative)))
    for entries in pending.values():
        total += sum(us for child_scipy, us in entries if child_scipy)
    return total


def layer_metrics(tracer, ops: int, scale: float) -> dict:
    self_times = tracer.self_times()
    out = {name: scale * self_times.get(span, 0.0) / ops for name, span in SPAN_TIMES.items()}
    out.update({name: tracer.counts.get(name, 0) / ops for name in COUNTS})
    return out


def check_maxima(records) -> dict:
    gaps = [v.gap for _, _, v, _ in records if v.gap is not None]
    ratios = [v.abs_err / v.estimate for _, _, v, _ in records
              if v.abs_err is not None and v.estimate]
    return {
        "capacity.greedy_gap_max": max(gaps, default=0.0),
        "quadrature.err_over_est_max": max(ratios, default=0.0),
    }


# ---------------------------------------------------------------- reporting


def report(workload: str, seed: int, args, records, metrics: dict, units: dict) -> None:
    from workloads import KNOWN_DEFECTS

    tail = TAIL_PERCENTILE.get(workload, 50)
    beyond = len(records) - int(len(records) * tail / 100)
    failures: dict[str, int] = {}
    for _, _, verdict, _ in records:
        if verdict.failure:
            failures[verdict.failure] = failures.get(verdict.failure, 0) + 1
    print(f"graddiv benchmark: workload={workload} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(machine(), sort_keys=True))
    scales = [scale for _, _, _, scale in records]
    print(f"calibration: operation times are wall seconds x scale; scale median "
          f"{statistics.median(scales):.4f}, range {min(scales):.4f}..{max(scales):.4f}")
    print(f"operations: {len(records)} attempted, {sum(failures.values())} failed; "
          f"op_s.tail is p{tail} with {beyond} operations beyond it")
    if failures:
        print(f"failing cases ({len(failures)} distinct):")
        for reason, count in sorted(failures.items()):
            print(f"  {count}x {reason}")
    if workload == KNOWN:
        for name in sorted({name for name, _, verdict, _ in records if verdict.failure is None}):
            print(f"  now passes, delete it from KNOWN_DEFECTS: {name}")
    elif workload in KNOWN_DEFECTS:
        print(f"known defects: {len(KNOWN_DEFECTS[workload])} failing cases left out; "
              f"--workload {KNOWN} runs them")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def run_all(args) -> int:
    """Run every workload, one child process at a time."""
    status = 0
    for name in [*TAIL_PERCENTILE, KNOWN]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=False,
        )
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*TAIL_PERCENTILE, KNOWN, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "graddiv" / "__init__.py").is_file():
        print(f"bench: no graddiv source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one process, one compute thread

    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import graddiv
    if Path(graddiv.__file__).resolve().parent != ROOT / "src" / "graddiv":
        print(f"bench: imported graddiv from {graddiv.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    name = args.workload
    tail = TAIL_PERCENTILE.get(name, 50)
    is_cli = name == "cli_small"
    env = workloads.cli_command(ROOT)[1]
    if is_cli:
        calibration = (lambda: bare_start_s(env), BARE_START_S)
    else:
        calibration = (calibration_sample, CALIBRATION_S)
    work_root = ROOT / ".bench_work"
    work = work_root / f"{name}-{args.seed}-{os.getpid()}"
    try:
        # set-up: the seeded inputs with their references, and the first
        # import of graddiv that every caller pays
        generated = []

        def generate() -> float:
            generated.clear()  # one set of inputs alive at a time
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            started = time.perf_counter()
            generated.append(workloads.WORKLOADS[name](args.seed, work, ROOT))
            return time.perf_counter() - started

        setup_s = (calibrated_median(generate, (calibration_sample, CALIBRATION_S))
                   + calibrated_median(lambda: import_s(env), (lambda: bare_start_s(env), BARE_START_S)))
        cases = generated[-1]

        units = dict(END_TO_END + PER_LAYER)
        if not args.trace:
            records = measure(cases, args.seconds, calibration)
            metrics = {"setup_s": setup_s, **loop_metrics(records, tail, peak_rss_mb(is_cli))}
            report(name, args.seed, args, records, metrics, units)
            return 0

        untraced = measure(cases, args.seconds / 2, calibration)
        plain = loop_metrics(untraced, tail, peak_rss_mb(is_cli))
        tracer = tracing.Tracer()
        if is_cli:
            records = measure(cases, args.seconds / 2, calibration, tracer)
            traced = loop_metrics(records, tail, peak_rss_mb(True))
            calls = [case.argv for case in cases] * IN_PROCESS_CLI_PASSES
            started = time.perf_counter()
            for argv in calls:
                graddiv.cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO())
            run_s = (time.perf_counter() - started) / len(calls)
            with tracing.instrument(tracer):
                for i, argv in enumerate(calls):
                    tracer.op = len(records) + i
                    graddiv.cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO())
            layers = layer_metrics(tracer, len(calls), 1.0)
            mean_process = statistics.fmean(latency for _, latency, _, _ in untraced)  # wall
            cli_layer = {"cli.run_s": run_s, "cli.process_overhead_s": mean_process - run_s}
        else:
            with tracing.instrument(tracer):
                records = measure(cases, args.seconds / 2, calibration, tracer)
            traced = loop_metrics(records, tail, peak_rss_mb(False))
            layers = layer_metrics(tracer, len(records), statistics.median(s for _, _, _, s in records))
            cli_layer = {"cli.run_s": 0.0, "cli.process_overhead_s": 0.0}
        tracer.write(work_root / f"spans-{name}-{args.seed}.jsonl")
        metrics = {
            **import_probe(env),
            **cli_layer,
            **layers,
            **check_maxima(records),
            **{f"trace_overhead.{key}": traced[key] - plain[key] for key in plain},
        }
        report(name, args.seed, args, untraced + records, metrics, units)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
