"""Benchmark of the grossone calculator.

    python3 bench/run.py --workload session|series|nested --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The run builds the workload's seeded item list, runs it once to
warm up and to check every result, then repeats it in a closed loop (one
process, one thread, the next item only after the previous one returns) for
``--seconds`` seconds.  It prints a table of the metrics with their units and,
as its last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run alternates untraced passes with passes whose spans are recorded at
module boundaries, writes the spans of the first traced pass under
``bench/out/`` and reports per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import array
import bisect
import gc
import hashlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SPAWNS = 31
TRACE_SETUP_SPAWNS = 7
MIN_SAMPLES = 1000  # at least ten latency samples beyond p99
MAX_TIMED_SECONDS = 120.0
CALIBRATE_EVERY_S = 0.005
REFERENCE_CALIBRATION_S = 1e-4  # the calibration loop's time at the reference speed

# A cold `grossone eval 1`: a fresh interpreter imports the CLI and runs one
# command.  It reports its own import and command times on stderr.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import grossone.cli
t1 = time.perf_counter()
code = grossone.cli.main(["eval", "1"])
t2 = time.perf_counter()
print(t1 - t0, t2 - t1, file=sys.stderr)
sys.exit(code)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(code: str) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60
    )
    return time.perf_counter() - start, done


def calibration_loop() -> int:
    """Fixed work that uses no grossone code: small-integer, list, dict and
    big-integer operations, about 0.1 ms on the development machine."""
    x, counts, values = 7, {}, []
    for i in range(150):
        x = (x * 1103515245 + 12345) % 2147483648
        counts[x & 31] = counts.get(x & 31, 0) + 1
        values.append(x >> 7)
    values.sort()
    big = 3**300
    for i in range(20):
        big = big * 12345678901 // 1000003 + i
    return big


class Speed:
    """The machine's speed over the run, sampled every CALIBRATE_EVERY_S by
    timing ``calibration_loop`` between items (outside their timing).

    ``scale(start)`` is the reference time of the loop divided by the median
    of its four samples nearest to ``start`` (two before, two after).  A time
    multiplied by it is the time at the reference speed, so that a period in
    which the shared machine runs everything slower does not show as a slower
    program."""

    def __init__(self):
        self.ends = array.array("d")
        self.times = array.array("d")
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        self.ends.append(end)
        self.times.append(end - start)

    def due(self, now: float) -> bool:
        return now - self.ends[-1] > CALIBRATE_EVERY_S

    def scale(self, start: float) -> float:
        after = bisect.bisect_left(self.ends, start)
        return REFERENCE_CALIBRATION_S / statistics.median(self.times[max(0, after - 2):after + 2])


class ColdStarts:
    """Cold `grossone eval 1` runs: their wall times as measured and scaled
    to the reference speed (with two calibration samples just before and two
    just after each spawn), the children's own import and command times, and
    a failure cause for each run that did not print ``1``.  One unmeasured
    run first fills the bytecode cache."""

    def __init__(self, speed: Speed):
        spawn(SETUP_CHILD)
        self.speed = speed
        self.walls: list[float] = []
        self.scaled: list[float] = []
        self.inner: list[tuple[float, float]] = []
        self.causes: list[str] = []

    def run(self, count: int = 1) -> None:
        for _ in range(count):
            self.speed.sample()
            self.speed.sample()
            start = time.perf_counter()
            wall, done = spawn(SETUP_CHILD)
            self.speed.sample()
            self.speed.sample()
            self.walls.append(wall)
            self.scaled.append(wall * self.speed.scale(start))
            if done.returncode != 0 or done.stdout != "1\n":
                self.causes.append(f"cold start: `grossone eval 1` exited {done.returncode} printing {done.stdout!r}")
                continue
            import_s, command_s = map(float, done.stderr.split()[-2:])
            self.inner.append((import_s, command_s))


def describe(result) -> str:
    """Canonical text of an item's result, for the result digest."""
    from grossone.core import DivResult, GrossNumber
    from grossone.numio import print_canonical

    if isinstance(result, GrossNumber):
        return print_canonical(result)
    if isinstance(result, DivResult):
        return f"{print_canonical(result.quotient)} rem {print_canonical(result.remainder)}"
    if isinstance(result, list):
        return "[" + ", ".join(map(describe, result)) + "]"
    return repr(result)


class Crash:
    """Stands for the result of an item that raised."""

    def __init__(self, exc: Exception):
        self.cause = f"raised {type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Crash) and other.cause == self.cause

    def __repr__(self):
        return self.cause


def run_pass(items, call=None, speed: Speed | None = None) -> tuple[list, array.array, array.array]:
    """Run every item once, in order; returns results, per-item start times
    and per-item seconds.  ``call(i, fn)`` wraps each item (the tracer).
    ``speed`` is sampled between items when it is due."""
    clock = time.perf_counter
    results, starts, latencies = [], array.array("d"), array.array("d")
    for index, item in enumerate(items):
        start = clock()
        try:
            result = item.run() if call is None else call(index, item.run)
        except Exception as exc:  # a crash is a failed item, not a failed run
            result = Crash(exc)
        end = clock()
        starts.append(start)
        latencies.append(end - start)
        results.append(result)
        if speed is not None and speed.due(end):
            speed.sample()
    return results, starts, latencies


def check_items(items, results) -> list[str | None]:
    causes = []
    for item, result in zip(items, results):
        if isinstance(result, Crash):
            causes.append(result.cause)
            continue
        try:
            causes.append(item.check(result))
        except Exception as exc:
            causes.append(f"check raised {type(exc).__name__}: {exc}")
    return causes


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


class Run:
    """A workload's item list, run once to warm up and check every result."""

    def __init__(self, workload: str, seed: int):
        import workloads

        self.workload = workload
        self.seed = seed
        self.script_dir = OUT / f"{workload}-{seed}-{os.getpid()}"
        self.items = workloads.WORKLOADS[workload](random.Random(seed), self.script_dir)
        self.input_digest = digest(item.text for item in self.items)
        self.reference, _, _ = run_pass(self.items)
        self.causes = check_items(self.items, self.reference)
        self.result_digest = digest(map(describe, self.reference))
        # The collector stays on, but the benchmark's own inputs and reference
        # results are moved out of its reach, so that a collection costs what
        # the program's allocations cost, whatever the size of the item list.
        gc.collect()
        gc.freeze()
        self.attempted = 0
        self.failed = 0
        self.failures: dict[int, str] = {}

    def timed(self, seconds: float, call=None, on_pass=None, min_samples: int = 0, speed: Speed | None = None):
        """Repeat the item list for ``seconds`` (and until ``min_samples``
        latencies exist); returns each pass's item start times and
        latencies.  Each pass's results must equal the checked warm-up
        results.  ``on_pass(spent)`` runs after each pass, outside its
        timing, with the pass time spent so far."""
        passes = []
        spent = 0.0
        while not passes or spent < seconds or (
            len(passes) * len(self.items) < min_samples and spent < MAX_TIMED_SECONDS
        ):
            start = time.perf_counter()
            results, starts, latencies = run_pass(self.items, call, speed)
            spent += time.perf_counter() - start
            passes.append((starts, latencies))
            if on_pass is not None:
                on_pass(spent)
            for index, (result, expected) in enumerate(zip(results, self.reference)):
                self.attempted += 1
                cause = self.causes[index]
                if cause is None and result != expected:
                    cause = "result differs from the checked warm-up result"
                if cause is not None:
                    self.failed += 1
                    self.failures.setdefault(index, cause)
        return passes


def rate(latencies) -> float:
    """Items per second of one pass: its item count over its items' time."""
    return len(latencies) / math.fsum(latencies)


def shape_metrics(run: Run) -> dict:
    """Largest term count, grosspower nesting depth and coefficient bit
    length over the workload's inputs and results."""
    from grossone.core import DivResult, GrossNumber
    from grossone.errors import GrossoneError
    from grossone.numio import parse_number

    most = {"terms": 0, "bits": 0}

    def depth(x) -> int:
        most["terms"] = max(most["terms"], len(x.terms))
        deepest = 0
        for coefficient, exponent in x.terms:
            most["bits"] = max(most["bits"], coefficient.numerator.bit_length(), coefficient.denominator.bit_length())
            if exponent.terms:
                deepest = max(deepest, 1 + depth(exponent))
        return deepest

    def values(result):
        if isinstance(result, GrossNumber):
            yield result
        elif isinstance(result, DivResult):
            yield result.quotient
            yield result.remainder
        elif isinstance(result, list):
            yield from result
        elif isinstance(result, tuple):  # (exit code, stdout, stderr) of a command
            for line in result[1].splitlines():
                try:
                    yield parse_number(line)
                except GrossoneError:
                    pass

    deepest = max(depth(x) for item, result in zip(run.items, run.reference) for x in (*item.values, *values(result)))
    return {
        "core.result_terms_max": (most["terms"], "count"),
        "core.exponent_depth_max": (deepest, "levels"),
        "core.coeff_bits_max": (most["bits"], "bits"),
    }


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def windowed_p99(latencies, per_pass: int) -> tuple[float, int]:
    """The median, over windows of whole consecutive passes that each hold at
    least MIN_SAMPLES latencies (so at least ten lie beyond each window's
    p99), of each window's p99; and the number of windows.  A short last
    window joins the one before.  A burst of machine noise then moves one
    window's p99, not the run's."""
    size = per_pass * -(-MIN_SAMPLES // per_pass)
    count = max(1, len(latencies) // size)
    bounds = [i * size for i in range(count)] + [len(latencies)]
    return statistics.median(percentile(latencies[a:b], 0.99) for a, b in zip(bounds, bounds[1:])), count


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, Run, list[str], list[str]]:
    speed = Speed()
    cold = ColdStarts(speed)
    run = Run(workload, seed)

    # The cold starts are spread over the timed run, between passes, so that
    # their median sees the same machine as the passes do.
    def on_pass(spent):
        due = SETUP_SPAWNS * min(spent / seconds, 1.0)
        while len(cold.walls) < due:
            cold.run()

    passes = run.timed(seconds, on_pass=on_pass, min_samples=MIN_SAMPLES, speed=speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before sorting the samples
    speed.sample()  # so that the last items have samples after them
    scaled = [array.array("d", (t * speed.scale(s) for s, t in zip(*one))) for one in passes]
    latencies = array.array("d", itertools.chain.from_iterable(scaled))
    raw = array.array("d", itertools.chain.from_iterable(l for _, l in passes))
    p99, windows = windowed_p99(latencies, len(run.items))
    metrics = {
        "setup_s": (statistics.median(cold.scaled), "s"),
        "items_per_s": (statistics.median(map(rate, scaled)), "1/s"),
        "item_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
        "item_p99_ms": (p99 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"items per pass {len(run.items)}, passes {len(passes)}, latency samples {len(latencies)}, "
        f"p99 windows {windows}, cold starts {len(cold.walls)}",
        f"fail_ratio {run.failed / max(run.attempted, 1):.6f} ratio ({run.failed} of {run.attempted} items)",
        f"calibration: {len(speed.times)} samples, median {statistics.median(speed.times) * 1e3:.4f} ms "
        f"(reference {REFERENCE_CALIBRATION_S * 1e3:g} ms); times above are scaled to the reference speed",
        f"as measured, unscaled: setup_s {statistics.median(cold.walls):.6g} s, "
        f"items_per_s {statistics.median(rate(l) for _, l in passes):.6g} 1/s, "
        f"item_p50_ms {percentile(raw, 0.50) * 1e3:.6g} ms, "
        f"item_p99_ms {windowed_p99(raw, len(run.items))[0] * 1e3:.6g} ms",
    ]
    return metrics, run, notes, cold.causes


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, Run, list[str], list[str]]:
    import spans
    import workloads

    interpreter = [spawn("pass")[0] for _ in range(TRACE_SETUP_SPAWNS)]
    cold = ColdStarts(Speed())
    cold.run(TRACE_SETUP_SPAWNS)
    run = Run(workload, seed)

    # Untraced and traced passes alternate, so that both see the same
    # machine and their ratio shows the tracing overhead alone.
    tracer = spans.Tracer()
    passes, kept = [], []
    untraced_rates, traced_rates = [], []

    def on_pass(spent):
        pass_spans, counts = tracer.take_pass()
        if not kept:
            kept.extend(pass_spans)
        passes.append(spans.reduce_pass(pass_spans, counts))

    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        untraced_rates += [rate(latencies) for _, latencies in run.timed(0)]
        tracer.install(workloads)
        try:
            traced_rates += [rate(latencies) for _, latencies in run.timed(0, call=tracer.run_item, on_pass=on_pass)]
        finally:
            tracer.uninstall()
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    spans.write_spans(spans_path, kept)

    metrics = {
        "setup.interpreter_ms": (statistics.median(interpreter) * 1e3, "ms"),
        "setup.import_ms": (statistics.median(i for i, _ in cold.inner) * 1e3 if cold.inner else 0.0, "ms"),
        "setup.first_command_ms": (statistics.median(c for _, c in cold.inner) * 1e3 if cold.inner else 0.0, "ms"),
    }
    for name in passes[0]:
        unit = "ms" if name.endswith("_ms") else "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (statistics.median(p[name] for p in passes), unit)
    metrics.update(shape_metrics(run))
    metrics["trace.overhead_ratio"] = (statistics.median(traced_rates) / statistics.median(untraced_rates), "ratio")
    notes = [
        f"untraced passes {len(untraced_rates)}, traced passes {len(traced_rates)}; per-layer values are "
        f"per pass over {len(run.items)} items (median over traced passes)",
        f"spans of the first traced pass: {os.path.relpath(spans_path, ROOT)}",
    ]
    return metrics, run, notes, cold.causes


def main(argv=None) -> int:
    if not (SRC / "grossone" / "__init__.py").is_file():
        print(f"error: no grossone sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import grossone

    if Path(grossone.__file__).resolve().parent != SRC / "grossone":
        print(f"error: imported grossone from {grossone.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    measure = per_layer if args.trace else end_to_end
    metrics, run, notes, setup_causes = measure(args.workload, args.seed, args.seconds)
    shutil.rmtree(run.script_dir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {workloads.WHY[args.workload]}")
    print(f"input digest {run.input_digest}, result digest {run.result_digest}")
    for note in notes + setup_causes:
        print(note)
    for index, cause in sorted(run.failures.items()):
        print(f"FAILED item {index} [{run.items[index].kind}] {cause}\n    input: {run.items[index].text[:300]}")
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0 and not setup_causes,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
