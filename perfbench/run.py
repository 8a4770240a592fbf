"""pargal benchmark: one workload, one process, one thread, one closed-loop client.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  With ``--trace 0`` the run repeats whole passes over the
workload's ops until ``--seconds`` have elapsed (at least twice) and reports the end-to-end
metrics.  With ``--trace 1`` it makes a warm-up, an untraced and a traced pass and
reports the per-layer metrics; the span table goes to ``perfbench/_out``.
Every op's result is checked against the stored iso-invariant fingerprint.
The last line of standard output is the result as one JSON object.

Timed values are reported in reference seconds.  The machines this runs on
share their cores with other tenants, whose load slows the interpreter by
up to a third for stretches of seconds to minutes.  A SIGALRM tick every
20 ms runs a fixed pure-Python spin loop (about 0.5 ms when the machine is
quiet) inside the process; each op's wall time, less the ticks, is scaled
by the spin loop's nominal time over its median time during the op (or
over the last ten ticks, for a short op).  A change
to the library moves the op's time but not the spin loop's, so it shows;
a change in the neighbours' load moves both, so it cancels.  The raw wall
times are printed alongside.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(HERE, "_out")
WORK_DIR = os.path.join(HERE, "_work")

# name -> unit, in report order; the seven end-to-end metrics
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 3
MIN_PASSES = 2  # a median over passes even when one pass outlasts --seconds
TICK_S = 0.02
SPIN_N = 4000
SPIN_NOMINAL_S = 0.0005  # the spin loop's time on a quiet 2.1 GHz host
SPIN_WINDOW = 10


def spin(n: int) -> int:
    acc = 0
    xs = [0] * 16
    for i in range(n):
        xs[i & 15] = (xs[(i * 7) & 15] + i) % 1000003
        acc += xs[i & 15]
    return acc


class Clock:
    """Times calls in raw seconds and in reference seconds (see the module doc).

    With ``tick=False`` nothing interrupts the process and both readings are
    the raw wall time; the traced run uses that, so no tick lands in a span.
    """

    def __init__(self, tick: bool = True):
        self.tick = tick
        self.samples = []  # spin loop durations, in order
        self.spent = 0.0  # seconds spent inside ticks
        self.last = (0.0, 0.0)  # (raw, reference) seconds of the last timed call

    def _sample(self, *_):
        t0 = time.perf_counter()
        spin(SPIN_N)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        if self.tick:
            self._sample()
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        if self.tick:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def call(self, fn, *args):
        """fn(*args), recording its time in ``last`` even when it raises."""
        n0, spent0 = len(self.samples), self.spent
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            raw = time.perf_counter() - t0 - (self.spent - spent0)
            if self.tick:
                # the ticks during the call, widened back to at least
                # SPIN_WINDOW of them so a short call is not read off one
                window = self.samples[min(n0, len(self.samples) - SPIN_WINDOW):]
                self.last = (raw, raw * SPIN_NOMINAL_S / statistics.median(window))
            else:
                self.last = (raw, raw)


def import_library():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pargal", "__init__.py")):
        sys.exit(f"perfbench: no pargal sources under {src}; run from the root of a source checkout")
    sys.path.insert(0, src)
    import pargal  # noqa: F401


def tail(latencies):
    """(value, percentile, samples beyond): the highest of p90, p99 and p99.9
    with at least ten samples beyond it, or the maximum below 100 samples
    (where any percentile with ten samples beyond it would sit at p90 or
    lower, down to below the median)."""
    xs = sorted(latencies)
    n = len(xs)
    for pct in (99.9, 99.0, 90.0):
        beyond = int(n * (100.0 - pct) / 100.0 + 1e-9)
        if beyond >= 10:
            return xs[n - 1 - beyond], pct, beyond
    return xs[-1], 100.0, 0


class Run:
    def __init__(self, workload: str, seed: int, workdir: str, clock: Clock):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.ops = []
        self.expected = {}

    def setup(self):
        """Seeded input generation and validation, then the expected fingerprints."""
        import workloads

        self.ops = workloads.build(self.workload, self.seed, self.workdir)
        with open(EXPECTED, encoding="utf-8") as fh:
            self.expected = json.load(fh)[self.workload]
        missing = [op.name for op in self.ops if op.name not in self.expected]
        if missing:
            raise SystemExit(f"perfbench: no expected fingerprint for {missing[:3]}")

    def one_pass(self, tracer=None):
        """Every op once, on fresh copies of its inputs: [(raw s, reference s, ok)]."""
        inputs = [copy.deepcopy(op.inputs) for op in self.ops]
        out = []
        for i, op in enumerate(self.ops):
            try:
                if tracer:
                    result = self.clock.call(tracer.op, i, op.fn, inputs[i])
                else:
                    result = self.clock.call(op.fn, inputs[i])
            except Exception as exc:  # an op that raises counts as failed
                print(f"perfbench: {op.name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                out.append((*self.clock.last, False))
                continue
            got = tracer.untimed(op.fingerprint, result) if tracer else op.fingerprint(result)
            ok = got == self.expected[op.name]
            if not ok:
                print(f"perfbench: {op.name} fingerprint {json.dumps(got)} != expected", file=sys.stderr)
            out.append((*self.clock.last, ok))
        return out


def summarize(passes, col: int) -> dict:
    """End-to-end timings from column ``col`` (0 raw, 1 reference) of the passes.

    An op's latency is its median over the run's passes, so the latency
    percentiles are over the workload's ops whatever the number of passes.
    """
    per_op = [statistics.median(p[i][col] for p in passes) for i in range(len(passes[0]))]
    tail_v, tail_pct, beyond = tail(per_op)
    return {
        "wall_s": statistics.median(sum(op[col] for op in p) for p in passes),
        "ops_per_s": len(passes) * len(per_op) / sum(op[col] for p in passes for op in p),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_tail_ms": 1000 * tail_v,
        "op_tail": {"percentile": tail_pct, "samples": len(per_op), "beyond": beyond},
    }


def measure(run: Run, seconds: float):
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append(run.one_pass())
    samples = [op for p in passes for op in p]
    failed = sum(1 for op in samples if not op[2])
    values = summarize(passes, 1)
    values["error_rate"] = failed / len(samples)
    detail = {"passes": len(passes), "ops_per_pass": len(run.ops), "op_tail": values.pop("op_tail"),
              "raw": summarize(passes, 0)}
    return values, len(samples), failed, detail


def measure_traced(run: Run):
    """One untraced and one traced pass after a warm-up pass, all untimed by ticks."""
    from tracer import Tracer, metric_specs

    run.one_pass()
    plain = run.one_pass()
    tracer = Tracer()
    with tracer:
        traced = run.one_pass(tracer)
    untraced_wall = sum(op[0] for op in plain)
    traced_wall = sum(op[0] for op in traced)
    values = tracer.metrics(traced_wall - untraced_wall)
    units = {name: unit for name, unit, _ in metric_specs()}
    samples = plain + traced
    failed = sum(1 for op in samples if not op[2])
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"trace-{run.workload}-seed{run.seed}.spans.gz")
    tracer.write_spans(span_file, {"workload": run.workload, "seed": run.seed,
                                   "ops": [op.name for op in run.ops]})
    detail = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
              "spans": len(tracer.span_name), "span_file": os.path.relpath(span_file, ROOT),
              "ratio_bases": tracer.bases()}
    return {k: (v, units[k]) for k, v in values.items()}, len(samples), failed, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "products", "iso", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        with Clock(tick=not args.trace) as clock:
            start_s = time.perf_counter() - PROCESS_T0
            clock.call(import_library)
            import_s = [start_s + t for t in clock.last]
            setups = []
            for _ in range(SETUP_REPEATS):
                run = Run(args.workload, args.seed, workdir, clock)
                clock.call(run.setup)
                setups.append(clock.last)
            setup_s = [import_s[c] + statistics.median(s[c] for s in setups) for c in (0, 1)]
            if args.trace:
                metrics, attempted, failed, detail = measure_traced(run)
            else:
                values, attempted, failed, detail = measure(run, args.seconds)
                values["setup_s"] = setup_s[1]
                values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
                detail["raw"]["setup_s"] = setup_s[0]
                detail["spin_samples"] = len(clock.samples)
                detail["spin_median_s"] = statistics.median(clock.samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update({"workload": args.workload, "seed": args.seed, "trace": args.trace})
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:16.6f} {unit}")
    print(json.dumps({"detail": detail}))
    reported = metrics
    if not args.trace:
        # error_rate is 0 by design, and a metric that is always 0 has no
        # spread to bound; the result line carries it as attempted/failed
        reported = {k: v for k, v in metrics.items() if k != "error_rate"}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
