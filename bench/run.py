"""Run one workload of the mtss benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/mtss` of that checkout.  One run is one process with one thread and a
closed loop: each operation starts when the previous one returns, until
the operations have taken `--seconds` at the reference speed (see `probe`
and WALL_CAP).  Every output is checked against an expected value computed
in set-up.

`--trace 0` prints the end-to-end metrics, with every time scaled to a
reference host speed (see `probe`).  `--trace 1` runs every drawn
operation twice, once plain and once with every layer wrapped (see
spans.py), checks that both runs return the same output, and prints the
per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"

# Set-up repeats for this many seconds, and at least SETUP_MIN times, before
# the timed loop; setup_s reports the median.
SETUP_SECONDS = 1.0
SETUP_MIN = 3
# Modules every untraced set-up imports afresh: the program and the workloads.
FRESH_MODULES = ("mtss", "workloads")
# The host's speed drifts by up to 2x over seconds to minutes, and CPU time
# drifts with wall time, so neither is steady from one run to the next.  A
# fixed probe of the program's kind of work therefore runs between the
# operations, at least every PROBE_EVERY seconds, and the operations between
# two probes are scaled by REF_PROBE_S over the mean of the two probe times.
# The end-to-end times read as on a host where the probe takes REF_PROBE_S.
PROBE_EVERY = 0.1
REF_PROBE_S = 1e-3
# The timed loop stops once its operations have taken `--seconds` on that
# scaled clock, so every run gets equally far through its draw whatever the
# host's speed, or after WALL_CAP times `--seconds` of wall time.
WALL_CAP = 1.25
# Operations that should lie beyond the reported tail latency.
TAIL_BEYOND = 10
# Failed ops reported on stderr per pass; the rest are only counted.
MAX_REPORTS = 5


def _import_program():
    """Import `mtss` from this checkout's source tree, and nowhere else."""
    if not (SRC / "mtss" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'mtss'}")
    sys.path.insert(0, str(SRC))
    import mtss

    if Path(mtss.__file__).resolve().parent != SRC / "mtss":
        sys.exit(f"bench: imported mtss from {mtss.__file__}, not from {SRC}")


def _forget_modules():
    """Drop the program and the workloads from the import cache, so the next
    set-up imports them again and pays for what they do at import time."""
    for mod in list(sys.modules):
        if mod.split(".")[0] in FRESH_MODULES:
            del sys.modules[mod]


def _probe_work():
    """Fixed work in the program's mix: exact integer elimination on a
    small dense system and a pivot search over small ints (simplex), dict
    and tuple work (verify, schemes) and small int64 matrix products
    (field)."""
    n = 9
    m = [
        [(i * 7 + j * 13 + i * j) % 11 + 5 * (i == j) for j in range(n + 1)]
        for i in range(n)
    ]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f, pv = m[r][c], m[c][c]
                m[r] = [pv * a - f * b for a, b in zip(m[r], m[c])]
    best = 0
    for i in range(30):
        for j, v in enumerate([(i * 31 + j * 17) % 23 - 11 for j in range(40)]):
            if v > 0 and v * j > best:
                best = v * j
    d = {}
    for i in range(400):
        d[i % 17, i % 5] = d.get((i % 17, i % 5), 0) + i
    a = np.arange(36, dtype=np.int64).reshape(6, 6)
    for _ in range(60):
        a = (a @ a.T + 1) % 7
    return m[0][-1], best, len(d), int(a.sum())


def probe():
    """Seconds the fixed probe work takes now: the faster of two runs, with
    the garbage collector held off so that no collection lands in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            _probe_work()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def call(op):
    """Run one op: (output, seconds).  An exception's traceback becomes the
    output, so the op counts as failed and the run goes on."""
    t0 = time.perf_counter()
    try:
        out = op.fn(*op.args)
    except Exception:
        out = traceback.format_exc()
    return out, time.perf_counter() - t0


def report(op, out, failed):
    """Print the first MAX_REPORTS failures of a run on stderr."""
    if failed < MAX_REPORTS:
        print(f"bench: wrong output for {op.key}:\n{out}", file=sys.stderr)


def run_ops(ops, seconds):
    """Closed loop over `ops`, with a probe at least every PROBE_EVERY
    seconds, until the first op that ends past `seconds` on the scaled
    clock or past WALL_CAP * `seconds` of wall time.

    Returns (latencies, failed ops, seconds, raw), where latencies and
    seconds are scaled to the reference speed, and raw holds the unscaled
    (latencies, wall seconds, probe seconds).
    """
    scaled, raw, failed, wall, raw_wall, probes = [], [], 0, 0.0, 0.0, []
    stretch = []  # unscaled latencies since the last probe
    start = time.perf_counter()

    def rescale():
        """Scale the stretch since the last probe by the probes at its ends."""
        nonlocal stretch, t_stretch, wall, raw_wall
        secs = time.perf_counter() - t_stretch
        probes.append(probe())
        scale = REF_PROBE_S / ((probes[-2] + probes[-1]) / 2)
        scaled.extend(s * scale for s in stretch)
        raw.extend(stretch)
        wall += secs * scale
        raw_wall += secs
        stretch = []
        t_stretch = time.perf_counter()

    probes.append(probe())
    t_stretch = time.perf_counter()
    for op in ops:
        out, secs = call(op)
        stretch.append(secs)
        if out != op.expected:
            report(op, out, failed)
            failed += 1
        if time.perf_counter() - t_stretch >= PROBE_EVERY:
            rescale()
        now = time.perf_counter()
        # The stretch since the last probe, at that probe's speed.
        ahead = (now - t_stretch) * REF_PROBE_S / probes[-1]
        if wall + ahead >= seconds or now - start >= WALL_CAP * seconds:
            break
    else:
        print("bench: input pool exhausted before the deadline", file=sys.stderr)
    if stretch:
        rescale()
    return scaled, failed, wall, (raw, raw_wall, probes)


def tail(latencies, pct):
    """(latency at percentile `pct` by nearest rank, ops beyond it)."""
    ordered = sorted(latencies)
    i = max(math.ceil(round(pct * len(ordered) / 100, 9)) - 1, 0)
    return ordered[i], len(ordered) - i - 1


def timed_setups(make, fresh=False):
    """Set the workload up repeatedly; return its ops and the set-up times,
    scaled to the reference speed by a probe before and after each.

    Repeats run for SETUP_SECONDS and at least SETUP_MIN times.  Before
    each one the previous pool is released and collected, so one pool at a
    time counts in peak memory; with `fresh`, the program is also imported
    again inside each timed set-up.  Every repeat must draw the same
    operations, which checks that the draw depends on the seed alone.
    """
    times, ops, keys = [], None, None
    start = time.perf_counter()
    while len(times) < SETUP_MIN or time.perf_counter() - start < SETUP_SECONDS:
        ops = None
        if fresh:
            _forget_modules()
        gc.collect()
        before = probe()
        t0 = time.perf_counter()
        ops = make()
        secs = time.perf_counter() - t0
        times.append(secs * REF_PROBE_S / ((before + probe()) / 2))
        drawn = [op.key for op in ops]
        if keys is not None and drawn != keys:
            raise RuntimeError("set-up drew different operations for one seed")
        keys = drawn
    return ops, times


def untraced(make, seconds, tail_pct, fresh=False):
    """Time repeated set-ups, then a closed loop of the drawn ops; return
    (correct, attempted, failed, end-to-end metrics)."""
    ops, setups = timed_setups(make, fresh)
    latencies, failed, wall, (raw, raw_wall, probes) = run_ops(ops, seconds)
    n = len(latencies)
    tail_s, beyond = tail(latencies, tail_pct)
    print(f"{n} ops in {raw_wall:.3f} s; fail_frac {failed / n} ({failed} of {n})")
    raw_p50, raw_tail = statistics.median(raw), tail(raw, tail_pct)[0]
    print(
        f"unscaled: {n / raw_wall:.4g} ops/s, p50 {raw_p50 * 1e3:.4g} ms, "
        f"tail {raw_tail * 1e3:.4g} ms; {len(probes)} probes, median "
        f"{statistics.median(probes) * 1e3:.4g} ms, reference {REF_PROBE_S * 1e3:g} ms"
    )
    print(f"op_tail_ms is p{tail_pct:g} of {n} ops, {beyond} beyond")
    if beyond < TAIL_BEYOND:
        print(f"bench: fewer than {TAIL_BEYOND} ops beyond the tail", file=sys.stderr)
    print(f"setup_s is the median of {len(setups)} set-ups")
    metrics = {
        "ops_per_s": (n / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MiB",
        ),
    }
    return failed == 0, n, failed, metrics


def traced(make, seconds, span_file=None):
    """Run each drawn op twice, untraced and traced, until the deadline;
    return (correct, attempted, failed, per-layer metrics).

    Set-up runs once, traced as operation -1, for the set-up metrics.
    Pairing the two runs of an op puts both under the same machine load, so
    their time ratio gives the tracing overhead.  An op fails when either
    run returns a wrong output or the two disagree; the run is also
    incorrect if a wrapper outlives it.
    """
    import spans

    tracer = spans.Tracer()
    with tracer:
        ops = make()
    plain_s = traced_s = 0.0
    attempted = failed = 0
    start = time.perf_counter()
    for i, op in enumerate(ops):
        tracer.op = i
        # Alternate which run goes first, so warm caches favour neither.
        for with_spans in (True, False) if i % 2 else (False, True):
            if with_spans:
                with tracer:
                    seen, secs = call(op)
                traced_s += secs
            else:
                out, secs = call(op)
                plain_s += secs
        attempted += 1
        if out != op.expected or seen != out:
            report(op, f"untraced {out!r}, traced {seen!r}", failed)
            failed += 1
        if time.perf_counter() - start >= seconds:
            break
    else:
        print("bench: input pool exhausted before the deadline", file=sys.stderr)
    leftover = spans.leftover_wrappers()
    if leftover:
        print(f"bench: wrappers left in place: {leftover}", file=sys.stderr)
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    if span_file is not None:
        span_file.parent.mkdir(exist_ok=True)
        spans.write_tsv(tracer, span_file)
    print(f"{attempted} ops run untraced and traced, {len(tracer.names)} spans")
    return failed == 0 and not leftover, attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    _import_program()
    sys.path.insert(0, str(BENCH))
    from workloads import TAIL_PERCENTILE, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {WORKLOADS}")

    def make():
        return importlib.import_module("workloads").setup(args.workload, args.seed)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        span_file = SPAN_DIR / f"spans-{args.workload}.tsv"
        correct, attempted, failed, metrics = traced(make, args.seconds, span_file)
    else:
        correct, attempted, failed, metrics = untraced(
            make, args.seconds, TAIL_PERCENTILE[args.workload], fresh=True
        )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
