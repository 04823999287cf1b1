"""mmdreg benchmark: one seeded workload, timed, checked, reported.

    python3 perfbench/run.py --workload plan_tilde --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, and the run fails (exit 2) without it.

``--trace 0`` times untraced passes and reports the end-to-end metrics.
Each workload is a closed loop: one pass starts after the previous one
ends.  The machine's speed drifts by tens of percent over seconds to
minutes, so every pass (every step of a ``cli_csv`` pass) and every
set-up is bracketed by a fixed reference computation and the times are
scaled to a machine on which that unit takes ``REFERENCE_NOMINAL_S``
seconds; the unscaled medians are in the report line.

``--trace 1`` times untraced passes, then two traced passes, and reports
the per-layer metrics.

Lines before the last one are a readable report: every metric with its
unit, failures, parameter errors and provenance.  The last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A failed correctness check sets ``correct`` to false and the exit code
to 1.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 4
REFERENCE_NOMINAL_S = 0.3
TRACED_PASSES = 2


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def bootstrap():
    """Point imports at the checkout's ``src/`` and fix the thread settings.

    BLAS and OpenMP threads are pinned to 1, so the process pool is the
    only parallelism and two workers do not oversubscribe the cores.
    ``MMDR_THREADS`` is cleared so the pool size is the workload's own.
    Returns the thread environment as found, for the provenance.
    """
    if not (SRC / "mmdreg" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'mmdreg'}; run from a full checkout")
    found = {v: os.environ.get(v) for v in THREAD_VARS + ("MMDR_THREADS",)}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MMDR_THREADS", None)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))
    return found


def pin_one_process(workload):
    """Keep a one-process workload, and the reference workers it starts
    later, on one CPU, so the reference times the core the workload ran
    on.  A workload with a process pool keeps every CPU."""
    if getattr(workload, "threads", 1) == 1:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def time_import():
    """Seconds for a fresh interpreter to import the package."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mmdreg"], check=True, timeout=120, cwd=ROOT)
    return time.perf_counter() - t0


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def provenance(seed, thread_env):
    import numpy
    import scipy

    import mmdreg

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mmdreg": mmdreg.__version__,
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "cpu_model": cpu, "thread_env_found": thread_env,
        "thread_env_used": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


@dataclass
class Pass:
    wall: float            # seconds, reference units excluded
    scaled: float | None   # the same at the reference machine speed
    result: object         # workloads.PassResult


def run_passes(workload, state, tracer, seconds, min_passes, threads=None, clock=None):
    """Closed loop of passes until ``seconds`` are spent.

    A pass starts only if it is expected to end less than half a pass
    past the budget.  With a ``clock``, the reference unit is timed
    before the first pass and at the end of every segment: a segment
    ends at each ``mark()`` the workload calls and at the end of the
    pass.  Each segment is scaled by the mean of the two reference times
    around it.  Returns the passes and the reference times.
    """
    from measures import scaled_by_reference

    kwargs = {} if threads is None else {"threads": threads}
    done = []
    refs = [clock.measure()] if clock else []
    start = time.perf_counter()
    while True:
        if hasattr(workload, "clear"):
            workload.clear(state)
        tracer.pass_id += 1
        segments = []
        seg_start = time.perf_counter()

        def mark():
            nonlocal seg_start
            segments.append(time.perf_counter() - seg_start)
            if clock:
                refs.append(clock.measure())
            seg_start = time.perf_counter()

        result = workload.run_pass(state, tracer, mark, **kwargs)
        mark()
        scaled = None
        if clock:
            around = refs[-len(segments) - 1:]
            scaled = sum(scaled_by_reference(segments, around, REFERENCE_NOMINAL_S))
        done.append(Pass(sum(segments), scaled, result))
        elapsed = time.perf_counter() - start
        if len(done) >= min_passes and elapsed + done[-1].wall / 2 >= seconds:
            break
    return done, refs


def check_passes(passes, problems):
    """Outputs must repeat exactly across passes of one seed."""
    for p in passes:
        problems.extend(p.result.problems)
    digests = {p.result.digest for p in passes}
    if len(digests) > 1:
        problems.append(f"outputs differ between passes ({len(digests)} distinct)")


def end_to_end(workload, state, seconds, clock):
    """Untraced passes, scaled to the reference machine speed.

    At least three passes, so one slow pass cannot move the median.  The
    peak RSS is read while the reference workers still run, so they
    are not among the reaped children it counts.
    """
    from spans import NullTracer

    passes, refs = run_passes(workload, state, NullTracer(), seconds, min_passes=3,
                              clock=clock)
    metrics = {
        "wall_s": (statistics.median(p.scaled for p in passes), "s"),
        "fits_per_s": (statistics.median(p.result.mmd_fits_ok / p.scaled for p in passes),
                       "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = {"wall_s_unscaled": statistics.median(p.wall for p in passes),
           "reference_s": [round(x, 4) for x in refs]}
    return passes, metrics, raw


def _med(values):
    return statistics.median(values) if values else 0.0


def _layer(table, name, unit, better, value):
    table[name] = (value, unit, better)


def layer_metrics(figures, setup_pm, untraced_pool, untraced_same, traced_passes, passes):
    """Per-layer metrics, ``name -> (value, unit, better)``.

    Span figures are medians over the traced passes' ``figures``; pool
    figures come from the untraced passes at the workload's own pool
    size; the tracing overhead compares traced passes with untraced ones
    at the same pool size; nonzero exits are summed over all ``passes``.
    """
    import numpy as np

    from measures import tail_percentile

    out = {}

    def med(fn):
        return _med([fn(pm) for pm in figures])

    def calls(n):
        return med(lambda pm: pm["calls"].get(n, 0))

    def busy(n):
        return med(lambda pm: pm["busy_s"].get(n, 0.0))

    def own(n):
        return med(lambda pm: pm["self_s"].get(n, 0.0))

    def cnt(key):
        return med(lambda pm: pm["counts"].get(key, 0))

    for layer, counted in (("kernels.elementwise", "evals"), ("kernels.gram", "evals")):
        _layer(out, f"{layer}.calls", "count", "lower", calls(layer))
        _layer(out, f"{layer}.busy_s", "s", "lower", busy(layer))
        _layer(out, f"{layer}.{counted}", "count-computed", "lower", cnt(f"{layer}.{counted}"))
    _layer(out, "models.sample.busy_s", "s", "lower", busy("models.sample"))
    _layer(out, "models.sample.draws", "count-computed", "lower",
           cnt("models.sample.draws"))
    _layer(out, "models.grad_log_density.busy_s", "s", "lower",
           busy("models.grad_log_density"))
    _layer(out, "models.grad_log_density.rows", "count-computed", "lower",
           cnt("models.grad_log_density.rows"))
    _layer(out, "models.simulate_dataset.busy_s", "s", "lower",
           busy("models.simulate_dataset"))
    _layer(out, "models.simulate_dataset.setup_busy_s", "s", "lower",
           setup_pm["busy_s"].get("models.simulate_dataset", 0.0))

    goe = "gradients.grad_objective_estimate"
    _layer(out, f"{goe}.calls", "count", "lower", calls(goe))
    _layer(out, f"{goe}.busy_s", "s", "lower", busy(goe))
    _layer(out, f"{goe}.self_s", "s", "lower", own(goe))
    # Tail latency: the highest percentile with at least ten calls beyond it.
    def pct(pm, p):
        d = pm["durations"].get(goe)
        return float(np.percentile(d, p)) * 1e3 if d is not None and d.size else 0.0

    n_calls = min((pm["durations"].get(goe, np.empty(0)).size for pm in figures), default=0)
    tail = tail_percentile(n_calls) or 50.0
    _layer(out, f"{goe}.call_ms_p50", "ms", "lower", med(lambda pm: pct(pm, 50.0)))
    _layer(out, f"{goe}.call_ms_tail", "ms", "lower", med(lambda pm: pct(pm, tail)))
    _layer(out, f"{goe}.call_ms_tail_pct", "%", "higher", tail)

    bpc = "gradients.build_pair_cache"
    _layer(out, f"{bpc}.busy_s", "s", "lower", busy(bpc))
    _layer(out, f"{bpc}.pairs_ranked", "count-computed", "lower", cnt(f"{bpc}.pairs_ranked"))
    _layer(out, f"{bpc}.cache_mb", "MB-computed", "lower", cnt(f"{bpc}.cache_mb"))
    _layer(out, "gradients.top_pairs.busy_s", "s", "lower", busy("gradients.top_pairs"))
    spi = "gradients.sample_pair_indices"
    _layer(out, f"{spi}.calls", "count", "lower", calls(spi))
    _layer(out, f"{spi}.busy_s", "s", "lower", busy(spi))
    _layer(out, f"{spi}.pairs_sampled", "count-computed", "lower", cnt(f"{spi}.pairs_sampled"))

    for layer in ("fitting.fit_mmd", "fitting.fit_baseline"):
        _layer(out, f"{layer}.calls", "count", "lower", calls(layer))
        _layer(out, f"{layer}.busy_s", "s", "lower", busy(layer))
    _layer(out, "fitting.fit_mmd.self_s", "s", "lower", own("fitting.fit_mmd"))
    _layer(out, "fitting.fit_mmd.iters", "count", "lower", cnt("fitting.fit_mmd.iters"))

    _layer(out, "contamination.contaminate.busy_s", "s", "lower",
           busy("contamination.contaminate"))
    _layer(out, "contamination.contaminate.rows_touched", "count-computed", "lower",
           cnt("contamination.contaminate.rows_touched"))
    _layer(out, "dataio.write_csv.busy_s", "s", "lower", busy("dataio.write_csv"))
    _layer(out, "dataio.write_csv.bytes", "B-computed", "lower", cnt("dataio.write_csv.bytes"))
    _layer(out, "dataio.load_csv.busy_s", "s", "lower", busy("dataio.load_csv"))
    _layer(out, "dataio.load_csv.rows", "count-computed", "lower", cnt("dataio.load_csv.rows"))
    _layer(out, "dataio.export_contaminated.busy_s", "s", "lower",
           busy("dataio.export_contaminated"))
    _layer(out, "dataio.write_fit_result.busy_s", "s", "lower",
           busy("dataio.write_fit_result"))
    _layer(out, "dataio.write_fit_result.bytes", "B-computed", "lower",
           cnt("dataio.write_fit_result.bytes"))

    _layer(out, "bench.run_plan.busy_s", "s", "lower", busy("bench.run_plan"))
    extras = [p.result.extra for p in untraced_pool]
    tasks = _med([e.get("tasks", 0) for e in extras])
    task_s = _med([e.get("task_s_sum", 0.0) for e in extras])
    util = _med([e["task_s_sum"] / (e["threads"] * e["run_plan_s"])
                 for e in extras if e.get("run_plan_s")])
    _layer(out, "bench.tasks", "count", "lower", tasks)
    _layer(out, "bench.task_s_sum", "s", "lower", task_s)
    _layer(out, "bench.pool_util", "ratio", "higher", util)
    _layer(out, "bench.reps_failed", "count", "lower",
           _med([e.get("reps_failed", 0) for e in extras]))

    for sub in ("simulate", "contaminate", "fit"):
        _layer(out, f"cli.main.{sub}.busy_s", "s", "lower", busy(f"cli.main.{sub}"))
    _layer(out, "cli.main.nonzero_exits", "count", "lower",
           sum(p.result.extra.get("nonzero_exits", 0) for p in passes))

    base = _med([p.wall for p in untraced_same])
    over = _med([p.wall for p in traced_passes]) - base
    _layer(out, "trace.overhead_s", "s", "lower", over)
    _layer(out, "trace.overhead_frac", "ratio", "lower", over / base if base else 0.0)
    _layer(out, "trace.spans", "count", "lower",
           med(lambda pm: sum(pm["calls"].values())))
    return out


def per_layer(workload, state, seed, seconds):
    """Untraced passes, then traced passes, then the layer table."""
    import probes
    from spans import NullTracer, Tracer

    problems = []
    pool_threads = getattr(workload, "threads", None)
    untraced_pool, _ = run_passes(workload, state, NullTracer(), seconds / 2, min_passes=1)
    untraced_same = untraced_pool
    if pool_threads not in (None, 1):
        # The traced passes run in one process; time the same untraced
        # so the difference is the tracing overhead alone.
        untraced_same, _ = run_passes(workload, state, NullTracer(), 0, min_passes=1,
                                      threads=1)
    tracer = Tracer()
    probes.install(tracer)
    try:
        with tracer.span("setup"):
            state = workload.setup(seed)
        kwargs = {} if pool_threads is None else {"threads": 1}
        traced, _ = run_passes(workload, state, tracer, 0, min_passes=TRACED_PASSES, **kwargs)
    finally:
        tracer.unpatch()
    passes = untraced_pool + (untraced_same if untraced_same is not untraced_pool else []) \
        + traced
    check_passes(passes, problems)
    figures = [tracer.pass_metrics(pid) for pid in range(1, tracer.pass_id + 1)]
    for key in ("calls", "counts"):
        first = figures[0][key]
        for pm in figures[1:]:
            differ = sorted(k for k in set(first) | set(pm[key])
                            if first.get(k) != pm[key].get(k) and k not in probes.VARIES)
            if differ:
                problems.append(f"{key} differ between traced passes: {differ}")
    os.makedirs(WORKDIR, exist_ok=True)
    tracer.write(WORKDIR / f"spans-{workload.name}-seed{seed}.jsonl")
    metrics = layer_metrics(figures, tracer.pass_metrics(0), untraced_pool, untraced_same,
                            traced, passes)
    return passes, problems, {k: (v, unit) for k, (v, unit, _) in metrics.items()}


def timed_setup(workload, seed, clock):
    """Set up ``SETUP_REPEATS`` times: a fresh interpreter importing the
    package plus input generation, each timed between two single-process
    reference units.  Returns the state, the median scaled set-up time
    and the unscaled figures."""
    from measures import scaled_by_reference

    refs, times = [clock.measure(1)], []
    for _ in range(SETUP_REPEATS):
        t = time_import()
        t0 = time.perf_counter()
        state = workload.setup(seed)
        times.append(t + time.perf_counter() - t0)
        refs.append(clock.measure(1))
    scaled = scaled_by_reference(times, refs, REFERENCE_NOMINAL_S)
    return state, statistics.median(scaled), {"setup_s_unscaled": statistics.median(times)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # A terminated run still leaves through the ``finally`` blocks, which
    # wait for every process it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    thread_env = bootstrap()
    import mmdreg

    if Path(mmdreg.__file__).resolve().parent != (SRC / "mmdreg").resolve():
        _fail(f"imported mmdreg from {mmdreg.__file__}, not from {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    workload = workloads.make(args.workload, str(WORKDIR / args.workload))
    pin_one_process(workload)
    try:
        if args.trace:
            raw = {}
            passes, problems, metrics = per_layer(workload, workload.setup(args.seed),
                                                  args.seed, args.seconds)
        else:
            from reference import ReferenceClock

            clock = ReferenceClock(getattr(workload, "threads", 1))
            try:
                state, setup_s, raw = timed_setup(workload, args.seed, clock)
                passes, metrics, raw_passes = end_to_end(workload, state, args.seconds, clock)
            finally:
                clock.close()
            metrics = {"setup_s": (setup_s, "s"), **metrics}
            raw.update(raw_passes)
            problems = []
            check_passes(passes, problems)
    finally:
        if hasattr(workload, "close"):
            workload.close()

    results = [p.result for p in passes]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    fail_types = {}
    for r in results:
        for k, v in r.fail_types.items():
            fail_types[k] = fail_types.get(k, 0) + v
    errors = results[-1].errors
    report = {
        "workload": args.workload, "why": workload.why, "trace": args.trace,
        "passes": len(passes), "pass_s": [round(p.wall, 4) for p in passes],
        "fail_frac": failed / attempted if attempted else 0.0,
        "fail_types": fail_types,
        "errors": {k: {"value": v, "unit": "param-dist",
                       "ceiling": workloads.ERR_CEILINGS[s]}
                   for s, k in workloads.ERR_NAMES.items() if (v := errors.get(k)) is not None},
        "raw": raw, "problems": problems, "provenance": provenance(args.seed, thread_env),
    }
    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print(f"  {'fail_frac':<48} {report['fail_frac']:>14.6g} ratio ({failed}/{attempted})")
    for name, e in report["errors"].items():
        print(f"  {name:<48} {e['value']:>14.6g} {e['unit']} (ceiling {e['ceiling']})")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print("report " + json.dumps(report, sort_keys=True))
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
