"""Benchmark of the entropygames solver, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-cli --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --compare BASE NEW

A run makes the workload's inputs and oracle answers from the seed, then
calls the program in a closed loop (one client, next operation only after
the previous one returned) over a fixed schedule of operations, repeating
the schedule until ``--seconds`` have passed and every position has run at
least MIN_PASSES times.  Every output is checked against an independent
oracle right after its operation, outside the operation's timing; a wrong
answer counts as a failure and never stops the run.

A shared machine's speed swings by up to 2x, for seconds to minutes at a
time, and a whole run can fall in its slow state.  So a probe, a fixed
exact-arithmetic loop (about 3 ms) that calls no program code, runs before
and after every operation, and a position's time is its total time over
the total of its bracketing probes' mean, times PROBE_NOMINAL_S: seconds at
the machine speed at which the probe takes PROBE_NOMINAL_S.  An operation
and its probes share the machine's state of the moment, which cancels in
the ratio.  Set-up times are scaled the same way by the run's mean probe.
The result file keeps the unscaled figures.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the run makes one traced pass
over the schedule and reports the per-layer metrics: span counts and self
times, work counts, and the tracing overhead: the traced pass's time over
the time of an untraced pass, each position's faster of two untraced runs
before and after it, minus one.  Each run also writes its full result, with
the environment it ran in, to ``perfbench/out/``; traced runs write their
spans there too, one JSON line per span.

``--compare BASE NEW`` reads result files (or directories of them) and
prints, one row per workload, the ratio NEW/BASE of each metric's median and
the difference of each count.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

from spans import TARGETS, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9
MIN_PASSES = 3
# the probe's usual time on the 2-vCPU Xeon VM the benchmark was sized on,
# when that machine runs fast
PROBE_NOMINAL_S = 0.0035
TAIL_BEYOND = 10

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("cpu_per_op_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cert_bits_max", "bits"),
    ("setup_s", "s"),
)

_FUNCTIONS = tuple(target[0] for target in TARGETS)
_LAYERS = (
    "cli", "io", "games", "decide", "iru", "lp", "linalg", "kernels", "realroots",
    "reductions",
)
PER_LAYER = (
    tuple((f"{name}.{stat}", unit) for name in _FUNCTIONS
          for stat, unit in (("calls", "count"), ("self_s", "s")))
    + tuple((f"{layer}.self_share", "fraction") for layer in _LAYERS)
    + (
        ("linalg.mat_mul.self_share", "fraction"),
        ("iru.members_yielded", "count"),
        ("decide.lp_per_query", "count"),
        ("decide.hit_ratio", "fraction"),
        ("decide.value_bisection.steps", "count"),
        ("lp.infeasible", "count"),
        ("lp.rows_x_vars", "count"),
        ("lp.solution_bits_max", "bits"),
        ("linalg.entry_bits_max", "bits"),
        ("linalg.spectral_radius.unconverged", "count"),
        ("linalg.witness_bits_max", "bits"),
        ("kernels.power_enclosure.iterations", "count"),
        ("kernels.flops_computed", "count"),
        ("trace.ops", "count"),
        ("trace.traced_s", "s"),
        ("trace.overhead_frac", "fraction"),
        ("trace.self_coverage", "fraction"),
    )
)


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def import_program():
    """Import the package from this checkout's ``src`` only."""
    init = os.path.join(SRC, "entropygames", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no program source at {init}; run from a full checkout")
    sys.path.insert(0, SRC)
    import entropygames

    if os.path.realpath(entropygames.__file__) != os.path.realpath(init):
        raise BenchError(f"imported {entropygames.__file__} instead of {init}")
    return entropygames


# -- environment --------------------------------------------------------------


def _git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _numpy_version() -> str:
    # read from the installed metadata: importing numpy here would count its
    # memory as the program's
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment(seed: int, load_at_start) -> dict:
    from entropygames import kernels

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "kernel_impl": getattr(kernels, "KERNEL_IMPL", "unknown"),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(load_at_start),
        "platform": platform.platform(),
        "seed": seed,
    }


# -- running ------------------------------------------------------------------


def _cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def probe_s() -> float:
    """Time of a fixed exact-arithmetic loop that runs no program code."""
    third = Fraction(1, 3)
    start = time.perf_counter()
    for i in range(1000):
        Fraction(i, 7) * third + third
    return time.perf_counter() - start


def run_op(op, tracer=None, op_id=None):
    """Time one operation and check it.  Returns (wall, cpu, failed, bits)."""
    result = None
    failed = False
    cpu0 = _cpu()
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            with tracer.op_span(f"op.{op.kind}", op_id):
                result = op.run()
    except (Exception, SystemExit) as exc:  # a crash is a failed operation
        failed = True
        print(f"op {op.kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
    wall = time.perf_counter() - start
    cpu = _cpu() - cpu0
    bits = 0
    if not failed:
        try:
            bits = op.check(result)
        except Exception as exc:
            failed = True
            print(f"op {op.kind} wrong: {exc}", file=sys.stderr)
    return wall, cpu, failed, bits


def setup(name: str, seed: int, workdir: str, tiny: bool):
    """Build the workload (inputs, files, oracle answers) and warm up."""
    wl = WORKLOADS[name](seed, workdir, tiny)
    _, _, failed, _ = run_op(wl.warmup)
    if failed:
        raise BenchError(f"warm-up operation of {name} failed")
    return wl


def timed_phase(ops, seconds: float, interlude=None, interludes: int = 0,
                min_passes: int = MIN_PASSES):
    """Closed loop over the schedule, round and round, until ``seconds``
    passed and every position ran ``min_passes`` times.  ``interlude``
    (set-up again) runs between operations at ``interludes`` evenly spaced
    moments of the run, and any not reached then run at its end.  Returns
    per-position wall and cpu samples, the mean of the probes before and
    after each sample, failures and per-position certificate sizes."""
    walls = [[] for _ in ops]
    cpus = [[] for _ in ops]
    failed = 0
    cert_bits = [0] * len(ops)
    marks = [seconds * (k + 1) / (interludes + 1) for k in range(interludes)]
    probes = [[] for _ in ops]
    before = probe_s()
    start = time.perf_counter()
    k = 0
    while k < min_passes * len(ops) or time.perf_counter() - start < seconds:
        if marks and time.perf_counter() - start >= marks[0]:
            marks.pop(0)
            interlude()
            before = probe_s()
        pos = k % len(ops)
        wall, cpu, bad, bits = run_op(ops[pos])
        after = probe_s()
        probes[pos].append((before + after) / 2)
        before = after
        walls[pos].append(wall)
        cpus[pos].append(cpu)
        failed += bad
        cert_bits[pos] = max(cert_bits[pos], bits)
        k += 1
    for _ in marks:
        interlude()
    return walls, cpus, probes, failed, cert_bits


def end_to_end(kinds, walls, cpus, probes, failed, cert_bits, setup_s):
    """Metrics at the schedule's instance mix, each position weighted once
    by its probe-scaled time (wall or CPU; see the module docstring).
    cert_bits_max is the bit size of the largest number in any certificate
    of the schedule."""
    n = len(walls)
    attempted = sum(len(w) for w in walls)
    scaled = [PROBE_NOMINAL_S * sum(w) / sum(p) for w, p in zip(walls, probes)]
    scaled_cpu = [PROBE_NOMINAL_S * sum(c) / sum(p) for c, p in zip(cpus, probes)]
    probe_mean = sum(map(sum, probes)) / attempted
    ranked = sorted(scaled)
    # the highest rank with TAIL_BEYOND positions above it, else the maximum
    tail_index = n - 1 - TAIL_BEYOND if n > 2 * TAIL_BEYOND else n - 1
    metrics = {
        "ops_per_s": n / sum(scaled),
        "op_p50_s": statistics.median(scaled),
        "op_tail_s": ranked[tail_index],
        "cpu_per_op_s": sum(scaled_cpu) / n,
        "peak_rss_mb": _peak_rss_mb(),
        "cert_bits_max": max(cert_bits),
        "setup_s": PROBE_NOMINAL_S * setup_s / probe_mean,
    }
    extra = {
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "positions": n,
        "passes": min(len(w) for w in walls),
        "tail_percentile": round(100.0 * (tail_index + 1) / n, 1),
        "tail_samples_beyond": n - 1 - tail_index,
        "cert_bits_mean": statistics.fmean([b for b in cert_bits if b] or [0]),
        "kind_scaled_mean_s": {
            kind: statistics.fmean(s for k, s in zip(kinds, scaled) if k == kind)
            for kind in sorted(set(kinds))
        },
        "scaled_s": scaled,
        "unscaled": {
            "probe_mean_s": probe_mean,
            "probe_fastest_s": min(map(min, probes)),
            "mean_s": [statistics.fmean(w) for w in walls],
            "fastest_s": [min(w) for w in walls],
            "ops_per_s": attempted / sum(map(sum, walls)),
            "setup_s": setup_s,
        },
    }
    return metrics, extra


def _peak_rss_mb() -> float:
    """Peak resident memory of this process, which runs the program and
    the benchmark's pure-Python checks; the numpy oracles run in a child."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_phase(wl, name: str):
    """One traced pass over the schedule between two untraced ones, whose
    faster time per position is the reference for the tracing overhead."""
    failed = 0

    def untraced_pass():
        nonlocal failed
        walls = []
        for op in wl.ops:
            wall, _, bad, _ = run_op(op)
            walls.append(wall)
            failed += bad
        return walls

    before = untraced_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        for k, op in enumerate(wl.ops):
            wall, _, bad, _ = run_op(op, tracer, k)
            traced.append(wall)
            failed += bad
    finally:
        tracer.restore()
    untraced = [min(pair) for pair in zip(before, untraced_pass())]
    silent = [s for s in wl.required if tracer.calls()[s] == 0]
    if silent:
        raise BenchError(f"wrappers that must fire on {name} never did: {silent}")
    return tracer, sum(untraced), traced, failed


def per_layer(tracer, untraced_s: float, traced: list) -> dict:
    """Per-layer metrics of the traced pass.  Shares are of the traced
    operation time; the overhead compares the positions run both ways."""
    calls = tracer.calls()
    self_s = tracer.self_times()
    counts = tracer.counts
    maxes = tracer.maxes
    out = {}
    for name in _FUNCTIONS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for layer in _LAYERS:
        share = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        out[f"{layer}.self_share"] = share / sum(traced)
    out["linalg.mat_mul.self_share"] = self_s.get("linalg.mat_mul", 0.0) / sum(traced)
    queries = calls["decide.decide_mm_lt"] + calls["decide.decide_mm_ge"]
    probes = counts["decide.probes"]
    lps = calls["lp.lp_max"]
    out.update({
        "iru.members_yielded": counts["iru.members_yielded"],
        "decide.lp_per_query": lps / queries if queries else 0.0,
        "decide.hit_ratio": counts["decide.hits"] / probes if probes else 0.0,
        "decide.value_bisection.steps": counts["decide.value_bisection.steps"],
        "lp.infeasible": counts["lp.infeasible"],
        "lp.rows_x_vars": counts["lp.rows_x_vars.total"] / lps if lps else 0.0,
        "lp.solution_bits_max": maxes.get("lp.solution_bits_max", 0),
        "linalg.entry_bits_max": maxes.get("linalg.entry_bits_max", 0),
        "linalg.spectral_radius.unconverged": counts["linalg.spectral_radius.unconverged"],
        "linalg.witness_bits_max": maxes.get("linalg.witness_bits_max", 0),
        "kernels.power_enclosure.iterations": counts["kernels.power_enclosure.iterations"],
        "kernels.flops_computed": counts["kernels.flops_computed"],
        "trace.ops": len(traced),
        "trace.traced_s": sum(traced),
        "trace.overhead_frac": sum(traced) / untraced_s - 1.0,
        "trace.self_coverage": sum(
            v for k, v in self_s.items() if not k.startswith("op.")
        ) / sum(traced),
    })
    return out


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the full result record."""
    load = os.getloadavg()
    t0 = time.perf_counter()
    import_program()
    import_s = time.perf_counter() - t0
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{name}-{seed}-{os.getpid()}")
    setup_times = []

    def timed_setup(directory):
        os.makedirs(directory, exist_ok=True)
        start = time.perf_counter()
        wl = setup(name, seed, directory, tiny)
        setup_times.append(time.perf_counter() - start)
        return wl

    try:
        wl = timed_setup(workdir)
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "env": environment(seed, load),
        }
        if trace:
            tracer, untraced_s, traced, failed = traced_phase(wl, name)
            attempted = 3 * len(wl.ops)
            metrics = per_layer(tracer, untraced_s, traced)
            units = dict(PER_LAYER)
            record["spans_file"] = _result_path(name, seed, trace, "spans.jsonl")
            tracer.write(record["spans_file"])
            record["bindings"] = tracer.bindings
        else:
            # the other set-ups run spread over the timed phase, so that
            # their median does not hinge on one slow stretch of the machine
            repeats = 1 if tiny else SETUP_REPEATS
            again = iter(range(repeats - 1))
            walls, cpus, probes, failed, cert_bits = timed_phase(
                wl.ops, seconds,
                lambda: timed_setup(os.path.join(workdir, f"again{next(again)}")),
                repeats - 1, 1 if tiny else MIN_PASSES,
            )
            setup_s = import_s + statistics.median(setup_times)
            metrics, extra = end_to_end(
                [op.kind for op in wl.ops], walls, cpus, probes, failed, cert_bits, setup_s
            )
            attempted = extra["attempted"]
            units = dict(END_TO_END)
            record.update(extra)
            record["setup_repeats_s"] = setup_times
            record["import_s"] = import_s
        record.update({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        })
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _result_path(name, seed, trace, suffix) -> str:
    return os.path.join(OUT, f"{name}.seed{seed}.trace{int(trace)}.{suffix}")


# -- comparing ----------------------------------------------------------------


def _load_results(path: str) -> list[dict]:
    files = sorted(glob.glob(os.path.join(path, "*.result.json"))) if os.path.isdir(path) else [path]
    out = []
    for f in files:
        with open(f, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def _medians(results) -> dict:
    """{workload: {metric: (median over the results, unit)}}."""
    values: dict = {}
    for result in results:
        for metric, m in result["metrics"].items():
            values.setdefault(result["workload"], {}).setdefault(metric, (m["unit"], []))[1].append(
                m["value"]
            )
    return {
        workload: {metric: (statistics.median(v), unit) for metric, (unit, v) in metrics.items()}
        for workload, metrics in values.items()
    }


def compare(base_path: str, new_path: str) -> None:
    """One row per workload: NEW/BASE for each metric, NEW - BASE for
    counts."""
    base, new = _medians(_load_results(base_path)), _medians(_load_results(new_path))
    for workload in sorted(base.keys() & new.keys()):
        cells = []
        for metric, (b, unit) in sorted(base[workload].items()):
            if metric not in new[workload]:
                continue
            n = new[workload][metric][0]
            if unit in ("count", "bits"):
                cells.append(f"{metric} {n - b:+g}")
            elif b:
                cells.append(f"{metric} x{n / b:.3f}")
            else:
                cells.append(f"{metric} {b:g}->{n:g}")
        print(f"{workload}: " + "; ".join(cells))


# -- command line -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    path = _result_path(args.workload, args.seed, args.trace, "result.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    env = record["env"]
    print(f"# {args.workload} seed {args.seed}: python {env['python']}, numpy {env['numpy']}, "
          f"kernel {env['kernel_impl']}, nproc {env['nproc']}, "
          f"load {env['loadavg_at_start'][0]:.2f}, git {env['git_sha'][:12]}")
    if not args.trace:
        print(f"# fail_frac {record['fail_frac']:.4f} ({record['failed']}/{record['attempted']}); "
              f"{record['passes']} passes; op_tail_s is p{record['tail_percentile']} over "
              f"{record['positions']} positions, {record['tail_samples_beyond']} beyond")
    for k, m in record["metrics"].items():
        print(f"{k:42s} {m['value']:.6g} {m['unit']}")
    print(f"# result written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
