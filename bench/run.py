"""fdecanc benchmark: one closed-loop workload per run, from a seed.

    python3 bench/run.py --workload fit|lattice|cli --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  With ``--trace 0`` the last line of standard output is a
JSON object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  The line before it is the run record
(code, interpreter, machine and workload parameters).  ``--smoke`` runs the
same code at tiny sizes in a few seconds.

Timings are given in reference seconds.  On a shared host the speed of one
process can swing by up to 1.9x for seconds to a minute at a time (measured on
a 2-vCPU Xeon VM, where CPU time followed wall time).  So the run times a
fixed calibration, which runs no fdecanc code, every CAL_EVERY_S seconds
between ops and next to each cold set-up, and scales each timing by REF_CAL_S
over the median calibration near it.  The run record keeps the unscaled
figures and the factors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 7  # cold set-ups an untraced run times; setup_s is their median
TAIL_BEYOND = 10  # samples the reported tail percentile must leave above it
P50_CHUNK = 8  # consecutive ops of a kind whose median is one p50 sample
CAL_EVERY_S = 0.5  # run time between two calibrations
CAL_NEAR = 3  # calibrations on each side of a timing that set its host factor
REF_CAL_S = 0.02  # each calibrate()'s median on the baseline host (2-vCPU Xeon VM)


def make_calibration(workload):
    """A fixed piece of work, of the kind the workload's ops do, that runs no
    fdecanc code, so no change to the package moves it.  A host that slows
    one kind of work down slows another less: over the same minutes, fit's
    op time moved about as much as a loop of small-array numpy calls, while
    lattice's moved about 0.7 times as much as a large-block reduction and
    under half as much as the others.  So fit is calibrated by small-array
    numpy calls (its descent), lattice by reductions over a block of the
    oracle's shape (its buffers, made once, add about 6 MB to its peak RSS
    on every commit alike), and cli by a pure-Python loop (its parsing and
    formatting)."""
    import numpy as np

    rng = np.random.default_rng(0)
    row = rng.standard_normal(101) + 1j * rng.standard_normal(101)
    if workload == "fit":
        def work():
            for _ in range(2600):
                d = row - 0.5 * row
                float(np.sum(d.real**2 + d.imag**2))
    elif workload == "lattice":
        block = rng.standard_normal((1296, 101)) + 1j * rng.standard_normal((1296, 101))
        d = np.empty_like(block)
        re, im = np.empty(block.shape), np.empty(block.shape)

        def work():
            for _ in range(24):
                np.subtract(block, row, out=d)
                np.square(d.real, out=re)
                np.square(d.imag, out=im)
                np.argmin(np.add(re, im, out=re).sum(axis=1))
    else:
        def work():
            s = 0
            for i in range(200_000):
                s += i * i % 7

    def calibrate():
        t0 = perf_counter()
        work()
        return perf_counter() - t0

    return calibrate


def host_factors(cal_s, cal_at, n_ops):
    """Each op's host factor: REF_CAL_S over the median of the CAL_NEAR
    calibrations before it and the CAL_NEAR after it.  ``cal_at[k]`` is the
    number of ops run before calibration k."""
    factors, k = [], 0
    for i in range(n_ops):
        while k + 1 < len(cal_at) and cal_at[k + 1] <= i:
            k += 1
        near = cal_s[max(0, k - CAL_NEAR + 1):k + CAL_NEAR + 1]
        factors.append(REF_CAL_S / statistics.median(near))
    return factors


def _setup_seconds(workload, seed, smoke, workdir, calibrate):
    """Wall time of one cold set-up, in reference seconds and unscaled: a
    fresh interpreter imports fdecanc, generates the workload's inputs and
    warms up."""
    code = (
        "import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
        "import workloads; "
        "size = workloads.TINY if sys.argv[5] == '1' else workloads.FULL; "
        "workloads.setup_workload(sys.argv[3], int(sys.argv[4]), size, sys.argv[6]); "
        "print(time.perf_counter() - t)"
    )
    workdir.mkdir()
    near = [calibrate() for _ in range(CAL_NEAR)]
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(BENCH), workload, str(seed),
         str(int(smoke)), str(workdir)],
        check=True, stdout=subprocess.PIPE, text=True,
    )
    near += [calibrate() for _ in range(CAL_NEAR)]
    raw = float(out.stdout)
    return raw * REF_CAL_S / statistics.median(near), raw


def _commit():
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    return "unknown"


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "fdecanc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _per_kind(latencies, kinds):
    per = {}
    for t, k in zip(latencies, kinds):
        per.setdefault(k, []).append(t)
    return per


def _tail(xs):
    """The highest percentile with at least TAIL_BEYOND samples above it, and
    never below p75: (value, percentile).  The value is interpolated between
    the two nearest samples, which on fit's six or so ops of a kind wanders
    less than either sample alone."""
    xs = sorted(xs)
    p = max(1.0 - TAIL_BEYOND / len(xs), 0.75)
    pos = p * (len(xs) - 1)
    k = int(pos)
    hi = xs[min(k + 1, len(xs) - 1)]
    return xs[k] + (pos - k) * (hi - xs[k]), 100.0 * p


def _p50(xs):
    """The mean of the medians of P50_CHUNK consecutive samples.  The host
    switches between a fast and a slow state every few seconds; the median
    of a whole run jumps from one state's latency to the other's as their
    shares cross one half, while this moves with the shares."""
    return statistics.fmean(statistics.median(xs[i:i + P50_CHUNK])
                            for i in range(0, len(xs), P50_CHUNK))


def _geomean(xs):
    return math.exp(statistics.fmean(math.log(x) for x in xs))


def latency_stats(latencies, kinds):
    """op_p50_s and op_tail_s: the geometric mean over op kinds of each kind's
    median and tail.  Kinds differ up to tenfold in cost, so pooled quantiles
    jump between kinds as the op count of a run changes; per-kind ones do not.
    Also returns each kind's n and tail percentile for the run record."""
    per = _per_kind(latencies, kinds)
    p50s = {k: _p50(v) for k, v in per.items()}
    tails = {k: _tail(v) for k, v in per.items()}
    detail = {k: {"n": len(v), "p50_s": p50s[k], "tail_s": tails[k][0],
                  "tail_percentile": tails[k][1]} for k, v in per.items()}
    return (_geomean(p50s.values()), _geomean(t for t, _ in tails.values()), detail)


def _timed_op(w, i, tracer):
    """Run op ``i``, traced if a tracer is given: (seconds, output, error)."""
    if tracer:
        tracer.install()
        tracer.begin_op(i)
    out = err = None
    t0 = perf_counter()
    try:
        out = w.op(i)
    except Exception as exc:  # a failed op is counted, not fatal
        err = f"op {i} ({w.kind(i)}): {type(exc).__name__}: {exc}"
    dt = perf_counter() - t0
    if tracer:
        tracer.end_op(failed=err is not None)
        tracer.uninstall()
    return dt, out, err


def run_loop(w, seconds, min_ops, tracer=None, between=None, calibrate=None):
    """Run ops in order from op 0; stop on a cycle boundary once at least
    ``min_ops`` ran and one more cycle would pass ``seconds``.  With a tracer
    each op runs twice, untraced and traced, the order alternating by op, so
    host drift falls on both passes alike.  ``between(progress)`` runs at each
    cycle boundary with the share of ``seconds`` used so far; its own time is
    not counted.  ``calibrate()`` runs between ops every CAL_EVERY_S and once
    more at the end; its time is counted in ``seconds``."""
    lat, traced_lat, kinds, quality, problems = [], [], [], [], []
    cal_s, cal_at = [], []
    attempted = failed = 0
    start = perf_counter()
    last_cal = -math.inf
    i = 0
    while True:
        if i % w.cycle == 0 and between:
            t0 = perf_counter()
            between((t0 - start) / seconds)
            start += perf_counter() - t0
        if i % w.cycle == 0 and i >= min_ops:
            elapsed = perf_counter() - start
            if elapsed + elapsed / (i // w.cycle) > seconds:
                break
        if calibrate and perf_counter() - last_cal >= CAL_EVERY_S:
            cal_s.append(calibrate())
            cal_at.append(i)
            last_cal = perf_counter()
        passes = (None,) if tracer is None else (None, tracer)[:: 1 if i % 2 == 0 else -1]
        for t in passes:
            dt, out, err = _timed_op(w, i, t)
            (traced_lat if t else lat).append(dt)
            attempted += 1
            found = [err] if err else [f"op {i} ({w.kind(i)}): {p}" for p in w.check(i, out)]
            if found:
                failed += 1
                problems.extend(found)
            elif t is None and i < w.quality_ops:
                quality.append(w.quality(i, out))
        kinds.append(w.kind(i))
        i += 1
    if calibrate:
        cal_s.append(calibrate())
        cal_at.append(i)
    return {"latencies": lat, "traced_latencies": traced_lat, "kinds": kinds,
            "attempted": attempted, "failed": failed, "problems": problems,
            "quality": quality, "cal_s": cal_s, "cal_at": cal_at}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("fit", "lattice", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = p.parse_args(argv)

    if not (SRC / "fdecanc" / "__init__.py").is_file():
        print(f"error: no fdecanc sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import numpy as np

    import fdecanc
    import workloads
    from tracing import COVERAGE_TOL, Tracer

    if Path(fdecanc.__file__).resolve().parent != (SRC / "fdecanc").resolve():
        print(f"error: imported fdecanc from {fdecanc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    size = workloads.TINY if args.smoke else workloads.FULL
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    problems = []
    try:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        setup_times = []  # (reference, unscaled) seconds of each cold set-up
        if not workloads.distinct_seed_guard(args.seed):
            problems.append("seeds give identical channels")
        # The run's own set-up, untimed; traced in a traced run.
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            w = workloads.setup_workload(args.workload, args.seed, size, str(workdir), tracer)
        finally:
            if tracer:
                tracer.uninstall()

        if tracer:
            loop = run_loop(w, args.seconds, w.cycle, tracer)
            tracer.write(OUT / f"spans-{args.workload}-{args.seed}.csv")
            values, coverage = tracer.metrics()
            values["trace.overhead_frac"] = statistics.median(
                t / u for u, t in zip(loop["latencies"], loop["traced_latencies"])) - 1.0
            values["trace.coverage"] = coverage
            if args.workload in ("fit", "lattice") and not coverage >= 1.0 - COVERAGE_TOL:
                problems.append(f"trace coverage {coverage:.4f} below {1 - COVERAGE_TOL}")
        else:
            calibrate = make_calibration(args.workload)

            def cold_setups(progress):
                # Spread over the run, the set-ups meet the same host speed as
                # the ops; back to back they all met the speed of one moment.
                while len(setup_times) < SETUP_REPS and progress >= len(setup_times) / SETUP_REPS:
                    setup_times.append(_setup_seconds(
                        args.workload, args.seed, args.smoke,
                        workdir / f"setup-{len(setup_times)}", calibrate))

            loop = run_loop(w, args.seconds, max(w.quality_ops, w.cycle),
                            between=cold_setups, calibrate=calibrate)
            cold_setups(1.0)
            raw_lat = loop["latencies"]
            factors = host_factors(loop["cal_s"], loop["cal_at"], len(raw_lat))
            ref_lat = [t * f for t, f in zip(raw_lat, factors)]
            p50, tail, per_kind = latency_stats(ref_lat, loop["kinds"])
            raw_p50, raw_tail, _ = latency_stats(raw_lat, loop["kinds"])
            unscaled = {
                "setup_s": statistics.median(raw for _, raw in setup_times),
                "ops_per_s": len(raw_lat) / sum(raw_lat),
                "op_p50_s": raw_p50,
                "op_tail_s": raw_tail,
            }
            quality = w.run_quality(loop["quality"])
            values = {
                "setup_s": statistics.median(ref for ref, _ in setup_times),
                "ops_per_s": len(ref_lat) / sum(ref_lat),
                "op_p50_s": p50,
                "op_tail_s": tail,
                "sic_db": statistics.fmean(q[0] for q in quality) if quality else math.nan,
                "residual_db": statistics.fmean(q[1] for q in quality) if quality else math.nan,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        problems.extend(w.final_checks())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = loop["attempted"], loop["failed"]
    problems.extend(loop["problems"])
    units = {m["name"]: m["unit"] for m in _spec()["end_to_end" if not args.trace else "per_layer"]}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "commit": _commit(), "src_sha256": _src_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "params": {name: cls(args.seed, size, "").params()
                   for name, cls in workloads.WORKLOADS.items()},
        "setup_reps_s": {"reference": [ref for ref, _ in setup_times],
                         "unscaled": [raw for _, raw in setup_times]},
        "failed_frac": failed / attempted,
        "problems": problems[:20],
    }
    if not args.trace:
        record.update(ops=len(raw_lat), per_kind=per_kind, unscaled=unscaled, host_factor={
            "median": statistics.median(factors), "min": min(factors), "max": max(factors),
            "calibrations": len(loop["cal_s"]),
            "calibration_s": statistics.median(loop["cal_s"]),
        })
        with open(OUT / f"ops-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"kinds": loop["kinds"], "latencies_s": raw_lat,
                       "host_factors": factors}, fh)
    print(json.dumps({"record": record}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
