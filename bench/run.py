"""The rareis benchmark: CLI workloads timed end to end, and per layer when traced.

Usage, from the repository root:

    python3 bench/run.py --workload tail-halfspace --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20 --trace 1 --out results.json

Each op is one ``rareis.cli.main([...], standalone_mode=False)`` call, the
entry point the ``rareis`` command runs, made in this process one after
another (a closed loop with one client). Inputs come from ``--seed`` alone.
With ``--trace 0`` ops run for ``--seconds`` with no instrumentation and the
end-to-end metrics are reported. With ``--trace 1`` the first half of the
time runs untraced and the second half with spans around each layer's public
functions, and the per-layer metrics are reported. Either way the last line
of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(BENCH_DIR, ".work")

# Gated metrics, in BENCHMARK.json's order: every workload reports each one.
END_TO_END = [("setup_s", "s"), ("op_p50_ref", "ref"), ("peak_rss_mb", "MB")]

# Reported alongside, where they apply (null elsewhere), and in --out files.
REPORTED = [("op_p50_s", "s"), ("ref_p50_s", "s"),
            ("ops_failed_share", "ratio"), ("evals_per_s", "1/s"),
            ("rel_err", "ratio"), ("rel_stderr", "ratio"),
            ("work_norm_var", "s"), ("crude_speedup", "ratio"),
            ("fit_iters", "count")]

_CALLS_SELF = ["gauss.rect_prob", "gauss.trunc_moments",
               "gauss.sample_truncated", "tgmm.fit", "tgmm.em_step",
               "tgmm.responsibilities", "tgmm.gmm_log_density",
               "frontier.insert", "frontier.outer_pieces",
               "dompoints.solve_piece", "accel.run_procedure",
               "accel.estimate", "accel.build_is", "accel.sample_is",
               "accel.likelihood_ratio", "accel.apply_indicator",
               "scenario.simulate"]
PER_LAYER = ([(n + ".calls", "count") for n in _CALLS_SELF]
             + [(n + ".self_s", "s") for n in _CALLS_SELF]
             + [("dompoints.inner_dominating.self_s", "s"),
                ("dompoints.outer_dominating.self_s", "s"),
                ("cli.run.self_s", "s"), ("cli.fit.self_s", "s"),
                ("gauss.sample_truncated.accept_ratio", "ratio"),
                ("frontier.insert.kept_ratio", "ratio"),
                ("frontier.outer_pieces.corners", "count"),
                ("frontier.outer_pieces.truncated", "count"),
                ("frontier.outer_pieces.failed", "count"),
                ("dompoints.solve_piece.max_kkt", "1"),
                ("accel.hit_ratio", "ratio"), ("accel.ess_ratio", "ratio"),
                ("accel.max_weight_share", "ratio"),
                ("scenario.simulate.crash_ratio", "ratio"),
                ("cli.out_bytes", "B"), ("trace.overhead_s", "s")])

WORKLOADS = ["fit-lanechange", "tail-halfspace", "tail-trunc", "lanechange",
             "lanechange-cutin", "tail-halfspace-d5"]
SETUP_REPEATS = 5


def _one_thread():
    """One BLAS/OpenMP thread, like the reference job that ops are divided by.

    The ops' matrices are 3 x 3 up to 1e5 x 3; a second thread made no op
    faster and doubled its CPU time.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def reference_s():
    """Seconds a fixed numpy and Python job takes now.

    Each op's time is divided by this job's time, measured after it (see
    reference_after). The job mixes what the ops do: numpy calls on small
    arrays in a Python loop, special functions on 1e5 x 3 draws, and CSV formatting. It does not
    use rareis, so it moves only with the speed of the machine, which on a
    shared host drifts by about 10% from one minute to the next.
    """
    import numpy as np
    from scipy.special import ndtr, ndtri
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    front = np.empty((0, 3))
    for x in rng.standard_normal((1500, 3)):
        keep = ~np.all(front >= x, axis=1)
        front = np.vstack([front[keep], x])[-50:]
    draws = rng.standard_normal((100000, 3))
    for _ in range(3):
        ndtri(np.clip(ndtr(draws @ np.eye(3)), 1e-12, 1 - 1e-12))
    w = csv.writer(io.StringIO())
    for v in draws[:15000, 0]:
        w.writerow([repr(float(v))])
    return time.perf_counter() - t0


# Share of an op's time spent on reference jobs after it, at least one job.
REF_SHARE = 0.06


def reference_after(op_s):
    """Median reference time over jobs run until they took REF_SHARE of op_s.

    One job lasts about 0.1 s and varies by 15% from one job to the next, so
    one job per op made the ratio noisier than the op time itself on a fit
    op of 8 s. Over 27 such ops on a 2-vCPU VM, the medians of four
    consecutive ratios varied with a coefficient of variation of 8.6% with
    one job per op and of 3.2% with the median of four.
    """
    times = [reference_s()]
    while sum(times) < REF_SHARE * op_s:
        times.append(reference_s())
    return statistics.median(times)


_IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                 "sys.path.insert(0, sys.argv[1]); import rareis.cli; "
                 "print(time.perf_counter() - t)")


def import_s():
    """Median over SETUP_REPEATS fresh interpreters of the time to import rareis."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                              stdout=subprocess.PIPE, text=True, check=True,
                              timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def _import_rareis():
    """Imports rareis from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "rareis", "__init__.py")):
        raise ImportError("no rareis sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import rareis.cli
    if not os.path.abspath(rareis.__file__).startswith(SRC + os.sep):
        raise ImportError("rareis was imported from %s" % rareis.__file__)
    return rareis


class OpRecord:
    def __init__(self, op_s, exit_code, reason, quality, out_bytes, layers):
        self.op_s = op_s
        self.ref_s = None             # reference job time, from reference_after
        self.exit_code = exit_code
        self.reason = reason          # None when the op passed every check
        self.quality = quality
        self.out_bytes = out_bytes
        self.layers = layers          # (calls, self_s, values) when traced


def _dir_bytes(path):
    total = 0
    for base, _, names in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, n)) for n in names)
    return total


def run_op(op, rareis, workloads, tracer=None):
    """One CLI call, timed; then its outputs are checked (untimed)."""
    import click
    shutil.rmtree(op.out_dir, ignore_errors=True)
    captured = io.StringIO()
    exit_code, error = 0, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), \
                contextlib.redirect_stderr(captured):
            rv = rareis.cli.main(op.args, standalone_mode=False)
        if isinstance(rv, int):
            exit_code = rv
    except SystemExit as err:
        exit_code = err.code if isinstance(err.code, int) else 1
    except click.ClickException as err:
        exit_code = err.exit_code
    except Exception as err:  # an uncaught error is a failed op, not a stop
        exit_code, error = 1, "%s: %s" % (type(err).__name__, err)
    op_s = time.perf_counter() - t0
    layers = tracer.take() if tracer is not None else None
    quality = {}
    if exit_code != 0:
        lines = captured.getvalue().strip().splitlines()
        reason = "exit %d: %s" % (exit_code,
                                  (error or (lines[-1] if lines else ""))[:160])
    else:
        try:
            reason, quality = workloads.check(op, rareis.tgmm)
        except (OSError, ValueError, KeyError) as err:
            reason = "unreadable output: %s" % err
    return OpRecord(op_s, exit_code, reason, quality,
                    _dir_bytes(op.out_dir), layers)


def run_loop(inputs, seconds, rareis, workloads, tracer=None):
    records = []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        op = inputs.ops[len(records) % len(inputs.ops)]
        records.append(run_op(op, rareis, workloads, tracer))
        records[-1].ref_s = reference_after(records[-1].op_s)
    return records


def _median(values):
    return statistics.median(values) if values else None


def _tail_percentile(times):
    """(label, value) of the highest percentile with >= 10 samples beyond it."""
    for pct in (99, 90):
        if len(times) * (100 - pct) / 100 >= 10:
            return "op_p%d_s" % pct, statistics.quantiles(times, n=100)[pct - 1]
    return None


def end_to_end(records, setup_s, kind):
    """Every end-to-end metric (None where it does not apply) and sample counts."""
    ok = [r for r in records if r.reason is None]
    times = [r.op_s for r in ok]
    m = {"setup_s": setup_s, "op_p50_s": _median(times),
         "op_p50_ref": _median([r.op_s / r.ref_s for r in ok]),
         "ref_p50_s": _median([r.ref_s for r in records]),
         "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
         "ops_failed_share": (len(records) - len(ok)) / len(records)}
    q = [r.quality for r in ok]
    if kind == "run":
        m["evals_per_s"] = (sum(r.quality.get("evals", 0) for r in records)
                            / sum(r.op_s for r in records))
        rel_se = [x["stderr"] / x["p_hat"] for x in q]
        m["rel_err"] = _median([abs(x["p_hat"] / x["truth"] - 1) for x in q
                                if x.get("truth")])
        m["rel_stderr"] = _median(rel_se)
        m["work_norm_var"] = _median([r.op_s * s ** 2
                                      for r, s in zip(ok, rel_se)])
        m["crude_speedup"] = _median([x["crude_equiv_n"] / x["evals"] for x in q])
    if kind == "fit":
        m["fit_iters"] = _median([x["fit_iters"] for x in q])
    counts = {"setup_s": SETUP_REPEATS, "op_p50_s": len(times),
              "op_p50_ref": len(times), "ref_p50_s": len(records)}
    tail = _tail_percentile(times)
    if tail:
        m[tail[0]] = tail[1]
        counts[tail[0]] = len(times)
    return m, counts


def per_layer(traced, untraced):
    """Per-op means of span counts and self times, plus layer ratios."""
    n = len(traced)
    calls, self_s, values = {}, {}, {}
    for rec in traced:
        c, s, v = rec.layers
        for src, dst in ((c, calls), (s, self_s), (v, values)):
            for k, x in src.items():
                dst[k] = (max(dst.get(k, 0.0), x) if k.endswith("max_kkt")
                          else dst.get(k, 0.0) + x)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in _CALLS_SELF:
        m[name + ".calls"] = calls.get(name, 0) / n
        m[name + ".self_s"] = self_s.get(name, 0.0) / n
    for name in ("dompoints.inner_dominating", "dompoints.outer_dominating",
                 "cli.run", "cli.fit"):
        m[name + ".self_s"] = self_s.get(name, 0.0) / n
    m["gauss.sample_truncated.accept_ratio"] = ratio(
        values.get("gauss.sample_truncated.accepted", 0),
        values.get("gauss.sample_truncated.drawn", 0))
    m["frontier.insert.kept_ratio"] = ratio(values.get("frontier.insert.kept", 0),
                                            calls.get("frontier.insert", 0))
    for k in ("corners", "truncated", "failed"):
        m["frontier.outer_pieces." + k] = values.get(
            "frontier.outer_pieces." + k, 0) / n
    m["dompoints.solve_piece.max_kkt"] = values.get(
        "dompoints.solve_piece.max_kkt", 0.0)
    with_values = values.get("accel.estimate.values", 0)
    for k in ("hit_ratio", "ess_ratio", "max_weight_share"):
        m["accel." + k] = ratio(values.get("accel." + k, 0.0), with_values)
    m["scenario.simulate.crash_ratio"] = ratio(
        values.get("scenario.simulate.crashes", 0),
        calls.get("scenario.simulate", 0))
    m["cli.out_bytes"] = sum(r.out_bytes for r in traced) / n
    # Compared in reference units, so that drift in the machine's speed
    # between the two halves does not count as overhead.
    p_traced = _median([r.op_s / r.ref_s for r in traced if r.reason is None])
    p_plain = _median([r.op_s / r.ref_s for r in untraced if r.reason is None])
    ref_s = _median([r.ref_s for r in untraced + traced])
    m["trace.overhead_s"] = (None if p_traced is None or p_plain is None
                             else (p_traced - p_plain) * ref_s)
    return m


def _failures(records):
    """Failure reasons with their counts, most frequent first."""
    seen = {}
    for r in records:
        if r.reason is not None:
            seen[r.reason] = seen.get(r.reason, 0) + 1
    return sorted(seen.items(), key=lambda kv: -kv[1])


def _print_table(title, metrics, units, counts):
    print(title)
    for name, unit in units:
        value = metrics.get(name)
        text = "null" if value is None else "%.6g" % value
        n = counts.get(name)
        print("  %-40s %14s %-6s%s" % (name, text, unit,
                                        "" if n is None else "  (n=%d)" % n))


def run_workload(name, seed, seconds, trace):
    """Runs one workload in this process; returns (result line, full report)."""
    _one_thread()
    rareis = _import_rareis()
    import workloads
    setup_import_s = import_s()

    work = os.path.join(WORK_ROOT, "%d" % os.getpid())
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            t = time.perf_counter()
            inputs = workloads.SETUPS[name](seed, work, rareis.cli.main)
            setup_times.append(time.perf_counter() - t)
        setup_s = setup_import_s + statistics.median(setup_times)
        kind = inputs.ops[0].kind

        if trace:
            untraced = run_loop(inputs, seconds / 2, rareis, workloads)
            from spans import Tracer
            tracer = Tracer()
            with tracer.installed("rareis"):
                traced = run_loop(inputs, seconds / 2, rareis, workloads, tracer)
            records = untraced + traced
        else:
            records = run_loop(inputs, seconds, rareis, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e, counts = end_to_end(untraced if trace else records, setup_s, kind)
    failed = sum(r.reason is not None for r in records)
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "attempted": len(records), "failed": failed,
              "failures": _failures(records), "end_to_end": e2e,
              "samples": counts}
    print("workload %s  seed %d  ops %d  failed %d" % (name, seed, len(records),
                                                        failed))
    for reason, n in report["failures"]:
        print("  failed x%d: %s" % (n, reason))
    units = END_TO_END + REPORTED + [(k, "s") for k in counts
                                     if k.startswith("op_p9")]
    _print_table("end to end%s:" % (" (untraced half)" if trace else ""),
                 e2e, units, counts)
    if trace:
        layers = per_layer(traced, untraced)
        report["per_layer"] = layers
        report["samples"]["per_layer_ops"] = len(traced)
        _print_table("per layer (per-op means over %d traced ops):"
                     % len(traced), layers, PER_LAYER, {})
        chosen = PER_LAYER
        source = layers
    else:
        chosen = END_TO_END
        source = e2e
    line = {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {k: {"value": source[k], "unit": u} for k, u in chosen}}
    return line, report


def run_all(seed, seconds, trace):
    """Each workload in its own process, so memory and imports stay separate."""
    reports, lines = {}, {}
    os.makedirs(WORK_ROOT, exist_ok=True)
    for name in WORKLOADS:
        path = os.path.join(WORK_ROOT, "all-%d-%s.json" % (os.getpid(), name))
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace",
             str(trace), "--out", path],
            stdout=subprocess.PIPE, text=True, check=False)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]), flush=True)
        if proc.returncode != 0 or not out:
            raise RuntimeError("workload %s exited %d" % (name, proc.returncode))
        lines[name] = json.loads(out[-1])
        with open(path) as fh:
            reports[name] = json.load(fh)
        os.remove(path)
    line = {"correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "workloads": lines}
    return line, {"workloads": reports}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None,
                   help="also write every metric, nulls included, to this file")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        if args.workload == "all":
            line, report = run_all(args.seed, args.seconds, args.trace)
        else:
            line, report = run_workload(args.workload, args.seed, args.seconds,
                                        args.trace)
    except ImportError as err:
        print("bench: cannot import the program under test: %s" % err,
              file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
