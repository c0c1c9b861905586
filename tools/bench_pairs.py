"""Paired benchmark runs of two commits, alternating which side runs first.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload tail-halfspace --seed 1 --out BENCH_7.json

Each side is extracted with ``git archive`` into a temporary directory, so
both run their own committed ``bench/`` and ``src/``. Each of the 10 pairs
per workload runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

once in each tree with the same arguments, T being the parent's
BENCHMARK.json ``run_seconds``, the parent first in even pairs and the
change first in odd ones. The output file holds each run's end-to-end
metrics and, per workload and gated metric of BENCHMARK.json, each side's
median and quartiles, the share of pairs the change won (ties count for
neither), whether that is a gain and how the change stands against the
metric's regression bound (see ``summarize``). Under ``quality`` it holds
the same figures, marked ungated and without a bound, for the estimator
quality metrics that every run of the workload stored (``QUALITY``). Runs
are sequential, one process at a time.

    python3 tools/bench_pairs.py --rescore BENCH_15.json --out FILE

runs nothing: it writes FILE with the stored runs of an earlier output and
their summaries recomputed by this version, against the metrics and bounds
of the working tree's BENCHMARK.json.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
# Estimator quality that bench/run.py stores for run workloads (null for
# fit ones). No bound gates them; a speed-up should not cost them.
QUALITY = [{"name": "rel_stderr", "unit": "ratio", "better": "lower"},
           {"name": "rel_err", "unit": "ratio", "better": "lower"},
           {"name": "work_norm_var", "unit": "s", "better": "lower"},
           {"name": "crude_speedup", "unit": "ratio", "better": "higher"}]


def _git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True).stdout


def extract(rev, dest):
    """The tree of rev, as git archive gives it, in dest; returns its object id."""
    tar = tarfile.open(fileobj=io.BytesIO(_git("archive", rev)))
    tar.extractall(dest, filter="data")
    return _git("rev-parse", rev).decode().strip()


def run_once(tree, workload, seed, seconds):
    """One bench/run.py process in tree; returns its full report."""
    report_path = os.path.join(tree, "bench-report.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0", "--out",
         report_path], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError("bench/run.py in %s exited %d:\n%s"
                           % (tree, proc.returncode, proc.stderr))
    with open(report_path) as fh:
        report = json.load(fh)
    os.remove(report_path)
    return {"attempted": report["attempted"], "failed": report["failed"],
            "metrics": report["end_to_end"]}


def _spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def _failed_share(runs):
    return sum(r["failed"] for r in runs) / max(sum(r["attempted"] for r in runs), 1)


def summarize(parent_runs, change_runs, metric):
    """Medians, quartiles, pairs won and the gain and bound checks of one metric.

    ``gain``: at least 10 pairs, at least 9 in 10 won, the change's median
    better than the parent's by more than the parent's quartile spread, and
    no larger share of failed ops than the parent's. ``bound_check``:
    "unresolved" when the parent's quartile spread over its median exceeds
    the bound, unless every change run is better than every parent run;
    otherwise
    "within" or "beyond" by how much worse the change's median is. A metric
    without a bound is marked ``ungated`` and gets no bound check.
    """
    name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
    p = [r["metrics"][name] for r in parent_runs]
    c = [r["metrics"][name] for r in change_runs]
    won = sum(sign * (a - b) > 0 for a, b in zip(p, c))
    ps, cs = _spread(p), _spread(c)
    iqr = ps["q3"] - ps["q1"]
    out = {"unit": metric["unit"], "better": metric["better"],
           "parent": ps, "change": cs,
           "change_over_parent": cs["median"] / ps["median"],
           "pairs_won": won, "pairs": len(p), "share_won": won / len(p),
           "gain": (len(p) >= PAIRS and won >= 0.9 * len(p)
                    and sign * (ps["median"] - cs["median"]) > iqr
                    and _failed_share(change_runs) <= _failed_share(parent_runs))}
    bound = metric.get("bound")
    if bound is None:
        return dict(out, ungated=True)
    if (iqr / ps["median"] > bound
            and max(sign * v for v in c) >= min(sign * v for v in p)):
        check = "unresolved"
    else:
        worse_by = sign * (cs["median"] / ps["median"] - 1)
        check = "within" if worse_by <= bound else "beyond"
    return dict(out, bound=bound, bound_check=check)


def summarize_workload(runs, end_to_end):
    """``summary`` of the gated metrics; ``quality`` of the QUALITY metrics
    that every run stored."""
    both = runs["parent"] + runs["change"]
    stored = [m for m in QUALITY
              if all(r["metrics"].get(m["name"]) is not None for r in both)]
    return {"summary": {m["name"]: summarize(runs["parent"], runs["change"], m)
                        for m in end_to_end},
            "quality": {m["name"]: summarize(runs["parent"], runs["change"], m)
                        for m in stored}}


def _write(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="git tree-ish")
    ap.add_argument("--change", default="HEAD", help="git tree-ish")
    ap.add_argument("--workload", action="append", default=None,
                    help="repeatable; default: every workload BENCHMARK.json "
                         "lists")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rescore", metavar="FILE",
                    help="summarize FILE's stored runs again; run nothing")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    if args.rescore:
        with open(args.rescore) as fh:
            doc = json.load(fh)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            end_to_end = json.load(fh)["end_to_end"]
        for w in doc["workloads"].values():
            w.update(summarize_workload(w["runs"], end_to_end))
        _write(doc, args.out)
        return 0
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees, revs = {}, {}
        for side in ("parent", "change"):
            trees[side] = os.path.join(tmp, side)
            revs[side] = extract(getattr(args, side), trees[side])
        with open(os.path.join(trees["parent"], "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        seconds = spec["run_seconds"]
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        doc = {"parent": {"rev": args.parent, "object": revs["parent"]},
               "change": {"rev": args.change, "object": revs["change"]},
               "command": "python3 bench/run.py --workload W --seed %d "
                          "--seconds %g --trace 0" % (args.seed, seconds),
               "machine": {"cpus": os.cpu_count(),
                           "python": platform.python_version(),
                           "platform": platform.platform()},
               "workloads": {}}
        for w in workloads:
            runs = {"parent": [], "change": []}
            for k in range(PAIRS):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(trees[side], w, args.seed,
                                               seconds))
                print("%s pair %d: op_p50_ref parent %.3f change %.3f"
                      % (w, k, runs["parent"][-1]["metrics"]["op_p50_ref"],
                         runs["change"][-1]["metrics"]["op_p50_ref"]),
                      file=sys.stderr, flush=True)
            doc["workloads"][w] = dict(
                summarize_workload(runs, spec["end_to_end"]), runs=runs)
    _write(doc, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
