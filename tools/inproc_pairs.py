"""Paired op timings of two commits in one process, alternating op by op.

Usage, from the repository root:

    python3 tools/inproc_pairs.py --parent HEAD~1 --change HEAD \\
        --workload lanechange-cutin --ops 40 [--seed 0]

Both trees are extracted with ``bench_pairs.extract``. Each tree's
``src/rareis`` is imported under its own package name (``rareis_parent``,
``rareis_change``), and each tree's own ``bench/workloads.py`` builds the
workload's set-up in a work directory of its own. After one untimed op per
tree, op i of each tree runs through its ``cli.main``, the parent first for
even i and the change first for odd i, for i = 0 .. ``--ops`` - 1, cycling
through the workload's ops. Each call is timed with ``perf_counter`` and its
minor page faults are counted with ``getrusage`` (``ru_minflt``). BLAS runs
at one thread, as in ``bench/run.py``.

Printed: the median over ops of the paired ratio change time / parent
time, its quartiles, the number of ops the change ran faster, each side's
mean ``ru_minflt`` per op and how many ops exited non-zero. Both trees
share one heap, so page faults that either tree takes alone in a fresh
process can vanish here; and it is no substitute for
``tools/bench_pairs.py``, whose runs are what the benchmark gates.
"""

import argparse
import contextlib
import importlib.util
import io
import os
import resource
import statistics
import sys
import tempfile
import time

from bench_pairs import extract

SIDES = ("parent", "change")


def load_package(src, name):
    """Imports src/rareis, and its cli, as the package name; returns it."""
    init = os.path.join(src, "rareis", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(name + ".cli")
    return package


def load_module(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_op(cli, args):
    """(seconds, minor page faults, exit code) of one in-process CLI call."""
    sink = io.StringIO()
    code = 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rv = cli.main(args, standalone_mode=False)
        code = rv if isinstance(rv, int) else 0
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else 1
    except Exception as err:  # click's own errors carry an exit code
        code = getattr(err, "exit_code", 1)
    seconds = time.perf_counter() - t0
    return (seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults,
            code)


def summarize(parent_s, change_s, parent_minflt, change_minflt):
    """The paired figures of per-op times and page-fault counts.

    ratio: the median, and the quartiles, of change_s[i] / parent_s[i].
    won: the ops whose change time is strictly below the parent's.
    minflt: each side's mean page faults per op.
    """
    if len(parent_s) != len(change_s) or len(parent_s) < 2:
        raise ValueError("want at least 2 ops with a time on each side")
    ratios = [c / p for p, c in zip(parent_s, change_s)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"ops": len(ratios), "ratio": median, "q1": q1, "q3": q3,
            "won": sum(c < p for p, c in zip(parent_s, change_s)),
            "minflt": {"parent": statistics.fmean(parent_minflt),
                       "change": statistics.fmean(change_minflt)}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="git tree-ish")
    ap.add_argument("--change", default="HEAD", help="git tree-ish")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--ops", type=int, required=True,
                    help="timed ops per tree, at least 2")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.ops < 2:
        ap.error("--ops must be at least 2")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before either tree imports numpy

    with tempfile.TemporaryDirectory(prefix="inproc-pairs-") as tmp:
        clis, ops = {}, {}
        for side in SIDES:
            tree = os.path.join(tmp, side)
            extract(getattr(args, side), tree)
            package = load_package(os.path.join(tree, "src"), "rareis_" + side)
            workloads = load_module(os.path.join(tree, "bench", "workloads.py"),
                                    "workloads_" + side)
            work = os.path.join(tmp, "work-" + side)
            os.makedirs(work)
            clis[side] = package.cli
            ops[side] = workloads.SETUPS[args.workload](args.seed, work,
                                                        package.cli.main).ops
            run_op(clis[side], ops[side][0].args)  # warm-up, untimed
        seconds = {side: [] for side in SIDES}
        faults = {side: [] for side in SIDES}
        failed = {side: 0 for side in SIDES}
        for i in range(args.ops):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                s, f, code = run_op(clis[side],
                                    ops[side][i % len(ops[side])].args)
                seconds[side].append(s)
                faults[side].append(f)
                failed[side] += code != 0
    s = summarize(seconds["parent"], seconds["change"], faults["parent"],
                  faults["change"])
    print("%s: %d ops, median ratio change/parent %.3f (quartiles %.3f-%.3f), "
          "change faster on %d" % (args.workload, s["ops"], s["ratio"], s["q1"],
                                   s["q3"], s["won"]))
    print("ru_minflt per op: parent %.1f, change %.1f"
          % (s["minflt"]["parent"], s["minflt"]["change"]))
    print("ops exiting non-zero: parent %d, change %d"
          % (failed["parent"], failed["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
