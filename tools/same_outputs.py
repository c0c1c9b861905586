"""Comparison and paired op timing of two commits on one bench workload or all.

Usage, from the repository root:

    python3 tools/same_outputs.py --parent HEAD~1 --change HEAD \\
        --workload tail-halfspace --ops 6 --seed 0 [--rtol 1e-12]

``--workload all`` runs every workload of the change tree's
``bench/workloads.py`` SETUPS, one after another.

Both trees are extracted with ``bench_pairs.extract`` and run in this
process, at one BLAS thread. Each tree's ``src/rareis`` and
``bench/workloads.py`` are imported once, under names suffixed by a hash of
the tree's path. Each tree's own workloads module and CLI build the
workload's ops and set-up files for ``--seed`` in a work directory of that
tree's own. A set-up file whose bytes differ between the trees, or that only
one tree writes, is reported as ``setup differs: <file>``.

After one untimed op per tree, op i of each tree runs through the tree's
``cli.main``, for i = 0 .. ``--ops`` - 1, cycling through the workload's ops,
the parent first for even i and the change first for odd i; each side
writes to an output directory of its own. CLI arguments, with each tree's
work directory taken out, exit codes and every output file except
``manifest.json`` (which records wall-clock time) are compared. Files must
be byte-identical, except that with ``--rtol R`` a ``.json`` or ``.csv``
file may differ in its numbers, each by at most R relative, as long as its
other text is identical; such a file is named in the op's line with its
largest relative difference. One line is printed per set-up difference and
per op, and the exit status is 1 if anything differs in any workload.

Each call is timed with ``perf_counter``. With ``--ops`` at least 2, a last
line per workload gives the median over ops of the paired ratio change
time / parent time, its quartiles and the number of ops the change ran
faster. The timing is no substitute for ``tools/bench_pairs.py``, whose
runs are what the benchmark gates.
"""

import argparse
import contextlib
import filecmp
import functools
import hashlib
import importlib
import importlib.util
import io
import os
import re
import shutil
import statistics
import sys
import tempfile
import time

from bench_pairs import extract

SIDES = ("parent", "change")
IGNORED = {"manifest.json"}
NUMERIC = (".json", ".csv")
# A decimal number; the capturing group makes re.split keep the numbers.
_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


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


@functools.lru_cache(maxsize=None)
def _load(tree):
    """(cli module, workloads module) of tree, imported once per process."""
    tag = hashlib.sha256(os.path.abspath(tree).encode()).hexdigest()[:16]
    package = load_package(os.path.join(tree, "src"), "rareis_" + tag)
    workloads = load_module(os.path.join(tree, "bench", "workloads.py"),
                            "workloads_" + tag)
    return package.cli, workloads


def run_op(cli, args):
    """(seconds, exit code) of one in-process CLI call."""
    sink = io.StringIO()
    code = 0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rv = cli.main(args, standalone_mode=False)
        code = rv if isinstance(rv, int) else 0
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else 1
    except Exception as err:  # click's own errors carry an exit code
        code = getattr(err, "exit_code", 1)
    return time.perf_counter() - t0, code


def summarize(parent_s, change_s):
    """The paired figures of per-op times.

    ratio: the median, and the quartiles, of change_s[i] / parent_s[i].
    won: the ops whose change time is strictly below the parent's.
    """
    if len(parent_s) != len(change_s) or len(parent_s) < 2:
        raise ValueError("want at least 2 ops with a time on each side")
    ratios = [c / p for p, c in zip(parent_s, change_s)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"ops": len(ratios), "ratio": median, "q1": q1, "q3": q3,
            "won": sum(c < p for p, c in zip(parent_s, change_s))}


def _files(root):
    """Paths of the files under root, relative to it; empty if root is absent."""
    out = set()
    for base, _, names in os.walk(root):
        out.update(os.path.relpath(os.path.join(base, n), root) for n in names
                   if n not in IGNORED)
    return out


def relative_difference(text_a, text_b):
    """The largest relative difference between the numbers of two texts, or
    None unless they have the same numbers of numbers and identical text
    between them."""
    parts_a, parts_b = _NUMBER.split(text_a), _NUMBER.split(text_b)
    if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
        return None
    worst = 0.0
    for a, b in zip(map(float, parts_a[1::2]), map(float, parts_b[1::2])):
        if a != b:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


def _compare(dir_a, dir_b, rtol=0.0):
    """(name, how, close) of each file whose bytes differ between two
    directory trees or that one of them lacks; close when, with rtol > 0,
    only its numbers differ, each by at most rtol relative."""
    files_a, files_b = _files(dir_a), _files(dir_b)
    out = []
    for name in sorted(files_a | files_b):
        if name not in files_b:
            out.append((name, "only in the first", False))
        elif name not in files_a:
            out.append((name, "only in the second", False))
        elif not filecmp.cmp(os.path.join(dir_a, name), os.path.join(dir_b, name),
                             shallow=False):
            rel = None
            if name.endswith(NUMERIC):
                with open(os.path.join(dir_a, name)) as fa, \
                        open(os.path.join(dir_b, name)) as fb:
                    rel = relative_difference(fa.read(), fb.read())
            if rel is None:
                out.append((name, "differs", False))
            else:
                out.append((name, "max relative difference %.2g" % rel,
                            0 < rtol and rel <= rtol))
    return out


def differences(dir_a, exit_a, dir_b, exit_b, rtol=0.0):
    """(what differs, what moved within rtol) between two runs of one op:
    exit codes and output files, whose .json and .csv numbers may move by
    at most rtol relative; one _compare of the two directories serves both."""
    out = [] if exit_a == exit_b else ["exit %d vs %d" % (exit_a, exit_b)]
    found = _compare(dir_a, dir_b, rtol)
    return (out + ["%s %s" % (name, how) for name, how, close in found if not close],
            ["%s %s" % (name, how) for name, how, close in found if close])


def setup_differences(dir_a, dir_b):
    """One line per set-up file whose bytes differ or that one side lacks."""
    return ["setup differs: %s" % name for name, _, _ in _compare(dir_a, dir_b)]


def build_setup(tree, workload, seed, work, keep):
    """The workload's ops that tree's bench/workloads.py builds in work;
    copies the set-up files it lists into keep."""
    cli, workloads = _load(tree)
    inputs = workloads.SETUPS[workload](seed, work, cli.main)
    for path in inputs.files:
        name = os.path.relpath(path, work)
        os.makedirs(os.path.dirname(os.path.join(keep, name)), exist_ok=True)
        shutil.copyfile(path, os.path.join(keep, name))
    return inputs.ops


def workload_names(tree):
    """The names of tree's bench workloads, in SETUPS order."""
    return list(_load(tree)[1].SETUPS)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="git tree-ish")
    ap.add_argument("--change", default="HEAD", help="git tree-ish")
    ap.add_argument("--workload", required=True,
                    help='a workload name, or "all" for every workload')
    ap.add_argument("--ops", type=int, required=True,
                    help="paired ops per workload, cycling through its ops")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rtol", type=float, default=0.0,
                    help="relative tolerance for numbers in .json and .csv "
                         "outputs; 0 requires identical bytes")
    args = ap.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before either tree imports numpy

    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        trees = {}
        for side in SIDES:
            trees[side] = os.path.join(tmp, side)
            extract(getattr(args, side), trees[side])
        different = compare_workloads(trees, args.workload, args.seed, args.ops,
                                      tmp, args.rtol)
    return 1 if different else 0


def compare_workloads(trees, workload, seed, n_ops, tmp, rtol=0.0):
    """compare on workload, or with "all" on each workload of the change
    tree in turn, each in its own subdirectory of tmp; returns how many
    lines report a difference."""
    names = workload_names(trees["change"]) if workload == "all" else [workload]
    return sum(compare(trees, name, seed, n_ops, os.path.join(tmp, name), rtol)
               for name in names)


def _args(op, out_dir):
    """op's CLI arguments, writing to out_dir."""
    return [out_dir if a == op.out_dir else a for a in op.args]


def compare(trees, workload, seed, n_ops, tmp, rtol=0.0):
    """Builds the set-up of each of the trees "parent" and "change" in its
    own work directory under tmp, runs one untimed op per tree, then n_ops
    paired ops as the module docstring says. Prints one line per set-up
    difference, one per op and, for n_ops >= 2, one timing line; returns
    how many lines report a difference."""
    clis, ops, works = {}, {}, {}
    for side in SIDES:
        works[side] = os.path.join(tmp, "work", side)
        os.makedirs(works[side])
        ops[side] = build_setup(trees[side], workload, seed, works[side],
                                os.path.join(tmp, "setup", side))
        clis[side] = _load(trees[side])[0]
    setup = setup_differences(*(os.path.join(tmp, "setup", side) for side in SIDES))
    for line in setup:
        print(line, flush=True)
    different = len(setup)
    for side in SIDES:  # warm-up, untimed
        run_op(clis[side], _args(ops[side][0], os.path.join(tmp, "warm", side)))
    seconds = {side: [] for side in SIDES}
    for i in range(n_ops):
        dirs = {side: os.path.join(tmp, "out", side, str(i)) for side in SIDES}
        args, codes = {}, {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            op = ops[side][i % len(ops[side])]
            args[side] = [a.replace(works[side], "") for a in op.args]
            s, codes[side] = run_op(clis[side], _args(op, dirs[side]))
            seconds[side].append(s)
        diff, close = differences(dirs["parent"], codes["parent"],
                                  dirs["change"], codes["change"], rtol)
        if args["parent"] != args["change"]:
            diff.insert(0, "args differ")
        different += bool(diff)
        print("%s op %d: %s" % (workload, i, "; ".join(diff) if diff else
                                "same (exit %d, %d files%s)"
                                % (codes["parent"], len(_files(dirs["parent"])),
                                   "".join("; " + c for c in close))),
              flush=True)
    if n_ops >= 2:
        s = summarize(seconds["parent"], seconds["change"])
        print("%s: %d ops, median time ratio change/parent %.3f (quartiles "
              "%.3f-%.3f), change faster on %d" % (workload, s["ops"], s["ratio"],
                                                   s["q1"], s["q3"], s["won"]),
              flush=True)
    return different


if __name__ == "__main__":
    sys.exit(main())
