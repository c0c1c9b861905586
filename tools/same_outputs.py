"""Comparison of two commits' CLI outputs on one bench workload or all of them.

Usage, from the repository root:

    python3 tools/same_outputs.py --parent HEAD~1 --change HEAD \\
        --workload tail-halfspace --ops 6 --seed 0 [--rtol 1e-12]

``--workload all`` compares every workload of the change tree's
``bench/workloads.py`` SETUPS, one after another.

Both trees are extracted with ``bench_pairs.extract`` and run in this
process, at one BLAS thread. Each tree's ``src/rareis`` and
``bench/workloads.py`` are imported once, with ``inproc_pairs``' loaders,
under names suffixed by a hash of the tree's path. Each tree's own
workloads module and CLI build the workload's ops and set-up files for
``--seed``, one tree after the other in the same work directory, so that
both sides' CLI arguments name the same paths. A set-up file whose bytes
differ between the trees, or that only one tree writes, is reported as
``setup differs: <file>``. The first ``--ops`` ops then run in each tree on
that tree's set-up, each through the tree's ``cli.main`` as
``inproc_pairs.run_op`` calls it, each side writing to its own output
directory. CLI arguments, exit codes and every output
file except ``manifest.json`` (which records wall-clock time) are compared.
Files must be byte-identical, except that with ``--rtol R`` a ``.json`` or
``.csv`` file may differ in its numbers, each by at most R relative, as long
as its other text is identical; such a file is named in the op's line with
its largest relative difference. One line is printed per set-up difference
and per op, and the exit status is 1 if anything differs in any workload.
"""

import argparse
import filecmp
import functools
import hashlib
import os
import re
import shutil
import sys
import tempfile

import inproc_pairs
from bench_pairs import extract

IGNORED = {"manifest.json"}
NUMERIC = (".json", ".csv")
# A decimal number; the capturing group makes re.split keep the numbers.
_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


@functools.lru_cache(maxsize=None)
def _load(tree):
    """(cli module, workloads module) of tree, imported once per process."""
    tag = hashlib.sha256(os.path.abspath(tree).encode()).hexdigest()[:16]
    package = inproc_pairs.load_package(os.path.join(tree, "src"), "rareis_" + tag)
    workloads = inproc_pairs.load_module(os.path.join(tree, "bench", "workloads.py"),
                                         "workloads_" + tag)
    return package.cli, workloads


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
    """What differs between two runs of one op: exit codes and output files
    (numbers in .json and .csv files by more than rtol relative)."""
    out = [] if exit_a == exit_b else ["exit %d vs %d" % (exit_a, exit_b)]
    return out + ["%s %s" % (name, how) for name, how, close
                  in _compare(dir_a, dir_b, rtol) if not close]


def setup_differences(dir_a, dir_b):
    """One line per set-up file whose bytes differ or that one side lacks."""
    return ["setup differs: %s" % name for name, _, _ in _compare(dir_a, dir_b)]


def build_setup(tree, workload, seed, work, keep):
    """The workload's ops, as {"args", "out_dir"} dicts, that tree's
    bench/workloads.py builds in work; copies the set-up files it lists
    into keep."""
    cli, workloads = _load(tree)
    inputs = workloads.SETUPS[workload](seed, work, cli.main)
    for path in inputs.files:
        name = os.path.relpath(path, work)
        os.makedirs(os.path.dirname(os.path.join(keep, name)), exist_ok=True)
        shutil.copyfile(path, os.path.join(keep, name))
    return [{"args": op.args, "out_dir": op.out_dir} for op in inputs.ops]


def workload_names(tree):
    """The names of tree's bench workloads, in SETUPS order."""
    return list(_load(tree)[1].SETUPS)


def run_op(tree, op, out_dir):
    """Runs op's CLI arguments in tree, writing to out_dir; returns the exit code."""
    args = [out_dir if a == op["out_dir"] else a for a in op["args"]]
    return inproc_pairs.run_op(_load(tree)[0], args)[2]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="git tree-ish")
    ap.add_argument("--change", default="HEAD", help="git tree-ish")
    ap.add_argument("--workload", required=True,
                    help='a workload name, or "all" for every workload')
    ap.add_argument("--ops", type=int, required=True, help="ops to compare")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rtol", type=float, default=0.0,
                    help="relative tolerance for numbers in .json and .csv "
                         "outputs; 0 requires identical bytes")
    args = ap.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before either tree imports numpy

    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        trees = {}
        for side in ("parent", "change"):
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


def compare(trees, workload, seed, n_ops, tmp, rtol=0.0):
    """Builds the set-up and runs the first n_ops ops of each of the trees
    "parent" and "change", in tmp; prints one line per set-up difference
    and one per op, and returns how many of them report a difference."""
    work = os.path.join(tmp, "work")
    setups = {side: os.path.join(tmp, "setup", side) for side in trees}
    ops, codes = {}, {}
    for side, tree in trees.items():
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        ops[side] = build_setup(tree, workload, seed, work, setups[side])[:n_ops]
        codes[side] = [run_op(tree, op, os.path.join(tmp, "out", side, str(i)))
                       for i, op in enumerate(ops[side])]
    setup = setup_differences(setups["parent"], setups["change"])
    for line in setup:
        print(line, flush=True)
    different = len(setup)
    for i, (op_p, op_c) in enumerate(zip(ops["parent"], ops["change"])):
        dirs = [os.path.join(tmp, "out", side, str(i)) for side in ("parent", "change")]
        diff = [] if op_p == op_c else ["args differ"]
        diff += differences(dirs[0], codes["parent"][i], dirs[1], codes["change"][i],
                            rtol)
        different += bool(diff)
        close = ["%s %s" % (name, how) for name, how, ok
                 in _compare(dirs[0], dirs[1], rtol) if ok]
        print("%s op %d: %s" % (workload, i, "; ".join(diff) if diff else
                                "same (exit %d, %d files%s)"
                                % (codes["parent"][i], len(_files(dirs[0])),
                                   "".join("; " + c for c in close))),
              flush=True)
    return different


if __name__ == "__main__":
    sys.exit(main())
