"""Byte-for-byte comparison of two commits' CLI outputs on one bench workload.

Usage, from the repository root:

    python3 tools/same_outputs.py --parent HEAD~1 --change HEAD \\
        --workload tail-halfspace --ops 6 --seed 0

Both trees are extracted with ``bench_pairs.extract``. The parent tree's
``bench/workloads.py`` builds the workload's ops and input files once, for
``--seed``. The first ``--ops`` ops then run in both trees on those same
files, each as a fresh ``python3 -m rareis.cli ARGS`` process with that
tree's ``src/`` on the path and one BLAS thread, each side writing to its
own output directory. Exit codes and every output file except
``manifest.json`` (which records wall-clock time) are compared. One line is
printed per op, and the exit status is 1 if any op differs.
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile

from bench_pairs import extract

IGNORED = {"manifest.json"}

_SETUP = """
import json, sys
src, bench, name, seed, work, out = sys.argv[1:]
sys.path[:0] = [src, bench]
import rareis.cli, workloads
inputs = workloads.SETUPS[name](int(seed), work, rareis.cli.main)
with open(out, "w") as fh:
    json.dump([{"args": op.args, "out_dir": op.out_dir} for op in inputs.ops], fh)
"""


def _env(tree):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _files(root):
    """Paths of the files under root, relative to it; empty if root is absent."""
    out = set()
    for base, _, names in os.walk(root):
        out.update(os.path.relpath(os.path.join(base, n), root) for n in names
                   if n not in IGNORED)
    return out


def differences(dir_a, exit_a, dir_b, exit_b):
    """What differs between two runs of one op: exit codes and output files."""
    out = [] if exit_a == exit_b else ["exit %d vs %d" % (exit_a, exit_b)]
    files_a, files_b = _files(dir_a), _files(dir_b)
    for name in sorted(files_a | files_b):
        if name not in files_b:
            out.append("%s only in the first" % name)
        elif name not in files_a:
            out.append("%s only in the second" % name)
        elif not filecmp.cmp(os.path.join(dir_a, name), os.path.join(dir_b, name),
                             shallow=False):
            out.append("%s differs" % name)
    return out


def build_ops(tree, workload, seed, work):
    """The workload's ops as tree's bench/workloads.py builds them in work."""
    path = os.path.join(work, "ops.json")
    subprocess.run([sys.executable, "-c", _SETUP, os.path.join(tree, "src"),
                    os.path.join(tree, "bench"), workload, str(seed), work, path],
                   cwd=tree, env=_env(tree), check=True, stdout=subprocess.DEVNULL)
    with open(path) as fh:
        return json.load(fh)


def run_op(tree, op, out_dir):
    """Runs op's CLI arguments in tree, writing to out_dir; returns the exit code."""
    args = [out_dir if a == op["out_dir"] else a for a in op["args"]]
    return subprocess.run([sys.executable, "-m", "rareis.cli"] + args, cwd=tree,
                          env=_env(tree), stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="git tree-ish")
    ap.add_argument("--change", default="HEAD", help="git tree-ish")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--ops", type=int, required=True, help="ops to compare")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    different = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        trees = {}
        for side in ("parent", "change"):
            trees[side] = os.path.join(tmp, side)
            extract(getattr(args, side), trees[side])
        work = os.path.join(tmp, "work")
        os.makedirs(work)
        ops = build_ops(trees["parent"], args.workload, args.seed, work)
        for i, op in enumerate(ops[:args.ops]):
            dirs = {side: os.path.join(tmp, "out", side, str(i)) for side in trees}
            codes = {side: run_op(trees[side], op, dirs[side]) for side in trees}
            diff = differences(dirs["parent"], codes["parent"],
                               dirs["change"], codes["change"])
            different += bool(diff)
            print("%s op %d: %s" % (args.workload, i, "; ".join(diff) if diff else
                                    "same (exit %d, %d files)"
                                    % (codes["parent"], len(_files(dirs["parent"])))),
                  flush=True)
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
