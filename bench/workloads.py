"""Workload definitions: seeded input generation, CLI arguments, output checks.

Inputs are made with numpy alone, never with rareis, so that a given seed
gives byte-identical inputs at every commit of the program under test. The
exceptions are the scenario models, which set-up fits with the CLI.
"""

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

# A tail op fails when its estimate lies further than this many standard
# errors from the exact probability.
MAX_Z = 5.0

# Exact P(X >= TRUNC_CORNER) under TRUNC_MODEL: rect_prob and scipy's
# multivariate_normal.cdf agree on it to 6e-6 relative.
TRUNC_CORNER = [4.70, 4.06, 3.39]
TRUNC_TRUTH = 6.9307e-07
TRUNC_MODEL = {
    "weights": [0.4, 0.6],
    "means": [[1.0, 0.8, 0.6], [3.0, 2.5, 1.77]],
    "covs": [[[0.5, 0.2, 0.1], [0.2, 0.4, 0.1], [0.1, 0.1, 0.3]],
             [[0.6, -0.15, 0.1], [-0.15, 0.5, 0.05], [0.1, 0.05, 0.4]]],
}

# Synthetic lane-change events, drawn in the model coordinates
# (v, 1/ttc, 1/range) from Gaussian mixtures restricted to the positive
# orthant. LANE_EVENTS has two overlapping components; under the default
# AVConfig about 1 event in 1,000 of them crashes.
LANE_EVENTS = {"weights": [0.6, 0.4],
               "means": [[22.0, 0.10, 0.040], [30.0, 0.18, 0.060]],
               "sds": [[4.0, 0.05, 0.015], [4.0, 0.07, 0.020]]}
# Close cut-ins: range about 6 m, ttc about 3 s, drawn and fitted on the
# support (v in [15, 25] m/s, ttc in [2, 6.7] s, range up to 20 m).
# With the crash gap raised to CUTIN_CONFIG's 3 m, an event crashes when its
# range is below about 3.5 m, and a grid over the support shows no outcome
# that breaks lane_change_mask; the run's estimate is about 3e-6. Under the
# default 0.1 m gap, or without the bounds on ttc and range, crashes also come
# from long ranges at short TTCs (high closing speeds), and runs stop with
# non-monotone outcomes.
CUTIN_EVENTS = {"weights": [1.0],
                "means": [[20.0, 0.30, 0.160]],
                "sds": [[2.0, 0.05, 0.035]],
                "lower": [15.0, 0.15, 0.05], "upper": [25.0, 0.5, math.inf]}
CUTIN_SUPPORT = ",".join("%g:%g" % b for b in zip(CUTIN_EVENTS["lower"],
                                                  CUTIN_EVENTS["upper"]))
CUTIN_CONFIG = {"crash_range": 3.0}
# Seed of the fixed event sets that the fit and lanechange-cutin workloads use.
EVENTS_SEED = 0
EVENT_ROWS = 3000

HALFSPACE_P = 1e-6


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy."""
    args: list
    out_dir: str
    kind: str                 # "fit" or "run"
    truth: float = None       # exact probability, when known


@dataclass
class Inputs:
    ops: list                 # Op per CLI call; a run cycles through them
    files: list               # input files set-up wrote


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def lane_change_events(rng, n, mix):
    """(n, 3) array of (v, ttc, range) events, drawn inside mix's bounds."""
    w = np.asarray(mix["weights"])
    means = np.asarray(mix["means"])
    sds = np.asarray(mix["sds"])
    lower = np.asarray(mix.get("lower", [0.0] * 3))
    upper = np.asarray(mix.get("upper", [math.inf] * 3))
    rows, have = [], 0
    while have < n:
        k = rng.choice(len(w), size=n, p=w)
        x = means[k] + sds[k] * rng.standard_normal((n, 3))
        x = x[np.all((x > lower) & (x < upper), axis=1)]
        rows.append(x)
        have += x.shape[0]
    x = np.concatenate(rows)[:n]
    return np.column_stack([x[:, 0], 1.0 / x[:, 1], 1.0 / x[:, 2]])


def _write_events(path, events):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["v", "ttc", "range"])
        for row in events:
            w.writerow([repr(float(v)) for v in row])


def _model_json(weights, means, covs, lower, upper):
    enc = lambda v: [("-inf" if x == -math.inf else "inf" if x == math.inf
                      else float(x)) for x in v]
    return json.dumps({
        "d": len(means[0]), "K": len(weights),
        "support": {"lower": enc(lower), "upper": enc(upper)},
        "weights": [float(w) for w in weights],
        "components": [{"mean": [float(v) for v in m],
                        "cov": [[float(v) for v in r] for r in c]}
                       for m, c in zip(means, covs)],
        "standardizer": None,
    }, sort_keys=True, indent=2)


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _op_seeds(seed, stream, n):
    return [int(s) for s in _rng(seed, stream).integers(0, 2 ** 31, size=n)]


def _halfspace(seed, work, d, stream):
    model = os.path.join(work, "model.json")
    eye = np.eye(d).tolist()
    _write(model, _model_json([1.0], [[0.0] * d], [eye],
                              [-math.inf] * d, [math.inf] * d))
    w = 1.0 / math.sqrt(d)
    params = json.dumps({"w": [w] * d, "gamma": float(-ndtri(HALFSPACE_P))})
    out = os.path.join(work, "out")
    ops = [Op(["run", model, "--analytic", "halfspace", "--analytic-params",
               params, "--n-per-iter", "2000", "--n", "100000", "--seed",
               str(s), "--out", out], out, "run", HALFSPACE_P)
           for s in _op_seeds(seed, stream, 64)]
    return Inputs(ops, [model])


def tail_halfspace(seed, work, cli_main):
    return _halfspace(seed, work, 3, 1)


def tail_halfspace_d5(seed, work, cli_main):
    return _halfspace(seed, work, 5, 2)


def tail_trunc(seed, work, cli_main):
    model = os.path.join(work, "model.json")
    m = TRUNC_MODEL
    _write(model, _model_json(m["weights"], m["means"], m["covs"],
                              [0.0] * 3, [math.inf] * 3))
    params = json.dumps({"corner": TRUNC_CORNER})
    out = os.path.join(work, "out")
    ops = [Op(["run", model, "--analytic", "orthant", "--analytic-params",
               params, "--n-per-iter", "1000", "--n", "100000", "--seed",
               str(s), "--out", out], out, "run", TRUNC_TRUTH)
           for s in _op_seeds(seed, 3, 64)]
    return Inputs(ops, [model])


def fit_lanechange(seed, work, cli_main):
    """The same fit under every seed: one fixed data set and EM seed.

    On overlapping components the EM iteration count, and with it the fit
    time, varies threefold between data sets and initialisation seeds, so a
    run's median moved by 7% to 15% when the seed chose them.
    """
    events = os.path.join(work, "events.csv")
    _write_events(events, lane_change_events(_rng(EVENTS_SEED, 4), EVENT_ROWS,
                                           LANE_EVENTS))
    out = os.path.join(work, "out")
    op = Op(["fit", events, "--coords", "lane-change", "--support",
             "0:inf,0:inf,0:inf", "--k-list", "1,2", "--seed", "0", "--out",
             out], out, "fit")
    return Inputs([op], [events])


def _fit_k1(events, support, work, cli_main):
    """Fits a K = 1 model on support with the CLI; returns its path."""
    fitted = os.path.join(work, "fit")
    with contextlib.redirect_stdout(io.StringIO()):
        cli_main(["fit", events, "--coords", "lane-change", "--support",
                  support, "--k-list", "1", "--out", fitted],
                 standalone_mode=False)
    return os.path.join(fitted, "model.json")


def _scenario_ops(op_seeds, work, model, config, sizes):
    out = os.path.join(work, "out")
    return [Op(["run", model, "--scenario-config", config] + sizes
               + ["--seed", str(s), "--out", out], out, "run")
            for s in op_seeds]


def lanechange(seed, work, cli_main):
    """The default simulator on a model fitted to events drawn from the seed."""
    events = os.path.join(work, "events.csv")
    _write_events(events, lane_change_events(_rng(seed, 5), EVENT_ROWS,
                                           LANE_EVENTS))
    model = _fit_k1(events, "0:inf,0:inf,0:inf", work, cli_main)
    config = os.path.join(work, "av.json")
    _write(config, "{}")  # every AVConfig field at its default
    ops = _scenario_ops(_op_seeds(seed, 6, 64), work, model, config,
                        ["--n-per-iter", "250", "--max-iter", "4", "--n", "2000"])
    return Inputs(ops, [events, model, config])


def lanechange_cutin(seed, work, cli_main):
    """The same job under every seed: fixed events, CLI seeds 0, 1, 2, ...

    An op's time depends on its CLI seed by up to 20%, through how many of
    its simulated events crash early, so a run's median over about seven ops
    spread by 8% between run seeds when the run seed chose the CLI seeds.
    """
    events = os.path.join(work, "events.csv")
    _write_events(events, lane_change_events(_rng(EVENTS_SEED, 7), EVENT_ROWS,
                                           CUTIN_EVENTS))
    model = _fit_k1(events, CUTIN_SUPPORT, work, cli_main)
    config = os.path.join(work, "av.json")
    _write(config, json.dumps(CUTIN_CONFIG))
    ops = _scenario_ops(range(64), work, model, config,
                        ["--n-per-iter", "200", "--max-iter", "3", "--n", "600"])
    return Inputs(ops, [events, model, config])


# Workload name -> setup(seed, work_dir, cli_main) -> Inputs.
SETUPS = {
    "fit-lanechange": fit_lanechange,
    "tail-halfspace": tail_halfspace,
    "tail-trunc": tail_trunc,
    "lanechange": lanechange,
    "lanechange-cutin": lanechange_cutin,
    "tail-halfspace-d5": tail_halfspace_d5,
}


def _finite_csv(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return rows, bool(rows) and all(
        math.isfinite(float(v)) for r in rows for v in r.values())


def check(op, tgmm):
    """Reads an op's outputs; returns (reason or None, quality figures)."""
    if op.kind == "fit":
        rows, finite = _finite_csv(os.path.join(op.out_dir, "bic.csv"))
        if not finite:
            return "bic.csv has a non-finite entry", {}
        with open(os.path.join(op.out_dir, "model.json")) as fh:
            text = fh.read()
        if tgmm.model_to_json(tgmm.model_from_json(text)) != text:
            return "model.json does not round-trip", {}
        return None, {"fit_iters": sum(int(r["iterations"]) for r in rows)}
    with open(os.path.join(op.out_dir, "report.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(op.out_dir, "state.json")) as fh:
        state = json.load(fh)
    p, se = report["p_hat"], report["stderr"]
    quality = {"p_hat": p, "stderr": se,
               "evals": state["simulator_calls"] + report["n_samples"],
               "crude_equiv_n": report["crude_equiv_n"], "truth": op.truth}
    if not (math.isfinite(p) and math.isfinite(se)):
        return "non-finite estimate", quality
    if report["zero_hits"] or p <= 0:
        return "zero hits", quality
    if op.truth is not None and abs(p - op.truth) > MAX_Z * se:
        return "|p_hat - p| = %.3g > %g stderr" % (abs(p - op.truth), MAX_Z), quality
    return None, quality
