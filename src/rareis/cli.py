"""Batch command-line front end.

Commands: fit (EM + BIC sweep), run (iterative IS procedure + estimate),
crude (plain Monte Carlo baseline), bench (side-by-side efficiency table).
fit, run and crude write a manifest with their full option set; bench only
prints its table. Re-running with the same options reproduces all outputs
byte-identically (the manifest's wall-clock field aside).
"""

import csv
import io
import json
import os
import sys
import time

import click
import numpy as np

from . import __version__, accel, frontier as fr, scenario, tgmm
from .frontier import NonMonotoneOutcomeError, PieceBlowupError
from .gauss import Rect
from .dompoints import SolverError
from .tgmm import DyingComponentError

EXIT_INPUT = 2
EXIT_FIT = 3
EXIT_MONOTONE = 4
EXIT_SOLVER = 5


def _fail(code, message):
    click.echo("error: %s" % message, err=True)
    sys.exit(code)


def _atomic_write(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def parse_support(spec, d):
    """Per-dimension "lo:hi" bounds, comma separated; -inf/inf tokens allowed."""
    parts = spec.split(",")
    if len(parts) != d:
        raise ValueError("support spec has %d dimensions, data has %d"
                         % (len(parts), d))
    lo, up = [], []
    for p in parts:
        try:
            a, b = p.split(":")
            lo.append(float(a))
            up.append(float(b))
        except ValueError:
            raise ValueError("bad support token %r (want lo:hi)" % p)
    return Rect(np.array(lo), np.array(up))


def _read_csv(path, expect_header=None):
    """Numeric CSV with optional header; returns (header or None, array)."""
    with open(path) as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise ValueError("%s: no data rows" % path)
    header = None
    start = 0
    try:
        [float(c) for c in rows[0]]
    except ValueError:
        header = [c.strip() for c in rows[0]]
        start = 1
    data = []
    for lineno, r in enumerate(rows[start:], start=start + 1):
        try:
            data.append([float(c) for c in r])
        except ValueError:
            raise ValueError("%s: line %d: non-numeric value" % (path, lineno))
    if not data:
        raise ValueError("%s: no data rows" % path)
    width = len(data[0])
    for lineno, r in enumerate(data, start=start + 1):
        if len(r) != width:
            raise ValueError("%s: line %d: expected %d columns"
                             % (path, lineno, width))
    if expect_header is not None and header != expect_header:
        raise ValueError("%s: expected header %s" % (path, expect_header))
    return header, np.array(data)


def _manifest(command, options, duration, out_dir):
    doc = {
        "command": command,
        "options": options,
        "tool_version": __version__,
        "duration_s": round(duration, 3),
    }
    _atomic_write(os.path.join(out_dir, "manifest.json"),
                  json.dumps(doc, sort_keys=True, indent=2))


# Row cap of trace.csv: a row per sample cost more than the estimate at n = 1e5.
_TRACE_ROWS = 1000


def _trace_csv(values):
    """Running estimate and CI half-width as CSV text: a row per sample up to
    _TRACE_ROWS samples, else at <= _TRACE_ROWS log-spaced ones ending at n."""
    x = np.asarray(values, dtype=float)
    n = x.size
    idx = np.arange(1, n + 1)
    csum = np.cumsum(x)
    csq = np.cumsum(x * x)
    mean = csum / idx
    var = np.maximum(csq / idx - mean ** 2, 0.0)
    with np.errstate(invalid="ignore"):
        se = np.sqrt(var / np.maximum(idx - 1, 1))
    se[0] = 0.0
    if n > _TRACE_ROWS:
        idx = np.unique(np.rint(np.geomspace(1, n, _TRACE_ROWS)).astype(int))
    rows = ["%d,%r,%r\n" % (i, float(mean[i - 1]), float(1.96 * se[i - 1]))
            for i in idx]
    return "sample_index,running_p_hat,running_ci_half_width\n" + "".join(rows)


def _dompoints_csv(state):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    d = state.frontier.dim
    w.writerow(["kind", "component_index"] + ["x%d" % i for i in range(d)])
    for kind, sets in (("inner", state.a_inner), ("outer", state.a_outer)):
        for i, pts in enumerate(sets):
            for p in pts:
                w.writerow([kind, i] + [repr(float(v)) for v in p])
    return buf.getvalue()


def _load_scenario(model_path, scenario_config, analytic, analytic_params):
    """Model, plus indicator and mask in its (possibly standardized) coordinates."""
    try:
        with open(model_path) as fh:
            model = tgmm.model_from_json(fh.read())
    except (OSError, ValueError, KeyError) as err:
        _fail(EXIT_INPUT, "cannot load model %s: %s" % (model_path, err))
    if (scenario_config is None) == (analytic is None):
        _fail(EXIT_INPUT, "exactly one of --scenario-config/--analytic is required")
    if analytic is not None:
        try:
            params = json.loads(analytic_params) if analytic_params else {}
            base, _, mask = scenario.analytic_scenario(analytic, params)
        except (ValueError, KeyError) as err:
            _fail(EXIT_INPUT, "bad analytic scenario: %s" % err)
    else:
        try:
            with open(scenario_config) as fh:
                cfg = scenario.AVConfig.from_json(fh.read())
        except (OSError, ValueError, TypeError) as err:
            _fail(EXIT_INPUT, "cannot load scenario config: %s" % err)
        base, mask = scenario.lane_change_indicator(cfg), scenario.lane_change_mask()
    if mask.dim != model.dim:
        _fail(EXIT_INPUT, "scenario dimension %d does not match model dimension %d"
              % (mask.dim, model.dim))
    std = model.standardizer

    def ind(z):  # original coordinates; a point the scenario rejects is exit 2
        try:
            return base(z if std is None else std.invert(z))
        except ValueError as err:
            _fail(EXIT_INPUT, str(err))
    return model, ind, mask


def _scenario_options(procedure):
    """Options of run, crude and bench; procedure adds the IS-construction ones."""
    opts = [click.argument("model_path", type=click.Path()),
            click.option("--scenario-config", type=click.Path(), default=None),
            click.option("--analytic", default=None,
                         help="Analytic scenario kind: halfspace, orthant, mixture-tail."),
            click.option("--analytic-params", default=None,
                         help="JSON scenario parameters."),
            click.option("--n", default=10000, show_default=True,
                         type=click.IntRange(min=100 if procedure else 1))]
    if procedure:
        opts += [click.option("--n-per-iter", default=500, show_default=True,
                              type=click.IntRange(min=1)),
                 click.option("--max-iter", default=4, show_default=True,
                              type=click.IntRange(min=1)),
                 click.option("--max-frontier", default=12, show_default=True,
                              type=click.IntRange(min=1)),
                 click.option("--rho", default=0.0, show_default=True,
                              type=click.FloatRange(0.0, 1.0))]
    opts += [click.option("--seed", default=0, show_default=True,
                          type=click.IntRange(min=0))]

    def apply(f):
        for opt in reversed(opts):
            f = opt(f)
        return f
    return apply


@click.group()
@click.version_option(__version__)
def main():
    """Rare-event probability estimation toolkit."""


@main.command("fit")
@click.argument("csv_path", type=click.Path())
@click.option("--k-list", default="1,2,3", show_default=True,
              help="Comma-separated component counts to sweep.")
@click.option("--support", "support_spec", default=None,
              help="Per-dimension lo:hi bounds on the fitted coordinates "
                   "before standardization, so (v, 1/ttc, 1/range) for "
                   "--coords lane-change; default unbounded.")
@click.option("--coords", type=click.Choice(["raw", "lane-change"]),
              default="raw", show_default=True,
              help="lane-change expects v,ttc,range columns and fits "
                   "(v, 1/ttc, 1/range).")
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
@click.option("--out", "out_dir", default=".", show_default=True)
def cmd_fit(csv_path, k_list, support_spec, coords, seed, out_dir):
    """Standardize data, fit each K, write a BIC table and the best model."""
    t0 = time.time()
    try:
        k_values = [int(k) for k in k_list.split(",") if k.strip()]
        if not k_values:
            raise ValueError("empty K list")
    except ValueError as err:
        _fail(EXIT_INPUT, "bad --k-list: %s" % err)
    try:
        if coords == "lane-change":
            _, y = _read_csv(csv_path, expect_header=["v", "ttc", "range"])
            y = scenario.lane_change_coords(y)
        else:
            _, y = _read_csv(csv_path)
        support = (Rect.unbounded(y.shape[1]) if support_spec is None
                   else parse_support(support_spec, y.shape[1]))
        if not np.all(support.contains(y)):
            bad = int(np.flatnonzero(~support.contains(y))[0])
            raise ValueError("data row %d lies outside the declared support" % (bad + 1))
        z, std = tgmm.standardize(y)
    except (OSError, ValueError) as err:
        _fail(EXIT_INPUT, str(err))
    z_support = std.apply_rect(support)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    best = None
    for K in k_values:
        try:
            model, report = tgmm.fit(z, K, z_support, init_seed=seed,
                                     standardizer=std)
        except (DyingComponentError, ValueError, RuntimeError) as err:
            _fail(EXIT_FIT, "fit failed at K=%d: %s" % (K, err))
        rows.append((K, report.bic, report.loglik_trace[-1], report.iterations))
        if best is None or report.bic < best[1]:
            best = (model, report.bic)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["K", "bic", "loglik", "iterations"])
    for K, b, ll, it in rows:
        w.writerow([K, repr(float(b)), repr(float(ll)), it])
    _atomic_write(os.path.join(out_dir, "bic.csv"), buf.getvalue())
    _atomic_write(os.path.join(out_dir, "model.json"), tgmm.model_to_json(best[0]))
    _manifest("fit", {"csv_path": csv_path, "k_list": k_values,
                      "support": support_spec, "coords": coords, "seed": seed,
                      "out": out_dir}, time.time() - t0, out_dir)
    click.echo("best K = %d (bic table: %s)"
               % (best[0].n_components, os.path.join(out_dir, "bic.csv")))


def _run_pipeline(model, ind, mask, n, seed, n_per_iter, max_iter,
                  max_frontier, rho, bounds=False):
    state, q = accel.run_procedure(ind, model, mask, n_per_iter=n_per_iter,
                                   max_iter=max_iter, max_frontier=max_frontier,
                                   final_rho=rho, seed=seed)
    report, values = accel.estimate(ind, model, q, n, seed=seed + 1,
                                    return_values=True,
                                    frontier=state.frontier if bounds else None)
    return state, report, values


@main.command("run")
@_scenario_options(procedure=True)
@click.option("--bounds", is_flag=True,
              help="Bound p by the frontier's inner and outer sets on the "
                   "final estimate's draws, and check their outcomes.")
@click.option("--out", "out_dir", default=".", show_default=True)
def cmd_run(model_path, scenario_config, analytic, analytic_params, n,
            n_per_iter, max_iter, max_frontier, rho, seed, bounds, out_dir):
    """Run the iterative IS construction, then a final estimate."""
    t0 = time.time()
    model, ind, mask = _load_scenario(model_path, scenario_config, analytic,
                                      analytic_params)
    try:
        state, report, values = _run_pipeline(
            model, ind, mask, n, seed, n_per_iter, max_iter, max_frontier, rho,
            bounds)
    except NonMonotoneOutcomeError as err:
        _fail(EXIT_MONOTONE, str(err))
    except (SolverError, PieceBlowupError) as err:
        _fail(EXIT_SOLVER, str(err))
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "report.json"), report.to_json())
    _atomic_write(os.path.join(out_dir, "frontier.json"),
                  fr.frontier_to_json(state.frontier))
    _atomic_write(os.path.join(out_dir, "dominating_points.csv"),
                  _dompoints_csv(state))
    _atomic_write(os.path.join(out_dir, "trace.csv"), _trace_csv(values))
    _atomic_write(os.path.join(out_dir, "state.json"), state.to_json())
    _manifest("run", {"model_path": model_path,
                      "scenario_config": scenario_config,
                      "analytic": analytic, "analytic_params": analytic_params,
                      "n": n, "n_per_iter": n_per_iter, "max_iter": max_iter,
                      "max_frontier": max_frontier, "rho": rho, "seed": seed,
                      "bounds": bounds, "out": out_dir},
              time.time() - t0, out_dir)
    click.echo("p_hat = %.6g  stderr = %.3g  (report: %s)"
               % (report.p_hat, report.stderr,
                  os.path.join(out_dir, "report.json")))


@main.command("crude")
@_scenario_options(procedure=False)
@click.option("--out", "out_dir", default=".", show_default=True)
def cmd_crude(model_path, scenario_config, analytic, analytic_params, n, seed,
              out_dir):
    """Crude Monte Carlo baseline under the fitted model."""
    t0 = time.time()
    model, ind, mask = _load_scenario(model_path, scenario_config, analytic,
                                      analytic_params)
    report, values = accel.crude_mc(ind, model, n, seed=seed,
                                    return_values=True)
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "report.json"), report.to_json())
    _atomic_write(os.path.join(out_dir, "trace.csv"), _trace_csv(values))
    _manifest("crude", {"model_path": model_path,
                        "scenario_config": scenario_config,
                        "analytic": analytic,
                        "analytic_params": analytic_params, "n": n,
                        "seed": seed, "out": out_dir},
              time.time() - t0, out_dir)
    click.echo("p_hat = %.6g  stderr = %.3g" % (report.p_hat, report.stderr))


@main.command("bench")
@_scenario_options(procedure=True)
def cmd_bench(model_path, scenario_config, analytic, analytic_params, n,
              n_per_iter, max_iter, max_frontier, rho, seed):
    """Both estimators at equal n; prints a CSV efficiency table."""
    model, ind, mask = _load_scenario(model_path, scenario_config, analytic,
                                      analytic_params)
    try:
        _, is_report, _ = _run_pipeline(model, ind, mask, n, seed, n_per_iter,
                                        max_iter, max_frontier, rho)
        crude_report = accel.crude_mc(ind, model, n, seed=seed + 10)
    except NonMonotoneOutcomeError as err:
        _fail(EXIT_MONOTONE, str(err))
    except (SolverError, PieceBlowupError) as err:
        _fail(EXIT_SOLVER, str(err))
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["estimator", "p_hat", "stderr", "crude_equiv_n", "efficiency"])
    for name, rep in (("is", is_report), ("crude", crude_report)):
        w.writerow([name, repr(rep.p_hat), repr(rep.stderr), rep.crude_equiv_n,
                    repr(rep.crude_equiv_n / rep.n_samples)])
    click.echo(buf.getvalue(), nl=False)


if __name__ == "__main__":
    main()
