"""Batch command-line front end.

Commands: fit (EM + BIC sweep), run (iterative IS procedure + estimate)
and crude (plain Monte Carlo baseline). Each writes its outputs and a
manifest of the options click parsed to --out. Re-running with the same
options reproduces all outputs byte-identically (the manifest's wall-clock
field aside).
"""

import contextlib
import csv
import io
import json
import math
import os
import sys
import time

import click
import numpy as np

from . import __version__, accel, frontier as fr, scenario, tgmm
from .frontier import NonMonotoneOutcomeError, PieceBlowupError
from .gauss import DegenerateTruncationError, Rect
from .dompoints import SolverError
from .tgmm import DyingComponentError

EXIT_INPUT = 2
EXIT_FIT = 3
EXIT_MONOTONE = 4
EXIT_SOLVER = 5


def _fail(code, message):
    click.echo("error: %s" % message, err=True)
    sys.exit(code)


def _write_outputs(out, files, t0):
    """Writes files ({name: text}) and the command's manifest into out, each
    file atomically but not the set; a failed write leaves no .tmp file."""
    ctx = click.get_current_context()
    files["manifest.json"] = json.dumps(
        {"command": ctx.info_name, "options": ctx.params,
         "tool_version": __version__, "duration_s": round(time.time() - t0, 3)},
        sort_keys=True, indent=2)
    try:
        os.makedirs(out, exist_ok=True)
        for name, text in files.items():
            path = os.path.join(out, name)
            try:
                with open(path + ".tmp", "w") as fh:
                    fh.write(text)
                os.replace(path + ".tmp", path)
            except OSError:
                with contextlib.suppress(OSError):  # the open may have failed
                    os.remove(path + ".tmp")
                raise
    except OSError as err:
        _fail(EXIT_INPUT, "cannot write --out %s: %s" % (out, err))


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
    """Finite numeric CSV with optional header; returns (header or None, array).

    Errors name the file's own line numbers, blank lines counted."""
    with open(path) as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, r) for r in reader if any(c.strip() for c in r)]
    header = None
    if rows:
        try:
            [float(c) for c in rows[0][1]]
        except ValueError:
            header = [c.strip() for c in rows.pop(0)[1]]
    if not rows:
        raise ValueError("%s: no data rows" % path)
    # numpy converts a str cell with float(); the scan below finds the
    # first bad line, where a row is non-numeric, ragged or non-finite
    try:
        data = np.array([r for _, r in rows], dtype=float)
        bad = np.flatnonzero(~np.isfinite(data).all(axis=1))[:1]
    except ValueError:
        bad = range(len(rows))
    width = len(rows[0][1])
    for i in bad:
        lineno, r = rows[i]
        try:
            values = [float(c) for c in r]
        except ValueError:
            raise ValueError("%s: line %d: non-numeric value" % (path, lineno))
        if len(values) != width:
            raise ValueError("%s: line %d: expected %d columns"
                             % (path, lineno, width))
        if not all(map(math.isfinite, values)):
            raise ValueError("%s: line %d: non-finite value" % (path, lineno))
    if expect_header is not None and header != expect_header:
        raise ValueError("%s: expected header %s" % (path, expect_header))
    return header, data


# Row cap of trace.csv: a row per sample cost more than the estimate at n = 1e5.
_TRACE_ROWS = 1000


def _trace_csv(values):
    """Running estimate and CI half-width as CSV text: a row per sample up to
    _TRACE_ROWS samples, else at <= _TRACE_ROWS log-spaced ones ending at n."""
    x = np.asarray(values, dtype=float)
    n = x.size
    idx = np.arange(1, n + 1)
    if n > _TRACE_ROWS:
        idx = np.unique(np.rint(np.geomspace(1, n, _TRACE_ROWS)).astype(int))
    mean = np.cumsum(x)[idx - 1] / idx
    var = np.maximum(np.cumsum(x * x)[idx - 1] / idx - mean ** 2, 0.0)
    with np.errstate(invalid="ignore"):
        se = np.sqrt(var / np.maximum(idx - 1, 1))
    se[0] = 0.0
    rows = map("%d,%r,%r\n".__mod__,
               zip(idx.tolist(), mean.tolist(), (1.96 * se).tolist()))
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
    except (OSError, ValueError, KeyError, TypeError, RecursionError,
            DegenerateTruncationError) as err:  # RecursionError: JSON nested too deep
        _fail(EXIT_INPUT, "cannot load model %s: %s" % (model_path, err))
    if (scenario_config is None) == (analytic is None):
        _fail(EXIT_INPUT, "exactly one of --scenario-config/--analytic is required")
    if analytic is None and analytic_params is not None:
        _fail(EXIT_INPUT, "--analytic-params needs --analytic")
    if analytic is not None:
        try:
            params = json.loads(analytic_params) if analytic_params else {}
            base, _, mask = scenario.analytic_scenario(analytic, params)
        except (ValueError, RecursionError) as err:
            _fail(EXIT_INPUT, "bad analytic scenario: %s" % err)
    else:
        try:
            with open(scenario_config) as fh:
                cfg = scenario.AVConfig.from_json(fh.read())
        except (OSError, ValueError, TypeError, RecursionError) as err:
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
    """Options of run and crude; procedure adds the IS-construction ones."""
    opts = [click.argument("model_path", type=click.Path()),
            click.option("--scenario-config", type=click.Path(), default=None),
            click.option("--analytic", default=None,
                         help="Analytic scenario kind: halfspace, orthant, mixture-tail."),
            click.option("--analytic-params", default=None,
                         help="JSON scenario parameters."),
            click.option("--n", default=10000, show_default=True,
                         type=click.IntRange(min=100),
                         help="Draws of the final estimate.")]
    if procedure:
        opts += [click.option("--n-per-iter", default=500, show_default=True,
                              type=click.IntRange(min=1),
                              help="Draws per iteration of the IS construction."),
                 click.option("--max-iter", default=4, show_default=True,
                              type=click.IntRange(min=1),
                              help="Iterations of the IS construction."),
                 click.option("--max-frontier", default=12, show_default=True,
                              type=click.IntRange(min=1),
                              help="Cap on the rare and on the safe frontier "
                                   "points that the dominating sets are "
                                   "solved on; frontier.json keeps every "
                                   "point."),
                 click.option("--rho", default=0.0, show_default=True,
                              type=click.FloatRange(0.0, 1.0),
                              help="Inner-set share of the final estimate's "
                                   "proposal only; the construction's own "
                                   "iterations use 0, then 0.5 once a rare "
                                   "point is seen.")]
    opts += [click.option("--seed", default=0, show_default=True,
                          type=click.IntRange(min=0))]

    def apply(f):
        for opt in reversed(opts):
            f = opt(f)
        return f
    return apply


def _check_out(ctx, param, value):
    """Rejects an --out below a file before any work: click.Path checks
    only a path that exists."""
    parent = os.path.abspath(value)
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent):
        raise click.BadParameter("%s lies below the file %s" % (value, parent))
    return value


_out_option = click.option("--out", default=".", show_default=True,
                           type=click.Path(file_okay=False), callback=_check_out)


def _parse_k_list(ctx, param, value):
    try:
        k_values = [int(k) for k in value.split(",")]
    except ValueError:
        k_values = []
    if not k_values or min(k_values) < 1:
        raise click.BadParameter("want comma-separated integers >= 1, got %r"
                                 % value)
    if len(set(k_values)) < len(k_values):
        raise click.BadParameter("K values must be distinct, got %r" % value)
    return k_values


# Library errors any command may raise, by exit code. Errors of one stage
# (loading inputs, EM) keep the codes their command gives them.
_EXIT_CODES = {NonMonotoneOutcomeError: EXIT_MONOTONE, SolverError: EXIT_SOLVER,
               PieceBlowupError: EXIT_SOLVER,
               DegenerateTruncationError: EXIT_SOLVER}


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(_EXIT_CODES) as err:
            _fail(next(code for kind, code in _EXIT_CODES.items()
                       if isinstance(err, kind)), str(err))


@click.group(cls=_Main)
@click.version_option(__version__)
def main():
    """Rare-event probability estimation toolkit."""


@main.command("fit")
@click.argument("csv_path", type=click.Path())
@click.option("--k-list", default="1,2,3", show_default=True,
              callback=_parse_k_list,
              help="Comma-separated component counts (each >= 1) to sweep.")
@click.option("--support", default=None,
              help="Per-dimension lo:hi bounds on the fitted coordinates "
                   "before standardization, so (v, 1/ttc, 1/range) for "
                   "--coords lane-change; default unbounded.")
@click.option("--coords", type=click.Choice(["raw", "lane-change"]),
              default="raw", show_default=True,
              help="lane-change expects v,ttc,range columns and fits "
                   "(v, 1/ttc, 1/range).")
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
@_out_option
def cmd_fit(csv_path, k_list, support, coords, seed, out):
    """Standardize data, fit each K, write a BIC table and the best model."""
    t0 = time.time()
    try:
        if coords == "lane-change":
            _, y = _read_csv(csv_path, expect_header=["v", "ttc", "range"])
            y = scenario.lane_change_coords(y)
        else:
            _, y = _read_csv(csv_path)
        box = (Rect.unbounded(y.shape[1]) if support is None
               else parse_support(support, y.shape[1]))
        if not np.all(box.contains(y)):
            bad = int(np.flatnonzero(~box.contains(y))[0])
            raise ValueError("data row %d lies outside the declared support" % (bad + 1))
        z, std = tgmm.standardize(y)
        z_support = std.apply_rect(box)
    except (OSError, ValueError) as err:
        _fail(EXIT_INPUT, str(err))
    rows = []
    best = None
    for K, fitted in zip(k_list, tgmm.fit(z, k_list, z_support,
                                          init_seed=seed)):
        try:
            if isinstance(fitted, Exception):
                raise fitted
        except (DyingComponentError, ValueError, RuntimeError) as err:
            _fail(EXIT_FIT, "fit failed at K=%d: %s" % (K, err))
        model, report = fitted
        rows.append((K, report.bic, report.loglik_trace[-1], report.iterations))
        if best is None or report.bic < best[1]:
            best = (model, report.bic)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["K", "bic", "loglik", "iterations"])
    for K, b, ll, it in rows:
        w.writerow([K, repr(float(b)), repr(float(ll)), it])
    best[0].standardizer = std
    _write_outputs(out, {"bic.csv": buf.getvalue(),
                         "model.json": tgmm.model_to_json(best[0])}, t0)
    click.echo("best K = %d (bic table: %s)"
               % (best[0].n_components, os.path.join(out, "bic.csv")))


@main.command("run")
@_scenario_options(procedure=True)
@click.option("--bounds", is_flag=True,
              help="Bound p by the frontier's inner and outer sets on the "
                   "final estimate's draws, and check their outcomes.")
@_out_option
def cmd_run(model_path, scenario_config, analytic, analytic_params, n,
            n_per_iter, max_iter, max_frontier, rho, seed, bounds, out):
    """Run the iterative IS construction, then a final estimate."""
    t0 = time.time()
    model, ind, mask = _load_scenario(model_path, scenario_config, analytic,
                                      analytic_params)
    state, q = accel.run_procedure(ind, model, mask, n_per_iter=n_per_iter,
                                   max_iter=max_iter, max_frontier=max_frontier,
                                   final_rho=rho, seed=seed)
    report = accel.estimate(ind, model, q, n, seed=seed + 1,
                            frontier=state.frontier if bounds else None)
    _write_outputs(out, {"report.json": report.to_json(),
                         "frontier.json": fr.frontier_to_json(state.frontier),
                         "dominating_points.csv": _dompoints_csv(state),
                         "trace.csv": _trace_csv(report.values),
                         "state.json": state.to_json()}, t0)
    click.echo("p_hat = %.6g  stderr = %.3g  (report: %s)"
               % (report.p_hat, report.stderr,
                  os.path.join(out, "report.json")))


@main.command("crude")
@_scenario_options(procedure=False)
@_out_option
def cmd_crude(model_path, scenario_config, analytic, analytic_params, n, seed,
              out):
    """Crude Monte Carlo baseline: the estimate with the model as proposal."""
    t0 = time.time()
    model, ind, mask = _load_scenario(model_path, scenario_config, analytic,
                                      analytic_params)
    report = accel.estimate(ind, model, model, n, seed)
    _write_outputs(out, {"report.json": report.to_json(),
                         "trace.csv": _trace_csv(report.values)}, t0)
    click.echo("p_hat = %.6g  stderr = %.3g" % (report.p_hat, report.stderr))


if __name__ == "__main__":
    main()
