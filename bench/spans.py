"""In-memory spans around each layer's public functions, installed from outside.

Several rareis modules import gauss and tgmm functions by name, so a wrapper
on ``gauss.rect_prob`` alone would miss the calls made through
``accel.rect_prob`` or ``tgmm.rect_prob``. ``Tracer.installed`` therefore
replaces every rareis module attribute that refers to a traced function, and
puts each one back on exit.
"""

import contextlib
import sys
import time
from collections import defaultdict

# (module, function) pairs whose calls become spans named "module.function".
LAYER_FUNCTIONS = [
    ("gauss", "rect_prob"), ("gauss", "trunc_moments"),
    ("gauss", "sample_truncated"),
    ("tgmm", "fit"), ("tgmm", "em_step"), ("tgmm", "responsibilities"),
    ("tgmm", "gmm_log_density"),
    ("frontier", "insert"), ("frontier", "outer_pieces"),
    ("dompoints", "solve_piece"), ("dompoints", "inner_dominating"),
    ("dompoints", "outer_dominating"),
    ("accel", "run_procedure"), ("accel", "estimate"), ("accel", "build_is"),
    ("accel", "sample_is"), ("accel", "likelihood_ratio"),
    ("accel", "apply_indicator"),
    ("scenario", "simulate"),
]

# Click commands whose callbacks become spans "cli.<command>".
CLI_COMMANDS = [("cmd_fit", "fit"), ("cmd_run", "run")]


class Tracer:
    """Per-name call counts and self seconds of the spans of one op."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.values = defaultdict(float)
        self._open = []          # [name, child seconds] per open span

    def call(self, name, fn, args, kwargs, observe):
        self._open.append([name, 0.0])
        start = time.perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            span_s = time.perf_counter() - start
            _, child_s = self._open.pop()
            self.calls[name] += 1
            self.self_s[name] += span_s - child_s
            if self._open:
                self._open[-1][1] += span_s
            if not ok:
                self.values[name + ".failed"] += 1
        if observe is not None:
            observe(self.values, args, kwargs, result)
        return result

    def current(self):
        return self._open[-1][0] if self._open else None

    def take(self):
        """Calls, self seconds and observed values of the op just finished; resets."""
        taken = dict(self.calls), dict(self.self_s), dict(self.values)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.values = defaultdict(float)
        return taken

    @contextlib.contextmanager
    def installed(self, package):
        """Wraps every traced function at each rareis name bound to it."""
        restore = []
        try:
            for mod, fn_name in LAYER_FUNCTIONS:
                original = getattr(sys.modules[package + "." + mod], fn_name)
                wrapper = self._wrap(mod + "." + fn_name, original,
                                     OBSERVERS.get(mod + "." + fn_name))
                restore += _rebind(package, original, wrapper)
            original = sys.modules[package + ".gauss"].sample
            restore += _rebind(package, original, self._count_draws(original))
            cli = sys.modules[package + ".cli"]
            for attr, name in CLI_COMMANDS:
                command = getattr(cli, attr)
                restore.append((command, "callback", command.callback))
                command.callback = self._wrap("cli." + name, command.callback,
                                              None)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _wrap(self, name, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, observe)
        traced.__wrapped__ = fn
        return traced

    def _count_draws(self, sample):
        """gauss.sample counts the candidates rejection sampling draws."""
        tracer = self

        def counted(n, *args, **kwargs):
            out = sample(n, *args, **kwargs)
            if tracer.current() == "gauss.sample_truncated":
                tracer.values["gauss.sample_truncated.drawn"] += out.shape[0]
            return out
        counted.__wrapped__ = sample
        return counted


def _rebind(package, original, replacement):
    """Points every package module attribute bound to original at replacement."""
    bound = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package
                               or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                bound.append((mod, attr, original))
    return bound


def _sample_truncated(values, args, kwargs, result):
    values["gauss.sample_truncated.accepted"] += result.shape[0]


def _insert(values, args, kwargs, result):
    values["frontier.insert.kept"] += result is not args[0]


def _outer_pieces(values, args, kwargs, result):
    corners, truncated = result
    values["frontier.outer_pieces.corners"] += corners.shape[0]
    values["frontier.outer_pieces.truncated"] += bool(truncated)


def _solve_piece(values, args, kwargs, result):
    key = "dompoints.solve_piece.max_kkt"
    values[key] = max(values[key], result.kkt_residual)


def _estimate(values, args, kwargs, result):
    if not isinstance(result, tuple):
        return
    _report, il = result
    total = il.sum()
    values["accel.estimate.values"] += 1
    values["accel.hit_ratio"] += float((il > 0).mean())
    if total > 0:
        values["accel.ess_ratio"] += float(total ** 2 / (il ** 2).sum() / il.size)
        values["accel.max_weight_share"] += float(il.max() / total)


def _simulate(values, args, kwargs, result):
    values["scenario.simulate.crashes"] += result


OBSERVERS = {
    "gauss.sample_truncated": _sample_truncated,
    "frontier.insert": _insert,
    "frontier.outer_pieces": _outer_pieces,
    "dompoints.solve_piece": _solve_piece,
    "accel.estimate": _estimate,
    "scenario.simulate": _simulate,
}
