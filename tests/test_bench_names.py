"""The benchmark traces rareis functions by name; each name must exist."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_layer_functions_are_callable():
    for mod, fn_name in load_spans().LAYER_FUNCTIONS:
        module = importlib.import_module("rareis." + mod)
        assert callable(getattr(module, fn_name, None)), "%s.%s" % (mod, fn_name)


def test_draw_counter_target_exists():
    from rareis import gauss
    assert callable(gauss.sample)


def test_rebinding_check_target_exists():
    # bench/test_bench.py asserts the tracer rebinds rect_prob at this name
    from rareis import accel
    assert callable(accel.rect_prob)


def test_cli_commands_exist():
    from rareis import cli
    attrs = [attr for attr, _ in load_spans().CLI_COMMANDS]
    assert {"cmd_fit", "cmd_run"} <= set(attrs)
    for attr in attrs:
        assert callable(getattr(cli, attr).callback), attr
