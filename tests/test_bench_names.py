"""The names ``bench/tracing.py`` wraps still exist and are still called.

The traced bench run replaces functions and methods of ``jetsplit`` by name;
a rename would break it without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import jetsplit
from jetsplit import parse_field_spec, parse_jet, split

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    for layer, targets in tracing.SPANS.items():
        for module, cls, attr in targets:
            owner = importlib.import_module(f"jetsplit.{module}")
            if cls is not None:
                owner = getattr(owner, cls)
            assert callable(getattr(owner, attr, None)), f"{layer}: {module}.{cls}.{attr}"
    for cls in tracing.FIELD_CLASSES:
        assert isinstance(getattr(jetsplit, cls, None), type), cls


@pytest.mark.parametrize("spec, names, expr, traced", [
    ("q", "x,y", "x^2 + x*y^2", "iterate_diagonal"),
    ("fp:2", "x1,x2,x3", "x1*x2 + x1*x3^2", "iterate_arf"),
])
def test_split_calls_its_iteration_once_by_the_traced_name(monkeypatch, spec, names, expr,
                                                           traced):
    split_module = importlib.import_module("jetsplit.split")
    calls = {"iterate_diagonal": 0, "iterate_arf": 0}

    def counting(name):
        original = getattr(split_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(split_module, name, counting(name))
    split(parse_jet(expr, parse_field_spec(spec), names.split(","), 4), 4)
    assert calls == {name: int(name == traced) for name in calls}
