"""The benchmark's per-layer tracer names program functions by path; a
function that a change deletes or moves must not silently drop out of it."""

import importlib
from pathlib import Path

from conftest import instance_operator_fields

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_span_and_instance_factory_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.SPANS
    for span, (module, path) in layers.SPANS.items():
        owner = importlib.import_module(f"cochainlab.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        # the tracer patches the attribute where it is defined, so a method
        # must be the class's own, not inherited
        assert attr in vars(owner), span
    for module, factory in layers.INSTANCE_FACTORIES:
        assert callable(getattr(importlib.import_module(f"cochainlab.{module}"), factory))


def test_every_instance_operator_is_traced(monkeypatch):
    # an operator added to or renamed in the instance contract must not drop
    # out of the perturb.instance_op span
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert sorted(layers.INSTANCE_OPERATORS) == sorted(instance_operator_fields())
