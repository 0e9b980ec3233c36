"""The benchmark's traced mode wraps names that exist in the package.

``perfbench/tracing.py`` looks up each ``(module, attribute)`` of its
``TARGETS`` with ``getattr`` when a traced run starts, so renaming or
deleting one of them would crash every ``--trace 1`` run.
"""

import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracing = importlib.import_module("tracing")
    targets = [target for layer in tracing.TARGETS.values() for target in layer]
    assert targets
    for module_name, attr in targets:
        home = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            original = vars(getattr(home, cls_name)).get(meth)
        else:
            original = getattr(home, attr, None)
        assert callable(original), (module_name, attr)
