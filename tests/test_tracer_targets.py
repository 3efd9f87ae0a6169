"""The benchmark tracer patches dcn functions by name; every name must resolve."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves_in_its_namespaces():
    missing = []
    for layer, name, namespaces in _tracer_targets():
        for namespace in namespaces:
            if not callable(getattr(importlib.import_module(namespace), name, None)):
                missing.append(f"{namespace}.{name} ({layer})")
    assert missing == []
