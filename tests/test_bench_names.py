"""The benchmark's tracer wraps tnnflag functions by name; they must exist."""

import importlib

from conftest import traced_names


def test_traced_names_exist():
    names = traced_names()
    assert len(names) > 20
    missing = [
        f"{metric.split('.')[0]}.{attr}" for metric, attr in names
        if not callable(getattr(
            importlib.import_module("tnnflag." + metric.split(".")[0]), attr, None))
    ]
    assert missing == []
