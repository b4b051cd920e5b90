"""The benchmark's tracer wraps tnnflag functions by name; they must exist."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_traced_names_exist():
    # read SPANNED and COUNTED as literals, without running the tracer
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANNED", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    names = [(metric, attr) for metric, attrs in tables["SPANNED"] for attr in attrs]
    names += tables["COUNTED"]
    assert len(names) > 20
    missing = [
        f"{metric.split('.')[0]}.{attr}" for metric, attr in names
        if not callable(getattr(
            importlib.import_module("tnnflag." + metric.split(".")[0]), attr, None))
    ]
    assert missing == []
