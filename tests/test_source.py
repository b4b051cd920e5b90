"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tnnflag"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _string_annotation_names(annotation):
    """Names read inside quoted annotations such as ``-> "Rat"``."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for sub in ast.walk(ast.parse(node.value, mode="eval")):
                if isinstance(sub, ast.Name):
                    yield sub.id


def unused_imports(tree: ast.Module) -> list[str]:
    """Names that a module imports and never reads."""
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if annotation is not None:
            used.update(_string_annotation_names(annotation))
    return sorted(imported - used)


def test_modules_found():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


# every cache below lives as long as the process; a new one fails this test
# until it is listed here on purpose
CACHED = {
    "linalg.rep_weyl",
    "richardson.base_point", "richardson.build_chart",
    "richardson.conjugator_word", "richardson._conjugator",
    "weyl._prefix_key", "weyl.bruhat_pairs", "weyl.perm_to_str",
}


def cached_functions(path: Path) -> set[str]:
    """module.function for each function decorated with a functools cache."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = getattr(decorator, "func", decorator)
                name = getattr(target, "attr", getattr(target, "id", None))
                if name in ("lru_cache", "cache"):
                    found.add(f"{path.stem}.{node.name}")
    return found


def test_caches_are_allowlisted():
    assert set().union(*map(cached_functions, MODULES)) == CACHED
