"""Static checks on the package source."""

import ast
import fractions
from pathlib import Path

import pytest

from conftest import traced_names
import tnnflag
from tnnflag import errors, linalg, richardson, weyl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tnnflag"
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


def imported_modules(tree: ast.Module) -> set[str]:
    """Top-level names of the modules that a module imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_modules_found():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_no_second_rational_backend():
    # the benchmark tracer counts Fraction operations only
    assert [p.name for p in SRC.glob("*.py")
            if "gmpy2" in imported_modules(ast.parse(p.read_text()))] == []


def test_fraction_is_the_rational_type():
    assert linalg.Rat is fractions.Fraction


# every cache below lives as long as the process; a new one fails this test
# until it is listed here on purpose
CACHED = {
    "richardson.base_point", "richardson.build_chart",
    "richardson.conjugator_word", "richardson._step",
    "weyl._prefix_key", "weyl._table", "weyl.bruhat_pairs",
}


# caches with no size bound: a process that builds charts of many ranks must
# not grow without limit
UNBOUNDED = set()


def cached_functions(path: Path) -> dict[str, bool]:
    """module.function -> whether its functools cache is unbounded, for each
    function decorated with one."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = getattr(decorator, "func", decorator)
                name = getattr(target, "attr", getattr(target, "id", None))
                if name == "cache":
                    found[f"{path.stem}.{node.name}"] = True
                elif name == "lru_cache":
                    # a bare @lru_cache is bounded at 128
                    bound = getattr(decorator, "args", [])[:1] + [
                        k.value for k in getattr(decorator, "keywords", ())
                        if k.arg == "maxsize"]
                    found[f"{path.stem}.{node.name}"] = bool(bound) and (
                        isinstance(bound[0], ast.Constant) and bound[0].value is None)
    return found


def _all_caches() -> dict[str, bool]:
    found = {}
    for path in MODULES:
        found.update(cached_functions(path))
    return found


def test_caches_are_allowlisted():
    assert set(_all_caches()) == CACHED


def test_only_the_allowlisted_caches_are_unbounded():
    assert {name for name, unbounded in _all_caches().items() if unbounded} == UNBOUNDED


# the chart cache's bound is a literal so that importing weyl builds no
# interval; it must be the number of pairs up to the rank bound, so that the
# cache never evicts a chart that another chart links to
def test_pair_bound_counts_every_pair():
    assert weyl.PAIRS_UNDER_RANK_BOUND == sum(
        len(weyl.bruhat_pairs(n)) for n in range(1, weyl.MAX_RANK + 1))
    assert richardson.build_chart.cache_parameters()["maxsize"] == \
        weyl.PAIRS_UNDER_RANK_BOUND


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree: ast.Module) -> list[str]:
    """``os.environ``, ``os.getenv`` and the like, read or imported by name."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"os.{a.name}" for a in node.names if a.name in ENVIRONMENT_READS]
    return found


def test_environment_reads_are_found():
    assert environment_reads(ast.parse(
        "import os\nos.environ.get('X')\nos.getenv('Y')\nfrom os import environ"
    )) == ["os.environ", "os.getenv", "os.environ"]


# every setting is a constant or a command-line option: an environment
# variable would be a knob that no test or cache bound sees
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    assert environment_reads(ast.parse(path.read_text())) == []


def names_read(tree: ast.Module) -> set[str]:
    """Every name a module imports, reads, or reaches as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found |= {a.name for a in node.names}
    return found


def test_names_read_are_found():
    assert names_read(ast.parse(
        "from .linalg import mat_mul\nlinalg.y_product(3, (), ())\nf(x)"
    )) == {"mat_mul", "linalg", "y_product", "f", "x"}


# the chart path applies generators as row and column updates
# (linalg.y_mul, mul_x, weyl_mul); matrix products are for general matrices
def test_charts_multiply_no_matrices():
    tree = ast.parse((SRC / "richardson.py").read_text())
    assert names_read(tree) & {"mat_mul", "y_product"} == set()


def unreached_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """module.name for each module-level function and class that no other
    statement of the modules reads by name."""
    statements = [(stem, node, names_read(node))
                  for stem, tree in trees.items() for node in tree.body]
    return sorted(
        f"{stem}.{node.name}" for stem, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in names for _, other, names in statements
                    if other is not node))


def test_unreached_definitions_are_found():
    trees = {"a": ast.parse("def f():\n    return f()\n\ndef g():\n    return f()\n"),
             "b": ast.parse("class C:\n    pass\n\nc = C()\n")}
    assert unreached_definitions(trees) == ["a.g"]


# only code that a command reaches belongs in src/: every definition must be
# read by name elsewhere in a module (the package's own __init__ keeps
# nothing alive), unless the benchmark's tracer wraps it by name
def test_every_definition_is_reached():
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    traced = {f"{metric.split('.')[0]}.{attr}" for metric, attr in traced_names()}
    unreached = set(unreached_definitions(trees)) - traced
    assert sorted(unreached) == []


@pytest.mark.parametrize("module", [tnnflag, errors], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    # so that ``from module import *`` works
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
