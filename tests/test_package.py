"""The import surface: each module's __all__ is its one list of public names,
and the package root holds only __version__ and the submodules."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import dressed_cool

MODULES = [importlib.import_module(f"dressed_cool.{m.name}") for m in pkgutil.iter_modules(dressed_cool.__path__)]


def test_every_name_in_all_exists_once():
    listed = [m for m in MODULES if hasattr(m, "__all__")]
    assert {m.__name__.rpartition(".")[2] for m in listed} >= {"analysis", "dynamics", "rates", "sweep"}
    for module in listed:
        names = list(module.__all__)
        assert sorted(names) == sorted(set(names)), module.__name__
        assert [n for n in names if not hasattr(module, n)] == [], module.__name__


def test_root_holds_only_the_version():
    assert isinstance(dressed_cool.__version__, str)
    public = {k: v for k, v in vars(dressed_cool).items() if not k.startswith("__")}
    assert [k for k, v in public.items() if not isinstance(v, types.ModuleType)] == []


def _package_imports(module) -> dict[str, set[str]]:
    """Sibling modules a package module imports, each with the names it takes
    from it (empty for a whole-module import)."""
    imports: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node.module is None:  # from . import a, b
            for alias in node.names:
                imports.setdefault(alias.name, set())
        else:  # from .a import x, y
            imports.setdefault(node.module, set()).update(a.name for a in node.names)
    return imports


def test_steady_states_come_from_the_analysis_recipe():
    # sweep and the CLI reach the solver only through analysis.steady_point,
    # and the acceptance suite takes only evolve from dynamics
    by_name = {m.__name__.rpartition(".")[2]: m for m in MODULES}
    for name in ("sweep", "cli"):
        assert set(_package_imports(by_name[name])) & {"dynamics", "operators"} == set(), name
    assert _package_imports(by_name["acceptance"]).get("dynamics") == {"evolve"}
