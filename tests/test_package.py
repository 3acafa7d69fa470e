"""The import surface: each module's __all__ is its one list of public names,
and the package root holds only __version__ and the submodules."""

import importlib
import pkgutil
import types

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
