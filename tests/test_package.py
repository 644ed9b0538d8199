import importlib
import pkgutil
import types

import pytest

import motsign

# every submodule but the command-line front end and its runner
LIBRARY_MODULES = {info.name for info in pkgutil.iter_modules(motsign.__path__)} - {"cli", "__main__"}


def _exported() -> dict[str, types.ModuleType]:
    """Each name in a library module's __all__, mapped to that module."""
    owner: dict[str, types.ModuleType] = {}
    for name in sorted(LIBRARY_MODULES):
        module = importlib.import_module(f"motsign.{name}")
        assert "__all__" in vars(module), name
        assert not owner.keys() & set(module.__all__), name  # one module per public name
        owner.update(dict.fromkeys(module.__all__, module))
    return owner


def test_package_republishes_each_module_all():
    # read through dir() and getattr, which load the lazy package, never
    # vars(motsign), which holds only what earlier lookups have loaded
    owner = _exported()
    public = {name for name in dir(motsign) if not name.startswith("_")}
    submodules = {name for name in public if isinstance(getattr(motsign, name), types.ModuleType)}
    assert all(getattr(motsign, name).__name__ == f"motsign.{name}" for name in submodules)
    assert LIBRARY_MODULES <= submodules
    assert public - submodules == owner.keys()
    for name, module in owner.items():
        assert getattr(motsign, name) is getattr(module, name), name
    assert isinstance(motsign.__version__, str)


def test_star_import_binds_each_module_all():
    owner = _exported()
    namespace: dict = {}
    exec("from motsign import *", namespace)
    assert {name for name in namespace if not name.startswith("_")} == owner.keys()
    assert all(namespace[name] is getattr(module, name) for name, module in owner.items())


@pytest.mark.parametrize("name", ["no_such_name", "_no_such_name", "__wrapped__"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(motsign, name)
    assert not hasattr(motsign, name)
