import importlib
import pkgutil
import types

import motsign

# every submodule but the command-line front end and its runner
LIBRARY_MODULES = {info.name for info in pkgutil.iter_modules(motsign.__path__)} - {"cli", "__main__"}


def test_package_republishes_each_module_all():
    exported: set[str] = set()
    for name in sorted(LIBRARY_MODULES):
        module = importlib.import_module(f"motsign.{name}")
        assert "__all__" in vars(module), name
        assert not exported & set(module.__all__), name  # one module per public name
        exported |= set(module.__all__)
    public = {name for name in vars(motsign) if not name.startswith("_")}
    submodules = {name for name in public if isinstance(getattr(motsign, name), types.ModuleType)}
    assert all(getattr(motsign, name).__name__ == f"motsign.{name}" for name in submodules)
    assert LIBRARY_MODULES <= submodules
    assert public - submodules == exported
    assert isinstance(motsign.__version__, str)
