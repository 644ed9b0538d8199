"""Exact arithmetic for the family of multiplications on Z x Z-graded
homotopy rings: cocycle twists of the reference product, the induced
graded-commutativity laws, translation between sign conventions,
realization-compatibility checks, and a weight-parity table scanner.

Each module's __all__ is the one list of its public names; the package
republishes them all.  Importing the package loads no module: a submodule
name (`motsign.algebra`) loads that submodule alone, and the first lookup
of any other public name (`from motsign import Coef`, `motsign.Coef`,
`dir(motsign)`, `from motsign import *`) loads the library once and
publishes every module's __all__ here."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the library modules; cli, the command-line front end, is not republished
_MODULES = ("algebra", "catalog", "cocycles", "conventions", "errors", "realize", "scan", "units")


def _publish() -> None:
    namespace = globals()
    if "__all__" in namespace:
        return
    exported: list[str] = []
    for short in _MODULES:
        module = _import_module(f"{__name__}.{short}")
        namespace.update((name, getattr(module, name)) for name in module.__all__)
        exported += module.__all__
    namespace["__all__"] = exported


def __getattr__(name: str):
    if name in _MODULES:
        return _import_module(f"{__name__}.{name}")
    if not name.startswith("_") or name == "__all__":
        _publish()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _publish()
    return sorted(globals())
