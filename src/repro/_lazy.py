"""Lazy package exports (PEP 562).

A package ``__init__`` that declares its exports through
:func:`lazy_exports` imports none of its submodules.  An exported name,
or a submodule read as an attribute of the package, is imported on
first access, so a process loads only the modules it runs: a fault-free
campaign cell never pays for the exhibit modules or the analysis package.
"""

import importlib
import sys


def lazy_exports(package, exports):
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each submodule (relative to ``package``) to the
    public names it defines.  Nothing is cached in the package namespace,
    so a name always reads the submodule's current binding.
    """
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        module = owner.get(name)
        if module is not None:
            return getattr(importlib.import_module(f"{package}.{module}"), name)
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__():
        namespace = vars(sys.modules[package])
        return sorted(set(namespace) | set(namespace["__all__"]))

    return list(owner), __getattr__, __dir__
