"""Lazy package exports (PEP 562): a name's module is imported on first access."""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` of a package exporting ``table`` lazily.

    ``table`` maps a module, relative to ``package``, to the names the
    package re-exports from it.  Nothing is imported until a name is first
    read; its value is then kept in the package namespace, so later reads
    are plain attribute lookups.
    """
    exports = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module, package), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__, sorted(exports)
