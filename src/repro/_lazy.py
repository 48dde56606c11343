"""Lazy package exports (PEP 562), shared by every ``repro`` package.

A package ``__init__`` lists each re-exported name once, under the
submodule that defines it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.hardware.node": ("NodeSpec", "a100_node"),
    })

Importing the package then runs no submodule.  The first access to a
name imports its submodule and stores the value in the package
namespace, so later lookups never reach ``__getattr__`` again.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a submodule's full name to the names it provides.
    """
    owner: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__, list(owner)
