"""Kernel backend selection.

The compiled kernel (the extension ``_core``, built from the shipped
``_core.c``) is used when it imports; otherwise the pure-Python kernel is.
Both take coefficient sequences and implement the same interface.
"""

from __future__ import annotations

from .pure import FieldKernel as PureFieldKernel

try:
    from ._core import FieldKernel as CompiledFieldKernel
except ImportError:
    CompiledFieldKernel = None

if CompiledFieldKernel is not None:
    FieldKernel = CompiledFieldKernel
    BACKEND = "cython"
else:
    FieldKernel = PureFieldKernel
    BACKEND = "pure"


def backend_name() -> str:
    """Name of the kernel backend selected at import time."""
    return BACKEND
