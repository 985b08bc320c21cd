"""Kernel backend selection.

The compiled kernel (the extension ``_core``, built from the hand-written
C file ``_core.c``) is used when it imports; otherwise the pure-Python
kernel is, and ``IMPORT_ERROR`` keeps the reason. Both take coefficient
sequences and implement the same interface.
"""

from __future__ import annotations

from .pure import FieldKernel as PureFieldKernel

IMPORT_ERROR: ImportError | None = None
try:
    from ._core import FieldKernel as CompiledFieldKernel
except ImportError as exc:
    CompiledFieldKernel = None
    IMPORT_ERROR = exc

if CompiledFieldKernel is not None:
    FieldKernel = CompiledFieldKernel
    BACKEND = "compiled"
else:
    FieldKernel = PureFieldKernel
    BACKEND = "pure"


def backend_name() -> str:
    """Name of the kernel backend selected at import time."""
    return BACKEND
