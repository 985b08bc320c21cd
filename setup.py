"""Build script: compiles the C kernel ``src/qcff/_kernels/_core.c``.

``_core.c`` is hand-written against the CPython API and needs only a C
compiler and the Python headers. The extension is optional: without a
working C compiler setuptools warns and the package runs on its
pure-Python kernel, selected at import time.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "qcff._kernels._core",
            ["src/qcff/_kernels/_core.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
