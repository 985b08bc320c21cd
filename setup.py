"""Build script: compiles the shipped C kernel ``src/qcff/_kernels/_core.c``.

The extension is optional: without a working C compiler setuptools warns
and the package runs on its pure-Python kernel, selected at import time.
``_core.c`` is generated from ``_core.pyx``; only after editing the
``.pyx`` is Cython needed, to regenerate it:

    cython -3 -o src/qcff/_kernels/_core.c src/qcff/_kernels/_core.pyx
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
