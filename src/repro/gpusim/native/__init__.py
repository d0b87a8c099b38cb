"""C toolchain discovery (see :mod:`repro.gpusim.native.toolchain`).

Kernels execute in-process on the ``interpreted`` and ``compiled``
backends; this package keeps only compiler discovery, whose tag
benchmark environment records print.
"""
