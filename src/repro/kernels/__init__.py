"""Pluggable array-kernel backends for the rejection solvers.

The DP, FPTAS, Pareto-frontier, branch-and-bound, greedy, and exhaustive
hot paths all run on a :class:`~repro.kernels.base.Kernel` — either the
pure-python reference (always available) or the optional NumPy backend,
which is differentially tested to produce bit-identical results
(``tests/kernels/``).

Selection, in precedence order:

1. an explicit :func:`set_kernel` / :func:`use_kernel` override,
2. the ``REPRO_KERNEL`` environment variable (``python`` | ``numpy`` |
   ``auto``),
3. ``auto``: NumPy when importable, the reference otherwise.

Requesting ``numpy`` when NumPy is not installed raises
:class:`KernelUnavailableError` — never a silent fallback; the CLI turns
it into a one-line error and exit code 2.  The ``repro --kernel`` flag
sets ``REPRO_KERNEL`` so worker processes inherit the choice.
"""

from __future__ import annotations

import contextlib
import os

from repro.kernels.base import Frontier, Kernel  # noqa: F401 - re-export

__all__ = [
    "Frontier",
    "Kernel",
    "KernelUnavailableError",
    "available_kernels",
    "get_kernel",
    "kernel_names",
    "set_kernel",
    "use_kernel",
]

#: Environment variable consulted when no explicit override is set.
ENV_VAR = "REPRO_KERNEL"

#: Names accepted by :func:`set_kernel` / ``REPRO_KERNEL`` / ``--kernel``.
KERNEL_CHOICES = ("auto", "python", "numpy")


class KernelUnavailableError(RuntimeError):
    """A kernel was requested by name but cannot be provided."""


#: Explicit override installed by :func:`set_kernel` (None = use env/auto).
_OVERRIDE: Kernel | None = None

#: Lazily-instantiated backend singletons.
_INSTANCES: dict[str, Kernel] = {}


def _import_numpy():
    """Import hook split out so tests can simulate a missing NumPy."""
    import numpy

    return numpy


def numpy_available() -> bool:
    """True when the NumPy backend can be constructed."""
    try:
        _import_numpy()
    except ImportError:
        return False
    return True


def kernel_names() -> tuple[str, ...]:
    """The names of the kernels available in this environment."""
    return ("python", "numpy") if numpy_available() else ("python",)


def _instantiate(name: str) -> Kernel:
    if name in _INSTANCES:
        return _INSTANCES[name]
    if name == "python":
        from repro.kernels.pyref import PythonKernel

        kernel: Kernel = PythonKernel()
    elif name == "numpy":
        try:
            _import_numpy()
        except ImportError as exc:
            raise KernelUnavailableError(
                "kernel 'numpy' requested but numpy is not importable "
                f"({exc}); install numpy or select the 'python' kernel"
            ) from None
        from repro.kernels.array import NumpyKernel

        kernel = NumpyKernel()
    else:
        raise KernelUnavailableError(
            f"unknown kernel {name!r}; choose from {', '.join(KERNEL_CHOICES)}"
        )
    _INSTANCES[name] = kernel
    return kernel


def _resolve(name: str) -> Kernel:
    if name == "auto":
        return _instantiate("numpy" if numpy_available() else "python")
    return _instantiate(name)


def available_kernels() -> tuple[Kernel, ...]:
    """Instances of every kernel available in this environment."""
    return tuple(_instantiate(name) for name in kernel_names())


def get_kernel() -> Kernel:
    """The active kernel (override > ``REPRO_KERNEL`` > auto).

    Raises :class:`KernelUnavailableError` when the environment demands
    a backend that cannot be provided — requesting NumPy without NumPy
    must fail loudly, not silently degrade.
    """
    if _OVERRIDE is not None:
        return _OVERRIDE
    return _resolve(os.environ.get(ENV_VAR, "auto") or "auto")


def set_kernel(name: str | None) -> Kernel | None:
    """Install an explicit kernel override (None clears it).

    Returns the installed kernel (or None when cleared).  ``"auto"``
    resolves immediately against the current environment.
    """
    global _OVERRIDE
    if name is None:
        _OVERRIDE = None
        return None
    _OVERRIDE = _resolve(name)
    return _OVERRIDE


@contextlib.contextmanager
def use_kernel(name: str):
    """Context manager pinning the active kernel within a block.

    Not thread-safe: the override is process-global, matching how the
    CLI, bench harness, and tests drive kernel selection.
    """
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = _resolve(name)
    try:
        yield _OVERRIDE
    finally:
        _OVERRIDE = previous
