"""Hot-loop kernels: one pure-Python backend and one compiled mirror.

Two loops dominate once the timing model is out of the way: the
functional-warming walk of one thread's span through the line buffers,
the I-side caches and the fetch predictors (:func:`warm_span`, called
by :class:`~repro.sampling.warmer.BatchedWarmer`), and the commit
engine's deterministic float credit walk (:func:`replay_walk`, called
by :class:`~repro.backend.backend.CommitEngine`). Consumers call these
two entry points unconditionally; this package binds them once at
import to one of two backends:

* :mod:`repro.kernels.pylib` — the pure-Python implementations. Always
  available; they are the ``py`` backend's production path and the
  specification the compiled backend is tested against.
* ``repro.kernels._native`` — a hand-written C extension built by
  ``python -m repro.kernels.build`` (any C compiler; no third-party
  packages). Bit-identical to ``pylib`` on every input, enforced by
  :mod:`tests.test_kernels` and the CI compiled-vs-python matrix leg.

The native module is used when its shared object is present, otherwise
``pylib`` — the compiler is never a hard dependency. The
``REPRO_KERNELS`` environment variable overrides the choice: ``py``
forces ``pylib`` even when the extension is built; ``compiled`` demands
the extension and raises :class:`~repro.errors.ConfigurationError` when
it is missing or stale (so CI legs cannot silently test the wrong
backend).
"""

from __future__ import annotations

import importlib
import os

from repro.errors import ConfigurationError
from repro.kernels import pylib

__all__ = [
    "NATIVE",
    "backend_name",
    "warm_span",
    "replay_walk",
    "REPLAY_NEXT",
    "REPLAY_HORIZON",
    "REPLAY_DRAIN",
    "REPLAY_STEPS",
]

_REQUESTED = os.environ.get("REPRO_KERNELS", "").strip().lower()
if _REQUESTED not in ("", "py", "compiled"):
    raise ConfigurationError(
        f"REPRO_KERNELS must be 'py' or 'compiled', got {_REQUESTED!r}"
    )

_native = None
if _REQUESTED != "py":
    try:
        _native = importlib.import_module("repro.kernels._native")
    except ImportError:
        if _REQUESTED == "compiled":
            raise ConfigurationError(
                "REPRO_KERNELS=compiled but the native extension is not "
                "built; run `python -m repro.kernels.build` first"
            ) from None
    else:
        # A stale build from before an entry point was added must not
        # half-engage: either the whole surface is native or none of it.
        if not all(
            hasattr(_native, name) for name in ("warm_span", "replay_walk")
        ):
            if _REQUESTED == "compiled":
                raise ConfigurationError(
                    "REPRO_KERNELS=compiled but the built extension is "
                    "stale (missing entry points); rerun "
                    "`python -m repro.kernels.build` "
                    "(`--check` shows the staleness)"
                )
            _native = None

#: True when the compiled backend is active for this process.
NATIVE = _native is not None

#: :func:`replay_walk` mode selectors (see :mod:`repro.kernels.pylib`).
REPLAY_NEXT = pylib.REPLAY_NEXT
REPLAY_HORIZON = pylib.REPLAY_HORIZON
REPLAY_DRAIN = pylib.REPLAY_DRAIN
REPLAY_STEPS = pylib.REPLAY_STEPS

_impl = _native if NATIVE else pylib
warm_span = _impl.warm_span
replay_walk = _impl.replay_walk


def backend_name() -> str:
    """The active kernel backend: ``"compiled"`` or ``"py"``."""
    return "compiled" if NATIVE else "py"
