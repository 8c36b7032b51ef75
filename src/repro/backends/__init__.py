"""Pluggable execution backends for runtime-scheduled loops.

Public surface:

* :class:`ExecutionBackend` — the protocol.
* :func:`register_backend`, :func:`backend_names`,
  :func:`resolve_backend_name`, :func:`create_backend`,
  :func:`resolve_backend` — the registry and selection rules
  (explicit name > ``$REPRO_BACKEND`` > ``reference``).
* :class:`LoopRunRequest` — the argument bundle every backend consumes.
* The two built-in backends: :class:`ReferenceBackend` (the simulated
  engine) and :class:`RealBackend` (actual threads via
  :mod:`repro.exec_real`).
"""

from repro.backends.common import LoopRunRequest
from repro.backends.core import (
    DEFAULT_BACKEND,
    ENV_VAR,
    ExecutionBackend,
    backend_names,
    create_backend,
    register_backend,
    resolve_backend,
    resolve_backend_name,
)
from repro.backends.real import RealBackend
from repro.backends.reference import ReferenceBackend

register_backend(ReferenceBackend.name, ReferenceBackend)
register_backend(RealBackend.name, RealBackend)

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "ExecutionBackend",
    "LoopRunRequest",
    "RealBackend",
    "ReferenceBackend",
    "backend_names",
    "create_backend",
    "register_backend",
    "resolve_backend",
    "resolve_backend_name",
]
