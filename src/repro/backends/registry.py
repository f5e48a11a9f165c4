"""Execution-backend registry: named factories, serializable specs.

The mirror image of :mod:`repro.compiler.registry` for the *execution* half
of the system: every backend is registered under a short name
(``reference``, ``vector-vm``) through the same decorator/spec
idiom as ``@register_compiler``.  A frozen, picklable :class:`BackendSpec`
names one configuration, can :meth:`~BackendSpec.build` the backend object
and renders a canonical, version-stamped :meth:`~BackendSpec.describe`
string — the execution-side counterpart of the compiler ``describe()``
strings that key the compilation cache.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.compiler.registry import is_canonical, render_value

__all__ = [
    "BackendInfo",
    "BackendSpec",
    "register_backend",
    "available_backends",
    "backend_info",
    "build_backend",
    "resolve_backend",
    "get_backend",
    "default_backend_name",
    "DEFAULT_BACKEND",
]

#: The backend used when none is named and ``REPRO_BACKEND`` is unset.
DEFAULT_BACKEND = "reference"


def default_backend_name() -> str:
    """The backend used when callers pass ``backend=None``.

    ``REPRO_BACKEND`` overrides the built-in default (``reference``), which
    lets whole harnesses be rerun on another backend without touching code.
    """
    return os.environ.get("REPRO_BACKEND", "") or DEFAULT_BACKEND


@dataclass(frozen=True)
class BackendInfo:
    """One registry entry."""

    name: str
    #: Builds the backend object from keyword options.
    factory: Callable[..., object]
    description: str = ""
    #: When to reach for this backend (shown by ``list-backends``).
    use_when: str = ""


_REGISTRY: Dict[str, BackendInfo] = {}
_builtins_loaded = False


def register_backend(
    name: str,
    *,
    description: str = "",
    use_when: str = "",
) -> Callable:
    """Decorator registering an execution-backend factory under ``name``."""

    def decorator(factory: Callable[..., object]) -> Callable[..., object]:
        if name in _REGISTRY:
            raise ValueError(f"backend {name!r} is already registered")
        doc_lines = (factory.__doc__ or "").strip().splitlines()
        _REGISTRY[name] = BackendInfo(
            name=name,
            factory=factory,
            description=description or (doc_lines[0] if doc_lines else ""),
            use_when=use_when,
        )
        return factory

    return decorator


def _ensure_builtins() -> None:
    """Import the modules that register the built-in backends."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    import repro.backends.reference  # noqa: F401
    import repro.backends.vector_vm  # noqa: F401


def available_backends() -> List[str]:
    """Sorted names of every registered backend."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def backend_info(name: str) -> BackendInfo:
    """The registry entry for ``name``."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def build_backend(name: str, **options: object) -> object:
    """Build a fresh backend instance for ``name`` with ``options``."""
    return BackendSpec.create(name, **options).build()


@dataclass(frozen=True)
class BackendSpec:
    """A named, serializable execution-backend configuration."""

    name: str
    options: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def create(cls, name: str, **options: object) -> "BackendSpec":
        return cls(name=name, options=tuple(sorted(options.items())))

    @property
    def options_dict(self) -> Dict[str, object]:
        return dict(self.options)

    def build(self) -> object:
        """Construct the backend object this spec names."""
        info = backend_info(self.name)
        backend = info.factory(**self.options_dict)
        try:
            backend._backend_spec = self  # type: ignore[attr-defined]
        except AttributeError:
            pass
        return backend

    @property
    def stable(self) -> bool:
        """True when :meth:`describe` is byte-stable across processes."""
        return is_canonical(self.options_dict)

    def describe(self) -> str:
        """Canonical, version-stamped rendering of this configuration.

        Versions the execution side of cache keys the same way compiler
        ``describe()`` strings version the compilation side: a persistent
        store keyed on it never mixes figures from different backend
        implementations or package versions.
        """
        import repro

        inner = ",".join(
            f"{key}={render_value(value)}" for key, value in self.options
        )
        return f"repro-{repro.__version__}::backend::{self.name}::{{{inner}}}"


def resolve_backend(
    backend: object = None, **options: object
) -> Tuple[object, Optional[BackendSpec]]:
    """Normalize a name / spec / backend object into ``(instance, spec)``.

    ``None`` resolves to :func:`default_backend_name`, so every entry point
    shares one ``REPRO_BACKEND``-aware default.
    """
    if backend is None:
        backend = default_backend_name()
    if isinstance(backend, str):
        spec = BackendSpec.create(backend, **options)
        return spec.build(), spec
    if options:
        raise ValueError("backend options require a registry name, not an instance")
    if isinstance(backend, BackendSpec):
        return backend.build(), backend
    return backend, getattr(backend, "_backend_spec", None)


def get_backend(backend: object = None, **options: object) -> object:
    """The backend instance for a name, spec, live object or None (default)."""
    instance, _ = resolve_backend(backend, **options)
    return instance
