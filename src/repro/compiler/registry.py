"""Compiler registry: named factories, serializable specs, fingerprints.

The registry is the stable naming layer of the compilation API: every
compiler in the comparison is registered under a short name
(``initial``, ``coyote``, ``greedy``, ``beam``, ``chehab-rl``) together with
an optional *options normalizer* that folds user overrides into the
compiler's full options dataclass.  A frozen, picklable
:class:`CompilerSpec` names one configuration; it can

* :meth:`~CompilerSpec.build` the compiler object, and
* render a canonical, version-stamped :meth:`~CompilerSpec.describe` string
  that is byte-stable across processes — the
  :class:`~repro.service.service.CompilationService` and
  :class:`~repro.service.cache.CompilationCache` key on it, which is what
  gives every registered compiler (Coyote included) stable in-memory *and*
  on-disk cache keys.

The module also owns :func:`compiler_fingerprint`, the canonical
field-by-field rendering of a live compiler object's configuration
(historically in :mod:`repro.service.cache`, which still re-exports it).
"""

from __future__ import annotations

import dataclasses
import itertools
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "CompilerInfo",
    "CompilerSpec",
    "register_compiler",
    "available_compilers",
    "compiler_info",
    "build_compiler",
    "resolve_compiler",
    "render_value",
    "is_canonical",
    "compiler_fingerprint",
]


# ---------------------------------------------------------------------------
# canonical value rendering
# ---------------------------------------------------------------------------
def render_value(value: object) -> str:
    """Canonical, deterministic textual rendering of a configuration value."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = sorted(
            (f.name, render_value(getattr(value, f.name))) for f in dataclasses.fields(value)
        )
        inner = ",".join(f"{name}={rendered}" for name, rendered in fields)
        return f"{type(value).__name__}({inner})"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(render_value(item) for item in value) + "]"
    if isinstance(value, dict):
        inner = ",".join(f"{k}={render_value(v)}" for k, v in sorted(value.items()))
        return "{" + inner + "}"
    if isinstance(value, float):
        return repr(value)
    return repr(value)


#: Types whose repr() is deterministic across processes.
_CANONICAL_TYPES = (type(None), bool, int, float, str, bytes)


def is_canonical(value: object) -> bool:
    """True when :func:`render_value` is byte-stable across processes.

    Live objects (e.g. a trained RL agent passed as a factory option) render
    as ``repr()`` with a memory address — valid only within one process, so
    anything containing one must never be used as a persistent cache key.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return all(is_canonical(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple, set, frozenset)):
        return all(is_canonical(item) for item in value)
    if isinstance(value, dict):
        return all(is_canonical(k) and is_canonical(v) for k, v in value.items())
    return isinstance(value, _CANONICAL_TYPES)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CompilerInfo:
    """One registry entry."""

    name: str
    #: Builds the compiler object from keyword options.
    factory: Callable[..., object]
    #: Folds keyword options into the compiler's full options value (with
    #: every default made explicit) for canonical rendering; None renders the
    #: given options as-is.
    normalize: Optional[Callable[..., object]] = None
    description: str = ""
    #: The paper configuration this name corresponds to (Table 6 column,
    #: figure series label, ...).
    paper_config: str = ""


_REGISTRY: Dict[str, CompilerInfo] = {}
_builtins_loaded = False


def register_compiler(
    name: str,
    *,
    normalize: Optional[Callable[..., object]] = None,
    description: str = "",
    paper_config: str = "",
) -> Callable:
    """Decorator registering a compiler factory under ``name``."""

    def decorator(factory: Callable[..., object]) -> Callable[..., object]:
        if name in _REGISTRY:
            raise ValueError(f"compiler {name!r} is already registered")
        doc = description or (factory.__doc__ or "").strip().splitlines()[0:1]
        _REGISTRY[name] = CompilerInfo(
            name=name,
            factory=factory,
            normalize=normalize,
            description=description or ("".join(doc) if doc else ""),
            paper_config=paper_config,
        )
        return factory

    return decorator


def _ensure_builtins() -> None:
    """Import the modules that register the built-in compilers."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    import repro.baselines  # noqa: F401  (registers initial/coyote/greedy)
    import repro.compiler.builtin_compilers  # noqa: F401  (beam, chehab-rl)


def available_compilers() -> List[str]:
    """Sorted names of every registered compiler."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def compiler_info(name: str) -> CompilerInfo:
    """The registry entry for ``name``."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown compiler {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def build_compiler(name: str, **options: object) -> object:
    """Build a fresh compiler instance for ``name`` with ``options``."""
    return CompilerSpec.create(name, **options).build()


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CompilerSpec:
    """A named, serializable compiler configuration.

    ``options`` is stored as a sorted tuple of ``(key, value)`` pairs so the
    spec is hashable and picklable; use :meth:`create` (or
    :func:`resolve_compiler`) rather than building the tuple by hand.
    """

    name: str
    options: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def create(cls, name: str, **options: object) -> "CompilerSpec":
        """The spec for ``name`` with ``options``; rejects invalid options.

        The options go through the compiler's normalizer here, so an unknown
        or out-of-range option fails now rather than mid-compile.
        """
        spec = cls(name=name, options=tuple(sorted(options.items())))
        spec._normalized_options()
        return spec

    @property
    def options_dict(self) -> Dict[str, object]:
        return dict(self.options)

    def build(self) -> object:
        """Construct the compiler object this spec names."""
        info = compiler_info(self.name)
        compiler = info.factory(**self.options_dict)
        # Stamp the spec on the instance so compiler_fingerprint (and the
        # cache) can recover the canonical describe() string from the object.
        try:
            compiler._compiler_spec = self  # type: ignore[attr-defined]
        except AttributeError:
            pass
        return compiler

    def _normalized_options(self) -> object:
        info = compiler_info(self.name)
        if info.normalize is not None:
            return info.normalize(**self.options_dict)
        return self.options_dict

    @property
    def stable(self) -> bool:
        """True when :meth:`describe` is byte-stable across processes.

        A spec carrying a live object option (e.g. ``agent=<trained agent>``)
        renders with a memory address; such configurations must stay out of
        the persistent cache tier.
        """
        return is_canonical(self._normalized_options())

    def describe(self) -> str:
        """Canonical, version-stamped rendering of this configuration.

        When :attr:`stable` is True the string is byte-stable across
        processes: options are normalized into the compiler's full options
        value (defaults made explicit) and rendered field-by-field, and the
        package version is stamped in so a persistent cache never serves
        circuits from an older compiler.
        """
        import repro

        normalized = self._normalized_options()
        if isinstance(normalized, dict):
            inner = ",".join(
                f"{key}={render_value(value)}" for key, value in sorted(normalized.items())
            )
            rendered = "{" + inner + "}"
        else:
            rendered = render_value(normalized)
        return f"repro-{repro.__version__}::{self.name}::{rendered}"


def resolve_compiler(compiler: object, **options: object) -> Tuple[object, Optional[CompilerSpec]]:
    """Normalize a name / spec / compiler object into ``(instance, spec)``.

    Strings become specs via the registry; specs are built; live compiler
    objects pass through (``spec`` is then whatever :meth:`CompilerSpec.build`
    stamped on them, if anything).  Extra ``options`` are only legal with a
    name.
    """
    if isinstance(compiler, str):
        spec = CompilerSpec.create(compiler, **options)
        return spec.build(), spec
    if options:
        raise ValueError("compiler options require a registry name, not an instance")
    if isinstance(compiler, CompilerSpec):
        return compiler.build(), compiler
    return compiler, getattr(compiler, "_compiler_spec", None)


# ---------------------------------------------------------------------------
# fingerprints of live compiler objects
# ---------------------------------------------------------------------------
#: Monotonic per-instance tokens for objects without a canonical rendering.
#: ``id()`` alone can be recycled after garbage collection, which would let
#: a new optimizer silently hit a dead optimizer's cache entries.
_instance_tokens = weakref.WeakKeyDictionary()
_instance_counter = itertools.count(1)


def _instance_token(obj: object) -> str:
    try:
        token = _instance_tokens.get(obj)
        if token is None:
            token = next(_instance_counter)
            _instance_tokens[obj] = token
    except TypeError:  # not weak-referenceable; id() is the best we have
        return f"{id(obj):#x}"
    return f"i{token}"


def _optimizer_fingerprint(optimizer: object) -> Tuple[str, bool]:
    """Fingerprint of the optimizer field; ``(text, stable)``."""
    if optimizer is None or isinstance(optimizer, str):
        return repr(optimizer), True
    token = getattr(optimizer, "cache_token", None)
    if callable(token):
        token = token()
    if token is not None:
        return f"{type(optimizer).__name__}:{token}", True
    # Arbitrary optimizer objects (e.g. a trained RL agent) have no canonical
    # configuration rendering: fall back to a per-instance fingerprint that
    # is valid only within this process.
    return f"{type(optimizer).__name__}@{_instance_token(optimizer)}", False


def compiler_fingerprint(compiler: object) -> Tuple[str, bool]:
    """Canonical fingerprint of a compiler's configuration.

    Returns ``(fingerprint, stable)``; ``stable`` is False when the
    fingerprint is only meaningful within the current process (such entries
    are kept out of the disk tier).

    Compilers built through a :class:`CompilerSpec` fingerprint as the spec's
    :meth:`~CompilerSpec.describe` string, so an object built from a name and
    a service keyed directly on a spec share cache entries.  Specs whose
    options contain live objects (``spec.stable`` is False) fall through to
    the object-based rendering below, which uses recycling-safe per-instance
    tokens instead of memory addresses.
    """
    from repro.compiler.pipeline import Compiler, CompilerOptions

    spec = getattr(compiler, "_compiler_spec", None)
    if isinstance(spec, CompilerSpec) and spec.stable:
        return spec.describe(), True
    # Wrappers such as GreedyChehabCompiler delegate to an inner Compiler.
    inner = getattr(compiler, "_compiler", None)
    if isinstance(inner, Compiler):
        return compiler_fingerprint(inner)
    if isinstance(compiler, Compiler):
        options = compiler.options
        opt_text, stable = _optimizer_fingerprint(options.optimizer)
        parts = [f"optimizer={opt_text}"]
        for f in dataclasses.fields(CompilerOptions):
            if f.name == "optimizer":
                continue
            parts.append(f"{f.name}={render_value(getattr(options, f.name))}")
        return f"Compiler({','.join(parts)})", stable
    options = getattr(compiler, "options", None)
    if dataclasses.is_dataclass(options) and not isinstance(options, type):
        return f"{type(compiler).__name__}({render_value(options)})", True
    return f"{type(compiler).__name__}@{id(compiler):#x}", False
