"""Unified tree-builder registry: one name-keyed entry point for every tree.

Every algorithm that turns a :class:`~repro.network.model.Network` into an
:class:`~repro.core.tree.AggregationTree` — IRA, the exact MILP, the local
search, and all the baselines — registers here under a canonical name, and
every consumer (experiments, both CLIs, the distributed simulator) resolves
builders by that string instead of importing ``build_*_tree`` functions
directly.  That keeps builder sets open for extension (drop a decorated
function in, it shows up in ``repro builders`` and every sweep) and makes
builder choice data, which is what the parallel harness needs: a name
pickles, a closure does not.

Usage::

    from repro.engine import build_tree, tree_builder

    result = build_tree("ira", net, lc=1_000_000)   # BuildResult
    result.tree.reliability()

    @tree_builder("my_heuristic", knobs={"depth": "maximum tree depth"})
    def _my_heuristic(network, *, depth=4):
        \"\"\"One-line summary shown by ``repro builders``.\"\"\"
        ...

Stock builders live in :mod:`repro.engine.builders` and are registered
lazily on first lookup, so importing the registry costs nothing.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core.tree import AggregationTree
from repro.network.model import Network
from repro.obs import OBS

__all__ = [
    "BuildResult",
    "RegisteredBuilder",
    "UnknownBuilderError",
    "available_builders",
    "build_tree",
    "get_builder",
    "register_builder",
    "tree_builder",
]


class UnknownBuilderError(KeyError):
    """Raised when resolving a builder name that is not registered."""


@dataclass(frozen=True)
class BuildResult:
    """Outcome of one builder invocation.

    Attributes:
        builder: Canonical name the builder is registered under.
        tree: The constructed aggregation tree.
        params: The config knobs the caller passed (post-defaulting happens
            inside the builder; this records the *request*).
        meta: Builder-specific metadata (iterations, LP solves, lifetime...).
        elapsed_s: Wall-clock build time in seconds.
    """

    builder: str
    tree: AggregationTree
    params: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def cost(self) -> float:
        """``C(T)`` of the built tree (natural-log units)."""
        return self.tree.cost()

    @property
    def reliability(self) -> float:
        """``Q(T)`` of the built tree."""
        return self.tree.reliability()

    @property
    def lifetime(self) -> float:
        """``L(T)`` of the built tree in aggregation rounds."""
        return self.tree.lifetime()


@dataclass(frozen=True, eq=False)
class RegisteredBuilder:
    """A registered builder: wraps the raw function with normalization + obs.

    The wrapped function returns an :class:`AggregationTree` or a
    ``(tree, meta)`` pair; ``build`` stamps the name, params, and elapsed
    time.  ``knobs`` names exactly the function's keyword-only parameters
    (:func:`register_builder` checks it).
    """

    name: str
    fn: Callable[..., Any]
    summary: str
    knobs: Mapping[str, str]

    def build(self, network: Network, **config: Any) -> BuildResult:
        start = time.perf_counter()
        out = self.fn(network, **config)
        elapsed = time.perf_counter() - start
        meta: Dict[str, Any] = {}
        if isinstance(out, tuple) and len(out) == 2:
            out, meta = out[0], dict(out[1])
        if not isinstance(out, AggregationTree):
            raise TypeError(
                f"builder {self.name!r} returned {type(out).__name__}; expected "
                "an AggregationTree or a (tree, meta) pair"
            )
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("engine.builds", builder=self.name).inc()
            reg.histogram("engine.build_seconds", builder=self.name).observe(
                elapsed
            )
        return BuildResult(
            builder=self.name,
            tree=out,
            params=dict(config),
            meta=meta,
            elapsed_s=elapsed,
        )

    def describe(self) -> str:
        """Multi-line help text: ``name — summary`` plus one line per knob."""
        lines = [f"{self.name} — {self.summary}"]
        for knob, help_text in self.knobs.items():
            lines.append(f"    {knob:<16} {help_text}")
        return "\n".join(lines)


_REGISTRY: Dict[str, RegisteredBuilder] = {}
_DEFAULTS_LOADED = False


def _ensure_defaults() -> None:
    global _DEFAULTS_LOADED
    if not _DEFAULTS_LOADED:
        _DEFAULTS_LOADED = True
        # Imported for its registration side effects.
        import repro.engine.builders  # noqa: F401


def _check_signature(builder: RegisteredBuilder) -> None:
    """Raise ``TypeError`` unless the builder is ``fn(network, *, <knobs>)``.

    ``network`` must be the only positional parameter and the keyword-only
    parameters must be exactly the declared knobs: a knob can never bind a
    position by accident, and the knob list that ``repro builders``, the
    docs and serve admission read is the signature itself.
    """
    fn = builder.fn
    params = inspect.signature(fn).parameters.values()
    positional = [
        p.name
        for p in params
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    if positional != ["network"] or any(p.kind is p.VAR_POSITIONAL for p in params):
        raise TypeError(
            f"builder {builder.name!r}: {getattr(fn, '__qualname__', fn)!s} must take "
            "'network' as its only positional parameter, with every config "
            "knob keyword-only (after '*'); RegisteredBuilder.build calls "
            f"fn(network, **config), got positional {positional}"
        )
    keyword = sorted(p.name for p in params if p.name != "network")
    if keyword != sorted(builder.knobs) or any(p.kind is p.VAR_KEYWORD for p in params):
        raise TypeError(
            f"builder {builder.name!r}: knobs {sorted(builder.knobs)} must name "
            f"exactly its keyword-only parameters {keyword}"
        )


def register_builder(builder: RegisteredBuilder) -> RegisteredBuilder:
    """Add *builder* to the registry.

    Raises ``ValueError`` on a duplicate name and ``TypeError`` when the
    function's signature is not ``fn(network, *, <knobs>)``.
    """
    if builder.name in _REGISTRY:
        raise ValueError(f"builder {builder.name!r} is already registered")
    _check_signature(builder)
    _REGISTRY[builder.name] = builder
    return builder


def tree_builder(
    name: str, *, knobs: Optional[Mapping[str, str]] = None
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator registering a builder function under *name*.

    ``knobs`` maps config-knob names to one-line help strings; the summary
    is the first line of the function's docstring.
    """

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        doc = (fn.__doc__ or "").strip().splitlines()
        doc = doc[0] if doc else name
        register_builder(
            RegisteredBuilder(
                name=name, fn=fn, summary=doc, knobs=dict(knobs or {})
            )
        )
        return fn

    return decorator


def available_builders() -> Tuple[str, ...]:
    """Sorted canonical names of every registered builder."""
    _ensure_defaults()
    return tuple(sorted(_REGISTRY))


def get_builder(name: str) -> RegisteredBuilder:
    """Resolve a builder by name; raises :class:`UnknownBuilderError`."""
    _ensure_defaults()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBuilderError(
            f"unknown tree builder {name!r}; available: "
            + ", ".join(sorted(_REGISTRY))
        ) from None


def build_tree(name: str, network: Network, **config: Any) -> BuildResult:
    """Resolve *name* and build a tree on *network* — the one-call entry."""
    return get_builder(name).build(network, **config)
