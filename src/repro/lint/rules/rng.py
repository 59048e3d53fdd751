"""REP101 — RNG discipline: all randomness flows through ``repro.utils.rng``.

Seeded determinism of every figure is a headline claim of this
reproduction; it survives only if no module draws from an RNG the seed
plumbing doesn't control.  This rule bans, everywhere except
``repro/utils/rng.py`` itself:

* importing the stdlib ``random`` module (its global state defeats
  per-trial seeding);
* calling ``numpy.random`` module functions — ``np.random.default_rng(...)``,
  ``np.random.uniform(...)``, legacy ``np.random.seed(...)`` — whether via
  attribute access or ``from numpy.random import ...``.

Referencing ``numpy.random`` *types* (``Generator``, ``SeedSequence``,
``BitGenerator`` and the stock bit generators) stays legal: annotations and
``isinstance`` checks are how the seed plumbing is typed.  The fix is to
accept a ``SeedLike`` and call :func:`repro.utils.rng.as_rng` /
:func:`~repro.utils.rng.spawn_rngs`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from repro.lint.context import FileContext, dotted_chain

__all__ = ["ALLOWED_NUMPY_RANDOM_NAMES", "check_rng_discipline"]

#: ``numpy.random`` attributes that are types/plumbing, not draw functions.
ALLOWED_NUMPY_RANDOM_NAMES = frozenset(
    {
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
    }
)

#: The one module allowed to construct generators directly.
_EXEMPT_MODULES = frozenset({"repro.utils.rng"})

_FIX_HINT = "route randomness through repro.utils.rng.as_rng/spawn_rngs"


def check_rng_discipline(ctx: FileContext) -> Iterator[Tuple[ast.AST, str]]:
    """bare random/np.random use outside utils/rng.py breaks seeded determinism"""
    if ctx.module in _EXEMPT_MODULES:
        return

    numpy_aliases: Set[str] = set()  # names bound to the numpy module
    numpy_random_aliases: Set[str] = set()  # names bound to numpy.random

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
                elif alias.name == "numpy.random":
                    if alias.asname:
                        numpy_random_aliases.add(alias.asname)
                    else:
                        numpy_aliases.add("numpy")
                elif alias.name == "random" or alias.name.startswith("random."):
                    yield (
                        node,
                        "stdlib random module imported; its global state "
                        f"defeats per-seed reproducibility — {_FIX_HINT}",
                    )
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "random":
                yield (
                    node,
                    "stdlib random functions imported; "
                    f"{_FIX_HINT} (accept a SeedLike argument)",
                )
            elif node.module == "numpy.random":
                for alias in node.names:
                    if alias.name == "*":
                        yield (node, f"star import from numpy.random — {_FIX_HINT}")
                    elif alias.name not in ALLOWED_NUMPY_RANDOM_NAMES:
                        yield (
                            node,
                            f"numpy.random.{alias.name} imported directly; "
                            f"{_FIX_HINT}",
                        )
            elif node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        numpy_random_aliases.add(alias.asname or "random")

    numpy_random_prefixes = {f"{alias}.random" for alias in numpy_aliases}
    numpy_random_prefixes.update(numpy_random_aliases)

    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        chain = dotted_chain(node.func)
        if not chain or "." not in chain:
            continue
        base, _, attr = chain.rpartition(".")
        if base in numpy_random_prefixes and attr not in ALLOWED_NUMPY_RANDOM_NAMES:
            yield (
                node,
                f"call to {chain}() bypasses the seed plumbing; {_FIX_HINT}",
            )
