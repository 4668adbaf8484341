"""Global size caps.

Everything in this package is exact and exhaustive, so the only defence
against runaway inputs is a caps record of four fields: ring, module,
lattice and hom.  The defaults are desk-scale; the ``USMOD_CAPS``
environment variable overrides individual fields with a comma-separated
list such as ``ring=32,module=64,hom=5000``.  Any other key, and a key
given twice, is refused.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import ConfigError


@dataclass(frozen=True)
class Caps:
    max_ring: int = 64          # elements in a constructed ring
    max_module: int = 128       # elements in a constructed module
    max_lattice: int = 512      # submodules enumerated per module
    max_hom: int = 20000        # projected homomorphism-search space

    def __post_init__(self) -> None:
        key = (self.max_ring, self.max_module, self.max_lattice, self.max_hom)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def check(self) -> None:
        if min(self.max_ring, self.max_module, self.max_lattice, self.max_hom) < 2:
            raise ConfigError("caps must be at least 2")


_FIELDS = ("ring", "module", "lattice", "hom")


def caps_from_env(base: Caps | None = None) -> Caps:
    """Apply USMOD_CAPS overrides (``name=value`` pairs) on top of *base*."""
    caps = base or Caps()
    raw = os.environ.get("USMOD_CAPS", "").strip()
    if not raw:
        return caps
    updates = {}
    for item in raw.split(","):
        if not item.strip():
            continue
        try:
            key, value = item.split("=")
            key = key.strip()
            if key not in _FIELDS:
                raise ValueError(key)
            value = int(value)
        except ValueError:
            raise ConfigError(f"bad USMOD_CAPS entry: {item!r}") from None
        if "max_" + key in updates:
            raise ConfigError(f"USMOD_CAPS sets {key!r} twice")
        updates["max_" + key] = value
    caps = replace(caps, **updates)
    caps.check()
    return caps


DEFAULT_CAPS = Caps()
