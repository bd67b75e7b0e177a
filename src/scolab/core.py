"""Dense vector/matrix helpers, Euclidean-ball projection, and a splittable RNG.

Everything in this module is a plain value.  Vectors and matrices are
float64 numpy arrays, and :class:`Rng` is an immutable ``(seed, stream)``
pair that opens fresh counter-based generators on demand, so identical
identifiers always reproduce identical draws regardless of platform or
of the order in which sibling streams are consumed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = ["Rng", "as_vector", "as_matrix", "project_ball"]


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a 1-d float64 array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {v.shape[0]}")
    return v


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-d float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)``, except that where ``||v||^2`` overflows the
    norm of an exact power-of-two rescale of ``v`` is scaled back, so the
    result is inf only if ``||v||`` itself exceeds the float range.  Both
    overflows are expected, so numpy does not warn about them."""
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(v))
        if nrm == np.inf:
            exp = np.frexp(np.max(np.abs(v)))[1]
            nrm = float(np.ldexp(np.linalg.norm(np.ldexp(v, -exp)), exp))
    return nrm


def project_ball(x, radius: float) -> np.ndarray:
    """Euclidean projection of ``x`` onto the origin-centered ball.

    Returns ``x`` unchanged when it is already inside; otherwise rescales
    it radially.  The returned vector always satisfies
    ``norm(result) <= radius`` in exact float comparison, which makes the
    projection exactly idempotent.
    """
    v = as_vector(x)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite vector")
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError("invalid domain")
    nrm = _norm(v)
    if nrm <= radius:
        return v
    if nrm == np.inf:
        # ||v|| exceeds the float range; an exact power-of-two rescale
        # keeps its direction.
        v = np.ldexp(v, -np.frexp(np.max(np.abs(v)))[1])
        nrm = float(np.linalg.norm(v))
    out = v * (radius / nrm)
    # A single rescale can land an ulp outside the ball; repeat until the
    # norm test holds so that re-projection is a bitwise no-op.  For finite
    # 0 < a < b, a / b rounds to at most 1 - 2**-53, so the scale is below 1.
    while (nrm := _norm(out)) > radius:
        out = out * (radius / nrm)
    return out


_U64 = 2**64


@dataclass(frozen=True)
class Rng:
    """Deterministic splittable random stream identified by ``(seed, stream)``.

    Children derived via :meth:`split` are keyed by a hash of the parent
    identity and a label, so the whole tree of streams is reproducible
    and independent of the order in which children are created or drawn
    from.  Drawing never mutates the value: :meth:`generator` opens a
    fresh counter-based generator positioned at the start of the stream.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or not 0 <= int(value) < _U64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer")

    def split(self, label: str) -> "Rng":
        """Derive the child stream named ``label``; pure and collision-hashed."""
        digest = hashlib.blake2b(
            f"{self.seed}:{self.stream}:{label}".encode(), digest_size=16
        ).digest()
        return Rng(
            int.from_bytes(digest[:8], "little"),
            int.from_bytes(digest[8:], "little"),
        )

    def generator(self) -> np.random.Generator:
        """Open a fresh generator at the start of this stream."""
        key = int(self.seed) | (int(self.stream) << 64)
        return np.random.Generator(np.random.Philox(key=key))
