"""Vector/matrix helpers, an exact norm, ball projection and a splittable RNG.

Everything in this module is a plain value.  Vectors and matrices are
float64 numpy arrays, and :class:`Rng` is an immutable ``(seed, stream)``
pair that opens fresh counter-based generators on demand, so identical
identifiers always reproduce identical draws regardless of platform or
of the order in which sibling streams are consumed.  The stream
contract: :meth:`Rng.generator` is Philox keyed by ``seed | stream <<
64``, at counter 0, and opening it draws no OS entropy.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
    """The Euclidean norm of ``v``, exact at every float scale (a scaled norm,
    Blue 1978): ``np.linalg.norm(v)`` where that is finite and at least
    2^-480, so the squares it loses to underflow fall below its rounding
    error, and elsewhere the norm of the exact rescale ``v 2^-e``, ``e``
    from ``frexp(max |v_i|)``, scaled back.  It is inf only where ``||v||``
    exceeds the float range; overflows are expected, so numpy does not warn."""
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(v))
        if not 2.0**-480 <= nrm < np.inf:
            exp = math.frexp(np.abs(v).max(initial=0.0))[1]
            nrm = float(np.ldexp(np.linalg.norm(np.ldexp(v, -exp)), exp))
    return nrm


def project_ball(x, radius: float) -> np.ndarray:
    """Euclidean projection of ``x`` onto the origin-centered ball.

    Returns ``x`` unchanged when its exact norm (:func:`_norm`) is at most
    ``radius``; otherwise rescales it radially.  The result ``r`` always
    satisfies ``_norm(r) <= radius`` in exact float comparison, at every
    float scale, which makes the projection exactly idempotent.
    """
    v = as_vector(x)
    peak = np.abs(v).max(initial=0.0)  # inf or NaN where an entry is
    if not math.isfinite(peak):
        raise ValueError("non-finite vector")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("invalid domain")
    if _norm(v) <= radius:
        return v
    # Rescale u = v 2^-e, exact, whose norm neither overflows nor underflows;
    # where v (R / ||v||) is exact, u (R / ||u||) has its bytes.  sqrt(u.u)
    # is np.linalg.norm(u)'s own arithmetic, without its dispatch.
    u = np.ldexp(v, -math.frexp(peak)[1])
    out = u * (radius / math.sqrt(u.dot(u)))
    # A single rescale can land an ulp outside the ball; repeat until the
    # norm test holds so that re-projection is a bitwise no-op.  For finite
    # 0 < a < b, a / b rounds to at most 1 - 2**-53, so the scale is below 1
    # and moves the largest normal entry; where every entry is subnormal and
    # none moves, each steps one float toward zero instead.
    while (nrm := _norm(out)) > radius:
        shrunk = out * (radius / nrm)
        out = np.nextafter(out, 0.0) if np.array_equal(shrunk, out) else shrunk
    return out


_U64 = 2**64


class _PhiloxKey(ISeedSequence):
    """The ``(seed, stream)`` key as a seed sequence, for Philox to read.

    Philox reads its key as ``generate_state(2, np.uint64)``, which this
    answers with the two words; ``Philox(key=...)`` would first draw OS
    entropy for a ``SeedSequence`` that it then discards.  Any other request
    raises, so a numpy change to how Philox seeds fails loudly instead of
    moving the streams.
    """

    __slots__ = ("words",)

    def __init__(self, seed: int, stream: int) -> None:
        self.words = (seed, stream)

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"the Philox key is two uint64 words, not {n_words} of {np.dtype(dtype)}"
            )
        return np.array(self.words, dtype=np.uint64)


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
        """Open a fresh generator at the start of this stream: Philox keyed
        by ``seed | stream << 64``, at counter 0, the state of
        ``Philox(key=seed | stream << 64)``, without drawing OS entropy."""
        key = _PhiloxKey(int(self.seed), int(self.stream))
        return np.random.Generator(np.random.Philox(key))
