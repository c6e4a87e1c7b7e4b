"""Exact truncated signatures of piecewise-linear paths.

The level-k signature entry of a path x over [s, t], indexed by a word
w = (i_1, ..., i_k) over the alphabet {1, ..., d}, is the iterated integral

    B^{k, i_1...i_k}_{st} = int_{s <= u_1 < ... < u_k <= t} dx^{i_1} ... dx^{i_k}.

For one linear segment with increment v this is v_{i_1} ... v_{i_k} / k!
(the tensor exponential), and signatures of adjacent intervals compose by
Chen's identity

    (a * b)_w = sum over splittings w = w1 w2 of a_{w1} b_{w2},

so the signature of a piecewise-linear interpolant is computed exactly by
folding segment signatures.  Level 2 carries the Levy area; its defect
under delta is exactly B^1 (x) B^1, which is the algebraic hypothesis the
whole rough-integration layer rests on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from .errors import DomainError
from .fbm import SamplePath

#: Default truncation level, enough for 3-nilpotent flows plus one spare level.
DEFAULT_LEVEL = 4

Word = tuple[int, ...]


def check_word(word: Word, d: int) -> Word:
    w = tuple(int(i) for i in word)
    if len(w) < 1 or any(not 1 <= i <= d for i in w):
        raise DomainError(f"word {word} is not over the alphabet 1..{d}")
    return w


@dataclass(frozen=True)
class IteratedIntegrals:
    """Truncated signature on [s, t]: dense tensors, one per level.

    ``levels[k-1]`` has shape (d,)*k and holds every length-k word; the
    empty word is implicit with value 1.
    """

    s: float
    t: float
    d: int
    level: int
    levels: list[np.ndarray] = field(repr=False)

    def value(self, word: Word) -> float:
        w = check_word(word, self.d)
        if len(w) > self.level:
            raise DomainError(f"word {word} exceeds truncation level {self.level}")
        return float(self.levels[len(w) - 1][tuple(i - 1 for i in w)])

    def words(self, k: int) -> list[Word]:
        return [tuple(w) for w in iter_product(range(1, self.d + 1), repeat=k)]

    def to_json(self) -> str:
        entries = [
            {"word": list(w), "value": self.value(w)}
            for k in range(1, self.level + 1)
            for w in self.words(k)
        ]
        return json.dumps(
            {"interval": [self.s, self.t], "level": self.level, "entries": entries},
            sort_keys=True,
        )


def segment_signature(v: np.ndarray, n: int, s: float = 0.0, t: float = 1.0) -> IteratedIntegrals:
    """Signature of a single linear segment with increment vector ``v``.

    Level k is the tensor power v^{(x) k} / k!.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DomainError("segment increment must be a vector")
    if n < 1:
        raise DomainError(f"truncation level must be >= 1, got {n}")
    levels = []
    current = v.copy()
    for k in range(1, n + 1):
        levels.append(current / math.factorial(k))
        if k < n:
            current = np.multiply.outer(current, v)
    return IteratedIntegrals(s=s, t=t, d=v.shape[0], level=n, levels=levels)


def chen_concat(a: IteratedIntegrals, b: IteratedIntegrals) -> IteratedIntegrals:
    """Chen concatenation of signatures over adjacent intervals."""
    if a.d != b.d or a.level != b.level:
        raise DomainError("signatures must share alphabet and truncation level")
    if not math.isclose(a.t, b.s, rel_tol=1e-12, abs_tol=1e-12):
        raise DomainError(f"intervals do not abut: [{a.s},{a.t}] then [{b.s},{b.t}]")
    levels = []
    for k in range(1, a.level + 1):
        total = a.levels[k - 1] + b.levels[k - 1]
        for j in range(1, k):
            total = total + np.multiply.outer(a.levels[j - 1], b.levels[k - j - 1])
        levels.append(total)
    return IteratedIntegrals(s=a.s, t=b.t, d=a.d, level=a.level, levels=levels)


def path_signature(p: SamplePath, s: float, t: float, n: int) -> IteratedIntegrals:
    """Exact signature of the piecewise-linear interpolant of ``p`` on [s, t]."""
    i, j = p.grid.index_of(s), p.grid.index_of(t)
    if i >= j:
        raise DomainError(f"need s < t on the grid, got indices ({i}, {j})")
    times = p.grid.times
    sig = segment_signature(p.values[i + 1] - p.values[i], n, times[i], times[i + 1])
    for k in range(i + 1, j):
        seg = segment_signature(p.values[k + 1] - p.values[k], n, times[k], times[k + 1])
        sig = chen_concat(sig, seg)
    return sig


def levy_area(p: SamplePath, s: float, t: float) -> np.ndarray:
    """Level-2 signature table as a d x d matrix B^2_{st}."""
    return path_signature(p, s, t, 2).levels[1]


# ---------------------------------------------------------------------------
# Batch level-2 machinery for Monte-Carlo engines
# ---------------------------------------------------------------------------


def batch_signature_levels(values: np.ndarray, n: int, upto_idx: int | None = None) -> list[np.ndarray]:
    """Signatures over [t_0, t_k] for a batch of piecewise-linear paths.

    ``values`` has shape (n_paths, n_points, d); returns per-level arrays of
    shape (n_paths, d, ..., d) for the signature over the first ``upto_idx``
    grid intervals (default: the whole path).  Chen-folds segment tensor
    exponentials, so the result is exact.
    """
    n_paths, n_points, d = values.shape
    stop = n_points - 1 if upto_idx is None else upto_idx
    if not 1 <= stop <= n_points - 1:
        raise DomainError(f"invalid segment count {stop}")
    if n < 1:
        raise DomainError(f"truncation level must be >= 1, got {n}")

    def seg_levels(v: np.ndarray) -> list[np.ndarray]:
        out = []
        current = v.copy()
        for k in range(1, n + 1):
            out.append(current / math.factorial(k))
            if k < n:
                current = np.einsum("p...,pj->p...j", current, v)
        return out

    def outer(x: np.ndarray, y: np.ndarray, kx: int, ky: int) -> np.ndarray:
        flat = np.einsum(
            "pa,pb->pab", x.reshape(n_paths, d**kx), y.reshape(n_paths, d**ky)
        )
        return flat.reshape((n_paths,) + (d,) * (kx + ky))

    acc = seg_levels(values[:, 1] - values[:, 0])
    for seg in range(1, stop):
        b = seg_levels(values[:, seg + 1] - values[:, seg])
        new = []
        for k in range(1, n + 1):
            total = acc[k - 1] + b[k - 1]
            for j in range(1, k):
                total = total + outer(acc[j - 1], b[k - j - 1], j, k - j)
            new.append(total)
        acc = new
    return acc


def batch_levy_prefix(values: np.ndarray) -> np.ndarray:
    """Level-2 signatures over [t_0, t_k] for every k, batched over paths.

    Returns an array of shape (n_paths, n_points, d, d) whose slice [:, k]
    is B^2_{t_0 t_k} (zero at k=0).  Runs one Chen update per grid segment.
    """
    n_paths, n_points, d = values.shape
    out = np.zeros((n_paths, n_points, d, d))
    b1 = np.zeros((n_paths, d))
    for k in range(n_points - 1):
        dv = values[:, k + 1] - values[:, k]
        out[:, k + 1] = (
            out[:, k]
            + np.einsum("pi,pj->pij", b1, dv)
            + 0.5 * np.einsum("pi,pj->pij", dv, dv)
        )
        b1 = b1 + dv
    return out
