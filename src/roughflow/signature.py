"""Exact truncated signatures of piecewise-linear paths.

The level-k signature entry of a path x over [s, t], indexed by a word
w = (i_1, ..., i_k) over the alphabet {1, ..., d}, is the iterated integral

    B^{k, i_1...i_k}_{st} = int_{s <= u_1 < ... < u_k <= t} dx^{i_1} ... dx^{i_k}.

For one linear segment with increment v this is v_{i_1} ... v_{i_k} / k!
(the tensor exponential), and signatures of adjacent intervals compose by
Chen's identity

    (a * b)_w = sum over splittings w = w1 w2 of a_{w1} b_{w2},

so the signature of a piecewise-linear interpolant is exact.
``batch_signature_levels`` sums Chen's update over every segment of a batch
of paths at once; ``path_signature`` is its batch of one.  Level 2 carries
the Levy area; its defect under delta is exactly B^1 (x) B^1, which is the
algebraic hypothesis the whole rough-integration layer rests on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

from .errors import DomainError
from .fbm import SamplePath

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
    """Exact signature of the piecewise-linear interpolant of ``p`` on [s, t]: a batch of one."""
    i, j = p.grid.index_of(s), p.grid.index_of(t)
    if i >= j:
        raise DomainError(f"need s < t on the grid, got indices ({i}, {j})")
    levels = [lvl[0] for lvl in batch_signature_levels(p.values[None, i : j + 1], n)]
    return IteratedIntegrals(s=p.grid.times[i], t=p.grid.times[j], d=p.values.shape[1], level=n, levels=levels)


# ---------------------------------------------------------------------------
# Batch level-2 machinery for Monte-Carlo engines
# ---------------------------------------------------------------------------


def batch_signature_levels(values: np.ndarray, n: int, prefixes: bool = False) -> list[np.ndarray]:
    """Signatures over [t_0, t_k] for a batch of piecewise-linear paths.

    ``values`` has shape (n_paths, n_points, d); returns per-level arrays of
    shape (n_paths, d, ..., d) for the signature over the whole path.  With
    ``prefixes`` each level is instead (n_points, n_paths, d, ..., d),
    time-major: the signature over [t_0, t_j] for every grid j, zero at j = 0.
    Level k sums the Horner form of Chen's update (Kidger & Lyons, ICLR 2021)
    over the segments m:

        G_m (x) D_m,  G_m = X^{k-1}_m + (... (X^1_m + D_m / k) (x) D_m / (k-1) ...) (x) D_m / 2,

    with D_m the increment of segment m and X^i_m the signature over [t_0, t_m].
    On the time-major (n_points, n_paths, d) view, G is elementwise, the sum one
    batched matmul and the prefixes one cumulative sum, so no loop runs over
    segments and each path's result does not depend on the batch around it.
    """
    n_paths, n_points, d = values.shape
    stop = n_points - 1
    if stop < 1:
        raise DomainError(f"invalid segment count {stop}")
    if n < 1:
        raise DomainError(f"truncation level must be >= 1, got {n}")
    x = values.transpose(1, 0, 2)
    b = x - x[0] if prefixes else x[-1] - x[0]
    if d == 1:
        # A scalar path's signature is the exponential of its increment; matmul would
        # take numpy's vector-dot route here, whose sum order depends on the batch.
        return [(b**k / math.factorial(k)).reshape(b.shape[:-1] + (1,) * k) for k in range(1, n + 1)]
    delta = np.diff(x, axis=0)
    prefix, levels = [x[:-1] - x[0]], [b]
    for k in range(2, n + 1):
        g = delta / k
        g += prefix[0]
        for i in range(2, k):
            g = prefix[i - 1] + _outer(g, delta) / (k - i + 1)
        if prefixes:
            running = np.zeros((stop + 1, n_paths, d**k))
            np.cumsum(_outer(g, delta), axis=0, out=running[1:])
            levels.append(running.reshape((stop + 1, n_paths) + (d,) * k))
        else:
            levels.append(np.matmul(g.transpose(1, 2, 0), delta.transpose(1, 0, 2)).reshape((n_paths,) + (d,) * k))
            if k == n:
                break
            running = np.zeros((stop, n_paths, d**k))
            np.cumsum(_outer(g, delta)[:-1], axis=0, out=running[1:])
        prefix.append(running[:stop])
    return levels


def _outer(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a (x) v per (time, path) row, flattened: (N, P, d^i) by (N, P, d) to (N, P, d^(i+1))."""
    return (a[..., None] * v[:, :, None, :]).reshape(a.shape[:2] + (-1,))
