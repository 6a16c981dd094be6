"""Binary tries over Bernoulli(p) bit strings and their shape parameters.

A trie over n >= 2 keys routes each key by successive bits: internal nodes
split, external nodes store exactly one key.  The shape parameters measured
here are

* ``size``   -- number of internal nodes,
* ``kpl``    -- external (key) path length: sum of external-node depths,
* ``npl``    -- internal (node) path length: sum of internal-node depths,
* ``height`` -- maximal external-node depth.

Two samplers are provided.  ``sample_keys`` + ``build_trie`` materialises
explicit key prefixes and constructs the trie; ``sample_shape`` draws the
same joint law directly by recursive binomial splitting of subtree sizes,
in O(size) time and without storing keys.  Both are deterministic given
their seed; per-trial streams for Monte-Carlo use are derived from a master
seed by counter addressing (see ``trial_rng``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DepthGuardExceeded, KeyExhausted


@dataclass(frozen=True)
class Key:
    """A finite bit prefix (most-significant first) of an infinite key."""

    bits: str

    def __post_init__(self):
        if not set(self.bits) <= {"0", "1"}:
            raise ValueError("key bits must be a string over {'0','1'}")

    def __len__(self):
        return len(self.bits)


class _Internal:
    __slots__ = ("left", "right")

    def __init__(self, left=None, right=None):
        self.left = left
        self.right = right


class _External:
    __slots__ = ("key_index",)

    def __init__(self, key_index: int):
        self.key_index = key_index


@dataclass(frozen=True)
class Trie:
    """An immutable trie; ``root`` is None for the empty trie."""

    root: object
    n: int


@dataclass(frozen=True)
class ShapeStats:
    n: int
    size: int
    kpl: int
    npl: int
    height: int


def _default_max_depth(n: int, p: float) -> int:
    # Beyond d, some pair of keys shares d bits with prob <= n^2 (p^2+q^2)^d;
    # choose d so that bound is ~e^-40 ("astronomically unlikely").
    q = 1.0 - p
    c = p * p + q * q
    return 64 + int(math.ceil((2.0 * math.log(n + 2.0) + 40.0) / -math.log(c)))


def build_trie(keys: list[Key]) -> Trie:
    """Construct the trie of ``keys`` by the splitting rule.

    Keys must be pairwise distinguishable within their stored bits;
    otherwise KeyExhausted is raised (supply longer prefixes and retry).
    """
    keys = [k if isinstance(k, Key) else Key(k) for k in keys]
    bitstrs = [k.bits for k in keys]
    n = len(keys)
    if n == 0:
        return Trie(root=None, n=0)
    if n == 1:
        return Trie(root=_External(0), n=1)

    def node(indices: list[int], depth: int):
        if len(indices) == 1:
            return _External(indices[0])
        left: list[int] = []
        right: list[int] = []
        for i in indices:
            bits = bitstrs[i]
            if depth >= len(bits):
                raise KeyExhausted(
                    f"key {i} exhausted at depth {depth}; keys are not "
                    "distinguishable within their stored bits")
            (left if bits[depth] == "0" else right).append(i)
        inner = _Internal()
        if left:
            inner.left = node(left, depth + 1)
        if right:
            inner.right = node(right, depth + 1)
        return inner

    return Trie(root=node(list(range(n)), 0), n=n)


def shape_stats(trie: Trie) -> ShapeStats:
    """Measure (size, kpl, npl, height) by traversal; depths in edges."""
    if trie.root is None:
        return ShapeStats(0, 0, 0, 0, 0)
    if isinstance(trie.root, _External):
        return ShapeStats(trie.n, 0, 0, 0, 0)
    size = kpl = npl = height = 0
    stack = [(trie.root, 0)]
    while stack:
        nd, d = stack.pop()
        if isinstance(nd, _External):
            kpl += d
            if d > height:
                height = d
        else:
            size += 1
            npl += d
            if nd.left is not None:
                stack.append((nd.left, d + 1))
            if nd.right is not None:
                stack.append((nd.right, d + 1))
    return ShapeStats(trie.n, size, kpl, npl, height)


def _check_p(p: float):
    if not (0.0 < p < 1.0):
        raise ValueError("p must be in (0,1)")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent per-trial stream: Philox keyed by seed, counter block trial.

    The counter ``trial << 128`` is the state ``Philox(key).jumped(trial)``
    reaches (a jump adds to the upper 128 counter bits), set directly.
    Trials outside [0, 2**128) raise ValueError instead of wrapping.
    """
    return np.random.Generator(np.random.Philox(
        key=seed & ((1 << 128) - 1), counter=trial << 128))


def sample_keys(n: int, p: float, seed: int | None = None, prefix_len: int = 64,
                rng: np.random.Generator | None = None) -> list[Key]:
    """Draw n independent Bernoulli(p) bit prefixes, deterministic per seed.

    Collisions beyond ``prefix_len`` surface later as KeyExhausted from
    build_trie; retry with a larger prefix_len.
    """
    _check_p(p)
    if n < 0:
        raise ValueError("n must be >= 0")
    if rng is None:
        rng = trial_rng(0 if seed is None else seed, 0)
    bits = rng.random((n, prefix_len)) < p
    raw = (bits.astype(np.uint8) + ord("0")).tobytes()
    return [Key(raw[i * prefix_len:(i + 1) * prefix_len].decode("ascii"))
            for i in range(n)]


def sample_shape(n: int, p: float, seed: int | None = None,
                 max_depth: int | None = None,
                 rng: np.random.Generator | None = None) -> ShapeStats:
    """Sample ShapeStats with the exact law of a random trie.

    Level-synchronous binomial splitting: all subtree sizes at one depth are
    split with a single vectorised binomial draw, children ordered as
    [left-block, right-block].  Given the same seed (or Generator state) the
    result is bitwise reproducible.
    """
    _check_p(p)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= 1:
        return ShapeStats(n, 0, 0, 0, 0)
    if max_depth is None:
        max_depth = _default_max_depth(n, p)
    elif max_depth < 64:
        raise ValueError("max_depth must be >= 64")
    if rng is None:
        rng = trial_rng(0 if seed is None else seed, 0)

    size = kpl = npl = height = 0
    active = np.array([n], dtype=np.int64)
    d = 0
    while active.size:
        if d > max_depth:
            raise DepthGuardExceeded(
                f"splitting recursion past depth {max_depth} at n={n}, p={p}")
        m = active.size
        size += m
        npl += d * m
        b = rng.binomial(active, p)
        children = np.concatenate([b, active - b])
        ones = int(np.count_nonzero(children == 1))
        if ones:
            kpl += (d + 1) * ones
            height = d + 1
        active = children[children >= 2]
        d += 1
    return ShapeStats(n, int(size), int(kpl), int(npl), int(height))
