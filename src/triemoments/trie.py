"""Binary tries over Bernoulli(p) bit strings and their shape parameters.

A trie over n >= 2 keys routes each key by successive bits: internal nodes
split, external nodes store exactly one key.  The shape parameters measured
here are

* ``size``   -- number of internal nodes,
* ``kpl``    -- external (key) path length: sum of external-node depths,
* ``npl``    -- internal (node) path length: sum of internal-node depths,
* ``height`` -- maximal external-node depth.

Two samplers are provided.  ``sample_keys`` + ``build_trie`` materialises
explicit key prefixes and constructs the trie; ``sample_shapes`` draws the
same joint law for a batch of independent tries directly, by binomial
splitting of subtree sizes level by level, in O(size) time per trie and
without storing keys (``sample_shape`` is a batch of one).  Both are
deterministic given their Generator; Monte-Carlo streams are derived from a
master seed by counter addressing (see ``trial_rng``), one per batch.
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
    if 1.0 - p == 1.0:
        raise ValueError(f"p={p!r} is too close to 0: 1 - p rounds to 1")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent stream ``trial``: Philox keyed by seed, counter block trial.

    Monte-Carlo batch b draws from ``trial_rng(seed, b)``.  The counter
    ``trial << 128`` is the state ``Philox(key).jumped(trial)`` reaches (a
    jump adds to the upper 128 counter bits), set directly.  Stream numbers
    outside [0, 2**128) raise ValueError instead of wrapping.
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


def sample_shapes(n: int, p: float, count: int, rng: np.random.Generator,
                  max_depth: int | None = None) -> np.ndarray:
    """Sample ``count`` independent tries of n keys with the exact trie law.

    Returns a (count, 4) int64 array with columns size, kpl, npl, height.
    Level-synchronous binomial splitting of every trie at once: the subtree
    sizes of all tries at one depth are split by a single vectorised
    binomial draw.  Each trie's nodes stay contiguous, with the children of
    a node interleaved left then right, so a trie's share of a level is
    found from cumulative counts at the trie boundaries.  The path lengths
    use K = sum over internal nodes of their key counts (a key's depth is
    its number of internal ancestors), and a trie's height is the number of
    depths at which it has an internal node.  Given the same Generator state
    the result is bitwise reproducible.
    """
    _check_p(p)
    if n < 0:
        raise ValueError("n must be >= 0")
    if count < 0:
        raise ValueError("count must be >= 0")
    if n <= 1 or count == 0:
        return np.zeros((count, 4), dtype=np.int64)
    if max_depth is None:
        max_depth = _default_max_depth(n, p)
    elif max_depth < 64:
        raise ValueError("max_depth must be >= 64")
    active = np.full(count, n, dtype=np.int64)   # keys under each internal node
    # ends[t]: internal nodes of tries 0..t at this depth, so trie t owns
    # active[ends[t-1]:ends[t]] and children[2*ends[t-1]:2*ends[t]].  Each
    # depth records ends and the keys under those nodes, both cumulative
    # over t; a trie's totals are the differences between t-1 and t.
    ends = np.arange(1, count + 1)
    level_ends, level_keys = [], []
    d = 0
    while active.size:
        if d > max_depth:
            raise DepthGuardExceeded(
                f"splitting recursion past depth {max_depth} at n={n}, p={p}")
        children = np.empty(2 * active.size, dtype=np.int64)
        left = children[0::2]
        left[:] = rng.binomial(active, p)
        np.subtract(active, left, out=children[1::2])
        keys = np.zeros(active.size + 1, dtype=np.int64)
        np.cumsum(active, out=keys[1:])
        level_ends.append(ends)
        level_keys.append(keys[ends])
        kept = np.flatnonzero(children >= 2)
        active = children.take(kept)
        ends = np.searchsorted(kept, 2 * ends)
        d += 1
    nodes = np.diff(level_ends, axis=1, prepend=0)   # (depth, count)
    out = np.empty((count, 4), dtype=np.int64)
    out[:, 0] = nodes.sum(axis=0)
    out[:, 1] = np.diff(np.sum(level_keys, axis=0), prepend=0)
    out[:, 2] = np.arange(d) @ nodes
    out[:, 3] = np.count_nonzero(nodes, axis=0)
    return out


def sample_shape(n: int, p: float, seed: int | None = None,
                 max_depth: int | None = None,
                 rng: np.random.Generator | None = None) -> ShapeStats:
    """One trie's ShapeStats: ``sample_shapes`` with a batch of one.

    Without ``rng`` the draw comes from ``trial_rng(seed, 0)`` (seed 0 when
    None), so it is reproducible per seed.
    """
    if rng is None:
        rng = trial_rng(0 if seed is None else seed, 0)
    size, kpl, npl, height = sample_shapes(n, p, 1, rng, max_depth)[0]
    return ShapeStats(n, int(size), int(kpl), int(npl), int(height))
