"""Binary tries over Bernoulli(p) bit strings and their shape parameters.

A trie over n >= 2 keys routes each key by successive bits: internal nodes
split, external nodes store exactly one key.  The shape parameters measured
here are

* ``size``   -- number of internal nodes,
* ``kpl``    -- external (key) path length: sum of external-node depths,
* ``npl``    -- internal (node) path length: sum of internal-node depths,
* ``height`` -- maximal external-node depth.

Two routes give them, both as (count, 4) int64 rows of a batch of tries.
``sample_shapes`` draws the joint law directly, by binomial splitting of
subtree sizes level by level, in O(size) time per trie and without storing
keys.  A subtree of at most ``_SMALL`` keys draws its split from a Walker
alias table with one uniform, a larger one from ``rng.binomial``.  One call
draws all its tries from one Generator, in one level loop.
``key_shapes`` measures the tries of explicit key prefixes, such as those of
``sample_keys``, from the common-prefix lengths of their sorted keys; the
tests check the sampler against it.  Draws are deterministic given their
Generators; Monte-Carlo streams are derived from a master seed in
[0, 2**128) by counter addressing (see ``trial_rng``), one per batch.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DepthGuardExceeded, KeyExhausted
from .exact import _binom_weights, _canonical

# Subtrees of at most _SMALL keys split by a Walker alias lookup, larger ones
# by rng.binomial.  Row m of the flat alias tables holds columns 0..m and
# starts at _ROW_START[m] = m(m+1)/2.
_SMALL = 64
_ROW_START = np.cumsum(np.arange(_SMALL + 1), dtype=np.int32)


def _default_max_depth(n: int, p: float) -> int:
    # Beyond d, some pair of keys shares d bits with prob <= n^2 (p^2+q^2)^d;
    # choose d so that bound is ~e^-40 ("astronomically unlikely").
    q = 1.0 - p
    c = p * p + q * q
    return 64 + int(math.ceil((2.0 * math.log(n + 2.0) + 40.0) / -math.log(c)))


def check_seed(seed: int) -> None:
    """Raise ValueError for a seed outside [0, 2**128), the Philox key range."""
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent stream ``trial``: Philox keyed by seed, counter block trial.

    Monte-Carlo batch b draws from ``trial_rng(seed, b)``.  The counter
    ``trial << 128`` is the state ``Philox(key).jumped(trial)`` reaches (a
    jump adds to the upper 128 counter bits), set directly.  Seeds and
    stream numbers outside [0, 2**128) raise ValueError instead of wrapping,
    so no two seeds share a stream.
    """
    check_seed(seed)
    return np.random.Generator(np.random.Philox(key=seed, counter=trial << 128))


def sample_keys(n: int, p: float, rng: np.random.Generator,
                prefix_len: int = 64) -> np.ndarray:
    """(n, prefix_len) bool matrix of n independent Bernoulli(p) bit
    prefixes, most significant bit first, drawn from ``rng``."""
    _canonical(p)
    if n < 0:
        raise ValueError("n must be >= 0")
    return rng.random((n, prefix_len)) < p


def key_shapes(bits: np.ndarray) -> np.ndarray:
    """Shape rows of the tries of explicit keys, one trie per row.

    ``bits`` is a (count, n, L) bool array: trie t holds the n key prefixes
    bits[t].  Returns a (count, 4) int64 array with columns size, kpl, npl
    and height, as ``sample_shapes`` does; rows with n <= 1 are zeros.
    Each trie's keys are sorted by their packed bits, and l_i, the common
    prefix length of sorted keys i and i+1, is the first column where they
    differ.  With l_0 = l_n = -1, key i sits at depth max(l_{i-1}, l_i) + 1,
    and the pair (i, i+1) adds the internal nodes at depths
    min(l_{i-1}, l_i) + 1 .. l_i, which no earlier pair shares; their
    number and depth sum give size and npl.  Two keys equal in all L bits
    never separate and raise KeyExhausted, naming the trie.
    """
    bits = np.asarray(bits, dtype=bool)
    count, n, length = bits.shape
    out = np.zeros((count, 4), dtype=np.int64)
    if n <= 1:
        return out
    if length:      # packed rows compare bytewise as their bits do
        packed = np.packbits(bits, axis=2)
        order = np.argsort(packed.view((np.void, packed.shape[2]))[..., 0],
                           axis=1)
        bits = np.take_along_axis(bits, order[..., None], axis=1)
    differ = bits[:, 1:] != bits[:, :-1]
    split = differ.any(axis=2)
    if not split.all():
        t = int(np.flatnonzero(~split.all(axis=1))[0])
        raise KeyExhausted(
            f"trie {t}: two keys are equal in all {length} stored bits; "
            "supply longer prefixes")
    lcp = np.full((count, n + 1), -1, dtype=np.int64)
    lcp[:, 1:-1] = differ.argmax(axis=2)
    depth = np.maximum(lcp[:, :-1], lcp[:, 1:]) + 1
    pair = lcp[:, 1:-1]
    seen = np.minimum(lcp[:, :-2], pair)    # depths an earlier pair counted
    out[:, 0] = (pair - seen).sum(axis=1)
    out[:, 1] = depth.sum(axis=1)
    out[:, 2] = ((pair * (pair + 1) - seen * (seen + 1)) // 2).sum(axis=1)
    out[:, 3] = depth.max(axis=1)
    return out


@lru_cache(maxsize=16)
def _alias_tables(p: float) -> tuple[np.ndarray, np.ndarray]:
    """Walker alias tables (prob, alias) of Binomial(m, p), m = 0.._SMALL.

    Row m is built from the pmf of ``exact._binom_weights`` (formed in long
    double, then rounded) by Vose's pairing: column j of the row keeps j
    with probability prob[j] and yields alias[j] otherwise, so each column
    carries mass 1/(m+1).  A column left full keeps prob 1 and aliases
    itself.
    """
    size = int(_ROW_START[-1]) + _SMALL + 1
    prob = np.ones(size)
    alias = (np.arange(size, dtype=np.int32)
             - np.repeat(_ROW_START, np.arange(1, _SMALL + 2)))
    p = np.longdouble(p)
    for m in range(_SMALL + 1):
        start = int(_ROW_START[m])
        mass = (_binom_weights(m, p, 1 - p, np.longdouble)
                .astype(np.float64) * (m + 1)).tolist()
        small = [j for j, w in enumerate(mass) if w < 1.0]
        large = [j for j, w in enumerate(mass) if w >= 1.0]
        while small and large:
            s, g = small.pop(), large[-1]
            prob[start + s] = mass[s]
            alias[start + s] = g
            mass[g] = (mass[g] + mass[s]) - 1.0
            if mass[g] < 1.0:
                small.append(large.pop())
    prob.flags.writeable = alias.flags.writeable = False   # shared by cache
    return prob, alias


def _alias_split(m: np.ndarray, u: np.ndarray, prob: np.ndarray,
                 alias: np.ndarray) -> np.ndarray:
    """The left-subtree key counts of nodes with m keys, Binomial(m, p)
    each, as a new int32 array.

    One uniform per node from [0, 1) (overwritten): the column is
    j = min(floor(u (m+1)), m), and the fraction u (m+1) - j, resolved to
    (m+1) 2**-53 <= 2**-47, is compared with prob to keep j or take its
    alias; the choice is integer arithmetic, alias + keep (j - alias).
    Rows are clipped to _SMALL, so nodes with more keys get a
    Binomial(_SMALL, p) placeholder for the caller to overwrite.
    """
    row = np.minimum(m, _SMALL)
    j = row + 1
    u *= j
    at = row * j                          # row m starts at m(m+1)/2
    np.copyto(j, u, casting="unsafe")     # floor: u (m+1) >= 0
    np.minimum(j, row, out=j)
    u -= j
    at >>= 1
    at += j
    keep = u < prob.take(at)
    out = alias.take(at)
    j -= out
    j *= keep
    out += j
    return out


def sample_shapes(n: int, p: float, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Sample ``count`` independent tries of n keys with the exact trie law,
    drawn from the Generator ``rng``.

    Returns a (count, 4) int64 array with columns size, kpl, npl, height.
    Level-synchronous splitting of every trie at once: each depth draws one
    uniform per internal node with one ``rng.random`` call, and a node of
    m <= _SMALL keys gets its left-subtree size from the Walker alias table
    of Binomial(m, p) (``_alias_tables``, cached per p; Devroye 1986,
    III.4).  While nodes with more keys are left, the depth also makes one
    ``rng.binomial`` call over them.  Each trie's nodes stay contiguous,
    with the children of a node interleaved left then right, so a trie's
    share of a level is one slice between trie boundaries.  The path
    lengths use K = sum over internal nodes of their key counts (a key's
    depth is its number of internal ancestors), and a trie's height is the
    number of depths at which it has an internal node.  A trie deeper than
    ``_default_max_depth(n, p)``, an event of probability about e^-40,
    raises DepthGuardExceeded.
    """
    _canonical(p)
    if not 0 <= n < 2 ** 31:    # key counts are carried as int32
        raise ValueError("n must be in [0, 2**31)")
    if count < 0:
        raise ValueError("count must be >= 0")
    out = np.zeros((count, 4), dtype=np.int64)
    if n <= 1 or count == 0:
        return out
    guard = _default_max_depth(n, p)
    active = np.full(count, n, dtype=np.int32)   # keys under internal nodes
    # ends[t+1]: internal nodes of tries 0..t at this depth and ends[0] = 0,
    # so trie t owns active[ends[t]:ends[t+1]].  Each depth adds its per-trie
    # node and key counts into count-sized sums, so memory does not grow
    # with the depth.
    ends = np.arange(count + 1)
    size, kpl, npl, height = out.T
    prob, alias = _alias_tables(p)
    big = n > _SMALL    # subtree sizes only shrink with depth
    d = 0
    while active.size:
        if d > guard:
            raise DepthGuardExceeded(
                f"splitting recursion past depth {guard} at n={n}, p={p}")
        u = rng.random(active.size)
        left = _alias_split(active, u, prob, alias)
        if big:
            at = np.flatnonzero(active > _SMALL)
            left[at] = rng.binomial(active.take(at), p)
            big = at.size > 0
        children = np.empty(2 * active.size, dtype=np.int32)
        children[0::2] = left
        np.subtract(active, left, out=children[1::2])
        nodes = ends[1:] - ends[:-1]
        alive = nodes > 0
        # keys under each trie's nodes; a trie without nodes sums a lone
        # entry of the zero-padded level, so the mask zeroes it
        keys = np.add.reduceat(np.append(active, 0), ends[:-1], dtype=np.int64)
        keys *= alive
        kpl += keys
        size += nodes
        npl += d * nodes
        height += alive
        kept = np.flatnonzero(children >= 2)
        active = children.take(kept)
        ends = np.searchsorted(kept, 2 * ends)
        del u, children, left, kept     # freed before the next level's
        d += 1
    return out
