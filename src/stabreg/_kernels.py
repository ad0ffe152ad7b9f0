"""Seeded sampling kernels in vectorized numpy.

The generator is SplitMix64: a counter-based scheme whose k-th output is
``mix64(seed' + (k+1)*GOLDEN)`` where ``mix64`` is the standard 64-bit
avalanche finalizer and ``seed' = mix64(seed)``.  Everything is unsigned
64-bit integer arithmetic, so the key streams are bit-identical on any
platform, and a draw is reproducible from the seed alone.

Sampling m points without replacement from n is done by keying every index
and keeping the m smallest keys.  Keys within one draw are distinct (the
finalizer is a bijection and the counters are distinct), so the selected
subset is well defined.

Many trials are drawn at once in blocks of ``rows`` trials, one row of n
keys per trial, with ``rows = 131072 // n`` (at least 1): a block holds
about 1 MB of keys.  One (rows, n) key buffer and its scratch buffers are
allocated per call and refilled in place for every block, so the memory a
call needs does not grow with the trial count (beyond the output and one
uint64 base per trial).

Per-trial *means* may differ from a per-trial sum by a few float ulps
because the summation order differs (the tests allow 4 * eps times the
largest |value|); for integer-valued populations the sums are exact.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GOLDEN",
    "mix64_int",
    "mix64_array",
    "partition_keys",
    "subset_blocks",
    "numba_enabled",
    "sample_means_without_replacement",
]

_MASK = (1 << 64) - 1
_GOLDEN_INT = 0x9E3779B97F4A7C15
_M1_INT = 0xBF58476D1CE4E5B9
_M2_INT = 0x94D049BB133111EB

GOLDEN = np.uint64(_GOLDEN_INT)
_M1 = np.uint64(_M1_INT)
_M2 = np.uint64(_M2_INT)


def numba_enabled() -> bool:
    """Always False (the kernels are numpy only); kept for callers that report the path."""
    return False


def mix64_int(z: int) -> int:
    """SplitMix64 finalizer on a Python integer (mod 2**64)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1_INT) & _MASK
    z = ((z ^ (z >> 27)) * _M2_INT) & _MASK
    return (z ^ (z >> 31)) & _MASK


def mix64_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied elementwise to a uint64 array."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def partition_keys(seed: int, n: int) -> np.ndarray:
    """Per-index uint64 keys for one seeded draw over ``n`` items.

    The m smallest keys identify a uniformly random m-subset.  Keys are
    pairwise distinct for any seed and n < 2**64.
    """
    base = np.uint64(mix64_int(int(seed) % (1 << 64)))
    idx = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        counters = base + idx * GOLDEN
    return mix64_array(counters)


_BLOCK_KEYS = 131_072  # uint64 keys per block: 1 MB


def _block_rows(n: int, trials: int) -> int:
    """Trials per key block: about 1 MB of keys, at least 1, at most ``trials``."""
    return min(max(1, _BLOCK_KEYS // n), trials)


def _mix64_inplace(z: np.ndarray, scratch: np.ndarray) -> None:
    """``mix64_array`` computed into ``z`` itself; ``scratch`` has z's shape."""
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        np.bitwise_xor(z, scratch, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, np.uint64(31), out=scratch)
    np.bitwise_xor(z, scratch, out=z)


def _key_blocks(bases: np.ndarray, n: int):
    """Yield ``(start, keys)`` with ``keys[r, i] = mix64(bases[start + r] + (i+1)*GOLDEN)``.

    ``keys`` is a view of one (rows, n) buffer of about 1 MB that is
    refilled in place for the next block, so a consumer must be done with a
    block before it asks for the next one.
    """
    rows = _block_rows(n, bases.size)
    with np.errstate(over="ignore"):
        item_off = np.arange(1, n + 1, dtype=np.uint64) * GOLDEN
    buf = np.empty((rows, n), dtype=np.uint64)
    tmp = np.empty_like(buf)
    for start in range(0, bases.size, max(rows, 1)):
        block = bases[start:start + rows]
        keys, scratch = buf[:block.size], tmp[:block.size]
        np.add(block[:, None], item_off, out=keys)
        _mix64_inplace(keys, scratch)
        yield start, keys


def subset_blocks(root: int, n: int, m: int, count: int):
    """Yield ``(start, subsets)`` for draws ``start, start+1, ...`` of ``count``.

    Row r of ``subsets`` holds the sorted indices of the m smallest keys of
    ``partition_keys(root + start + r + 1, n)``: the draw that key stream
    defines.  Draws are made one block of trials at a time (see the module
    docstring); ``subsets`` is a fresh (rows, m) array per block.
    """
    with np.errstate(over="ignore"):
        bases = mix64_array(
            np.uint64(int(root) % (1 << 64)) + np.arange(1, count + 1, dtype=np.uint64)
        )
    for start, keys in _key_blocks(bases, n):
        subsets = np.argpartition(keys, m - 1, axis=1)[:, :m]
        subsets.sort(axis=1)
        yield start, subsets


def sample_means_without_replacement(
    values: np.ndarray, m: int, trials: int, seed: int
) -> np.ndarray:
    """Means of ``trials`` seeded m-subsets drawn without replacement.

    Trial t draws the m-subset whose keys are the m smallest of the SplitMix64
    stream rooted at ``mix64(mix64(seed) + (t+1)*GOLDEN)``.

    Args:
        values: 1-d float array, the population.
        m: subset size, 1 <= m <= len(values).
        trials: number of independent draws.
        seed: any integer; draws are a pure function of (seed, t).

    Returns:
        Float array of shape (trials,) with the per-trial sample means.

    Per block of trials, one partition finds every row's m-th smallest key;
    the row's subset is the keys at or below it (exactly m, the keys being
    distinct), and the subset sums are one matrix-vector product with that
    0/1 mask.
    """
    values = np.ascontiguousarray(np.asarray(values, dtype=np.float64).ravel())
    n = values.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"subset size {m} outside [1, {n}]")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    trials = int(trials)
    root = mix64_int(int(seed) % (1 << 64))
    out = np.empty(trials, dtype=np.float64)
    with np.errstate(over="ignore"):
        bases = mix64_array(
            np.uint64(root) + np.arange(1, trials + 1, dtype=np.uint64) * GOLDEN
        )
    rows = _block_rows(n, trials)
    select = np.empty((rows, n), dtype=np.uint64)
    mask = np.empty((rows, n), dtype=np.float64)
    for start, keys in _key_blocks(bases, n):
        count = keys.shape[0]
        np.copyto(select[:count], keys)
        select[:count].partition(m - 1, axis=1)
        np.less_equal(keys, select[:count, m - 1:m], out=mask[:count])
        np.matmul(mask[:count], values, out=out[start:start + count])
    out /= m
    return out
