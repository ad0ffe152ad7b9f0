"""Seeded sampling kernels in vectorized numpy: the one seeded-draw rule.

The generator is SplitMix64: a counter-based scheme whose k-th output is
``mix64(seed' + (k+1)*GOLDEN)`` where ``mix64`` is the standard 64-bit
avalanche finalizer and ``seed' = mix64(seed)``.  Everything is unsigned
64-bit integer arithmetic, so the key streams are bit-identical on any
platform, and a draw is reproducible from the seed alone.  ``_mix`` is the
one finalizer, and ``partition_keys`` the one vectorized form of the
stream: the keys of partitions and of sampled swap sets, the CLI's
per-partition seeds and the mean kernel's per-trial roots all come from it.

Sampling m points without replacement from n is done by keying every index
and keeping the m smallest keys.  Keys within one draw are distinct (the
finalizer is a bijection and the counters are distinct), so the selected
subset is well defined.  ``smallest_mask`` is the one selection routine:
every draw, single or blocked, takes its subset from that mask.

Many trials are drawn at once in blocks of ``rows`` trials, one row of n
keys per trial, with ``rows = _BLOCK_KEYS // n`` (at least 1): a block
holds about 256 KB of keys, so a block and its scratch copy stay in a
core's L2 cache.  The block size is a constant, not read from the host:
where the blocks start decides how the means' sums are grouped, and so
their last bits.  Buffers are allocated once per call, in the calling
thread, and refilled in place for every block, so the memory a call needs
does not grow with the trial count (beyond the output and one uint64 base
per trial).  Both block kernels run one loop, ``_block_masks``: fill a
block's keys, select them, hand the mask on.  ``subset_blocks`` runs in
the calling thread with one key block, one scratch block and a bool mask
of the same shape.
``sample_means_without_replacement`` shares its blocks out among worker
threads, one per CPU the process may run on, with two blocks (keys and
scratch) per worker; numpy releases the GIL in the ufuncs, the partition
and the matrix-vector product, so the workers run in parallel.  Each block
is computed the same way whichever worker runs it, so the means are
bit-identical for any number of workers.

Per-trial *means* may differ from a per-trial sum by a few float ulps
because the summation order differs (the tests allow 4 * eps times the
largest |value|); for integer-valued populations the sums are exact.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "GOLDEN",
    "mix64_int",
    "mix64_array",
    "partition_keys",
    "smallest_mask",
    "subset_blocks",
    "numba_enabled",
    "sample_means_without_replacement",
]

_MASK = (1 << 64) - 1
GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# the finalizer's (shift, multiplier) rounds and last shift as 0-d arrays, which
# a ufunc takes faster than scalars: it counts on one-element and one-draw arrays
_ROUNDS = tuple((np.array(shift, dtype=np.uint64), np.array(mult, dtype=np.uint64))
                for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)))
_LAST_SHIFT = np.array(31, dtype=np.uint64)


def numba_enabled() -> bool:
    """Always False (the kernels are numpy only); kept for callers that report the path."""
    return False


def _mix(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Apply the SplitMix64 finalizer to the uint64 array ``z`` in place and return it.

    ``scratch`` has z's shape and is overwritten.
    """
    for shift, mult in _ROUNDS:
        np.right_shift(z, shift, scratch)
        np.bitwise_xor(z, scratch, z)
        np.multiply(z, mult, z)
    np.right_shift(z, _LAST_SHIFT, scratch)
    np.bitwise_xor(z, scratch, z)
    return z


def mix64_int(z: int) -> int:
    """SplitMix64 finalizer on a Python integer (mod 2**64)."""
    return int(mix64_array([int(z) & _MASK])[0])


def mix64_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied elementwise to a uint64 copy of ``z``."""
    z = np.array(z, dtype=np.uint64)
    return _mix(z, np.empty_like(z))


def partition_keys(seed: int, n: int) -> np.ndarray:
    """Per-index uint64 keys for one seeded draw over ``n`` items.

    The m smallest keys identify a uniformly random m-subset.  Keys are
    pairwise distinct for any seed and n < 2**64.
    """
    keys = _item_offsets(n)
    keys += mix64_int(seed)
    return _mix(keys, np.empty_like(keys))


def _item_offsets(n: int) -> np.ndarray:
    """``(i+1) * GOLDEN`` for i < n: the per-index counter offsets of a key row."""
    return np.arange(1, n + 1, dtype=np.uint64) * GOLDEN


def smallest_mask(keys: np.ndarray, m: int, scratch: np.ndarray | None = None,
                  mask: np.ndarray | None = None) -> np.ndarray:
    """Mark the m smallest keys of each row (last axis) of ``keys``: each row's m-subset.

    Partitions a copy of the keys (in ``scratch``, overwritten, when given)
    and returns ``keys <=`` each row's m-th smallest key, in ``mask`` when
    given: bool, or float64 0/1 that may view ``keys`` itself (numpy makes
    an elementwise ufunc with exactly overlapping operands safe).  Keys
    within a row are distinct, so every row has exactly m marks.
    """
    if scratch is None:
        scratch = keys.copy()
    else:
        scratch[...] = keys
    scratch.partition(m - 1, axis=-1)
    return np.less_equal(keys, scratch[..., m - 1:m], mask)


_BLOCK_KEYS = 32_768  # uint64 keys per block: 256 KB


def _block_rows(n: int, trials: int) -> int:
    """Trials per key block: ``_BLOCK_KEYS // n``, at most ``trials``, at least 1.

    A block then holds about 256 KB of keys, or one row when n is larger.
    """
    return max(1, min(_BLOCK_KEYS // n, trials))


def _block_buffers(rows: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Key and scratch buffers for blocks of up to ``rows`` draws over n items."""
    return np.empty((rows, n), dtype=np.uint64), np.empty((rows, n), dtype=np.uint64)


def _fill_keys(block: np.ndarray, item_off: np.ndarray, keys: np.ndarray,
               scratch: np.ndarray) -> None:
    """``keys[r, i] = mix64(block[r] + item_off[i])``, mixed in place.

    ``scratch`` has keys' shape and is overwritten.
    """
    np.add(block[:, None], item_off, out=keys)
    _mix(keys, scratch)


def _block_masks(bases: np.ndarray, item_off: np.ndarray, m: int, starts: range,
                 buffers: tuple[np.ndarray, np.ndarray], mask: np.ndarray):
    """Yield ``(start, mask[:k])`` for the block of k draws at each of ``starts``.

    Row r is the draw of ``bases[start + r]``, filled and selected in the
    ``_block_buffers`` ``buffers``; k is at most their row count.  ``mask``
    is overwritten by the next block.
    """
    keys, scratch = buffers
    for start in starts:
        k = min(keys.shape[0], bases.size - start)
        _fill_keys(bases[start:start + k], item_off, keys[:k], scratch[:k])
        yield start, smallest_mask(keys[:k], m, scratch[:k], mask[:k])


def _worker_count() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def subset_blocks(root: int, n: int, m: int, count: int):
    """Yield ``(start, subsets)`` for draws ``start, start+1, ...`` of ``count``.

    Row r of ``subsets`` holds the sorted indices of the m smallest keys of
    ``partition_keys(root + start + r + 1, n)``: the draw that key stream
    defines.  Draws are made one block of trials at a time (see the module
    docstring) into a bool mask; ``np.flatnonzero`` lists the mask's flat
    positions in row order and, within a row, in index order, m per row, so
    they are the subsets once each row's offset is taken off.  ``subsets``
    is a fresh (rows, m) int64 array per block.
    """
    bases = np.arange(1, count + 1, dtype=np.uint64) + np.uint64(int(root) & _MASK)
    _mix(bases, np.empty_like(bases))
    rows = _block_rows(n, count)
    row_off = np.arange(0, rows * n, n)[:, None]
    mask = np.empty((rows, n), dtype=bool)
    for start, block in _block_masks(bases, _item_offsets(n), m, range(0, count, rows),
                                     _block_buffers(rows, n), mask):
        k = block.shape[0]
        subsets = np.flatnonzero(block).reshape(k, m)
        subsets -= row_off[:k]
        yield start, subsets


def sample_means_without_replacement(
    values: np.ndarray, m: int, trials: int, seed: int
) -> np.ndarray:
    """Means of ``trials`` seeded m-subsets drawn without replacement.

    Trial t draws the m-subset whose keys are the m smallest of the SplitMix64
    stream rooted at ``partition_keys(seed, trials)[t]``.

    Args:
        values: 1-d float array, the population.
        m: subset size, 1 <= m <= len(values).
        trials: number of independent draws.
        seed: any integer; draws are a pure function of (seed, t).

    Returns:
        Float array of shape (trials,) with the per-trial sample means.

    Per block of trials, ``_block_masks`` writes the 0/1 mask of every
    row's subset over the block's keys, and the subset sums are one
    matrix-vector product with it.  Worker w of the module docstring's
    workers computes blocks w, w + workers, ...; a worker's exception
    reaches the caller.
    """
    values = np.ascontiguousarray(np.asarray(values, dtype=np.float64).ravel())
    n = values.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"subset size {m} outside [1, {n}]")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    trials = int(trials)
    out = np.empty(trials, dtype=np.float64)
    bases = partition_keys(seed, trials)
    item_off = _item_offsets(n)
    rows = _block_rows(n, trials)
    starts = range(0, trials, rows)
    workers = min(_worker_count(), len(starts))
    # allocated here, not in the workers, so they come from the main heap
    buffers = [_block_buffers(rows, n) for _ in range(workers)]

    def work(w: int) -> None:
        mask = buffers[w][0].view(np.float64)
        for start, block in _block_masks(bases, item_off, m, starts[w::workers], buffers[w], mask):
            np.matmul(block, values, out=out[start:start + block.shape[0]])

    if workers == 1:
        work(0)
    elif workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a pool pays for the import

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(work, range(workers)))
    out /= m
    return out
