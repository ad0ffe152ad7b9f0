"""Seeded sampling kernels in vectorized numpy.

The generator is SplitMix64: a counter-based scheme whose k-th output is
``mix64(seed' + (k+1)*GOLDEN)`` where ``mix64`` is the standard 64-bit
avalanche finalizer and ``seed' = mix64(seed)``.  Everything is unsigned
64-bit integer arithmetic, so the key streams are bit-identical on any
platform, and a draw is reproducible from the seed alone.  ``partition_keys``
is the one vectorized form of that stream: the partitions' keys, the CLI's
per-partition seeds and the mean kernel's per-trial roots all come from it.

Sampling m points without replacement from n is done by keying every index
and keeping the m smallest keys.  Keys within one draw are distinct (the
finalizer is a bijection and the counters are distinct), so the selected
subset is well defined.

Many trials are drawn at once in blocks of ``rows`` trials, one row of n
keys per trial, with ``rows = _BLOCK_KEYS // n`` (at least 1): a block
holds about 256 KB of keys, so a block and its scratch copy stay in a
core's L2 cache.  The block size is a constant, not read from the host:
where the blocks start decides how the means' sums are grouped, and so
their last bits.  Buffers are allocated once per call and refilled in
place for every block, so the memory a call needs does not grow with the
trial count (beyond the output and one uint64 base per trial).  Both
callers draw a block the same way (``_select_block``): fill the keys, find
each row's m-th smallest key by partitioning a copy, and mark the keys at
or below it.  ``subset_blocks`` runs in the calling thread with one key
block, one scratch block and a bool mask of the same shape.
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
from concurrent.futures import ThreadPoolExecutor

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
    with np.errstate(over="ignore"):
        return mix64_array(base + _item_offsets(n))


def _item_offsets(n: int) -> np.ndarray:
    """``(i+1) * GOLDEN`` for i < n: the per-index counter offsets of a key row."""
    with np.errstate(over="ignore"):
        return np.arange(1, n + 1, dtype=np.uint64) * GOLDEN


_BLOCK_KEYS = 32_768  # uint64 keys per block: 256 KB


def _block_rows(n: int, trials: int) -> int:
    """Trials per key block: ``_BLOCK_KEYS // n``, at least 1, at most ``trials``.

    A block then holds about 256 KB of keys, or one row when n is larger.
    """
    return min(max(1, _BLOCK_KEYS // n), trials)


def _block_buffers(rows: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Key, scratch and m-th-key buffers for blocks of up to ``rows`` draws over n items."""
    return (np.empty((rows, n), dtype=np.uint64), np.empty((rows, n), dtype=np.uint64),
            np.empty((rows, 1), dtype=np.uint64))


def _fill_keys(block: np.ndarray, item_off: np.ndarray, keys: np.ndarray,
               scratch: np.ndarray) -> None:
    """``keys[r, i] = mix64(block[r] + item_off[i])``, mixed in place.

    ``scratch`` has keys' shape and is overwritten.
    """
    np.add(block[:, None], item_off, out=keys)
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(keys, np.uint64(shift), out=scratch)
        np.bitwise_xor(keys, scratch, out=keys)
        np.multiply(keys, mult, out=keys)
    np.right_shift(keys, np.uint64(31), out=scratch)
    np.bitwise_xor(keys, scratch, out=keys)


def _select_block(block: np.ndarray, item_off: np.ndarray, m: int, keys: np.ndarray,
                  scratch: np.ndarray, kth: np.ndarray, mask: np.ndarray) -> None:
    """Draw one block: ``mask[r]`` marks the m items of row r's subset.

    Fills ``keys`` for the bases in ``block`` (``_fill_keys``), partitions a
    copy of them in ``scratch`` to read each row's m-th smallest key into
    ``kth``, and writes ``keys <= kth`` to ``mask``: bool, or float64 (0/1)
    for a matrix product, in which case it may view ``scratch``, spent by
    then.  Keys within a row are distinct, so every row has exactly m marks.
    All buffers have ``block.size`` rows and are overwritten.
    """
    _fill_keys(block, item_off, keys, scratch)
    np.copyto(scratch, keys)
    scratch.partition(m - 1, axis=1)
    np.copyto(kth, scratch[:, m - 1:m])
    np.less_equal(keys, kth, out=mask)


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
    docstring) by ``_select_block`` into a bool mask; ``np.flatnonzero``
    lists the mask's flat positions in row order and, within a row, in index
    order, m per row, so they are the subsets once each row's offset is
    taken off.  ``subsets`` is a fresh (rows, m) int64 array per block.
    """
    with np.errstate(over="ignore"):
        bases = mix64_array(
            np.uint64(int(root) % (1 << 64)) + np.arange(1, count + 1, dtype=np.uint64)
        )
    rows = _block_rows(n, count)
    item_off = _item_offsets(n)
    keys_buf, scratch_buf, kth_buf = _block_buffers(rows, n)
    mask_buf = np.empty((rows, n), dtype=bool)
    row_off = np.arange(0, rows * n, n)[:, None]
    for start in range(0, count, max(rows, 1)):
        k = min(rows, count - start)
        _select_block(bases[start:start + k], item_off, m,
                      keys_buf[:k], scratch_buf[:k], kth_buf[:k], mask_buf[:k])
        subsets = np.flatnonzero(mask_buf[:k]).reshape(k, m)
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

    Per block of trials, ``_select_block`` writes the 0/1 mask of every
    row's subset over the scratch block, and the subset sums are one
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
    starts = range(0, trials, max(rows, 1))
    workers = min(_worker_count(), len(starts))
    # allocated here, not in the workers, so they come from the main heap
    buffers = [_block_buffers(rows, n) for _ in range(workers)]

    def work(w: int) -> None:
        keys, scratch, kth = buffers[w]
        for start in starts[w::workers]:
            count = min(rows, trials - start)
            mask = scratch[:count].view(np.float64)
            _select_block(bases[start:start + count], item_off, m,
                          keys[:count], scratch[:count], kth[:count], mask)
            np.matmul(mask, values, out=out[start:start + count])

    if workers == 1:
        work(0)
    elif workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(work, range(workers)))
    out /= m
    return out
