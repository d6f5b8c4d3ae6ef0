"""Toy error correction and Toeplitz privacy amplification for simulated runs.

The EC stage is deliberately simple (random per-block parity checks with a
brute-force minimum-weight decoder) and pays a hefty rate penalty over the
Shannon limit; transcripts record both the actual syndrome cost and the
Shannon-limit cost so the gap stays visible.  EC depends only on where the
parties' bits differ, so it reads and rewrites just the error pattern
(Alice's bits XOR Bob's), never the bits themselves.  The decoder is
batched: one parity matrix is still drawn per block, in block order, but the
blocks are decoded together, weight by weight, on one integer syndrome per
column, in chunks of bounded size, so memory does not grow with the key
length and no Python loop runs per block beyond the draw.  The PA stage is a
standard Toeplitz two-universal hash over GF(2), seeded from the run's
generator so that reruns are bit-identical.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .bounds import binary_entropy, key_rate

__all__ = [
    "error_correct",
    "toeplitz_seed",
    "toeplitz_apply",
    "pa_length",
]

#: Brute-force decoder gives up beyond this error weight per block.
MAX_DECODE_WEIGHT = 6
#: Largest block the decoder can search: it holds every pattern of one weight
#: up to MAX_DECODE_WEIGHT at once, C(32, 6) = 906,192 of them here.
MAX_EC_BLOCK = 32
#: Blocks whose parity matrices are drawn and decoded together.
_DRAW_BLOCKS = 4096
#: Bound on the syndromes one decoding step holds (blocks x patterns).
_DECODE_WORDS = 1 << 17


def syndrome_rows(eps: float, block: int) -> int:
    """Parity rows the toy code spends per block at bit-error rate ``eps``.

    0 at eps = 0; the full block (reveal-everything) once 1.44*H(eps)*block+6
    reaches the block size; a margin of +6 rows keeps random-coset decoding
    collisions (hence residual errors) around or below 1e-3 per bit for
    eps <= 5% at the default block of 16.  Far above the ~H(eps) Shannon
    cost -- that is the documented toy penalty.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps = {eps} outside [0, 1]")
    if not 1 <= block <= MAX_EC_BLOCK:
        raise ValueError(f"block = {block} outside [1, {MAX_EC_BLOCK}]")
    if eps <= 0.0:
        return 0
    return min(block, math.ceil(1.44 * block * binary_entropy(min(eps, 0.5))) + 6)


def syndrome_stats(n: int, eps_hat: float, block: int) -> dict:
    """EC's cost on ``n`` bits at error estimate ``eps_hat``, from no bit and no draw:
    blocks, rows per block, syndrome bits (the ragged tail is revealed whenever
    rows > 0; all ``n`` at rows = block, the reveal path) and the Shannon limit."""
    rows = syndrome_rows(eps_hat, block)
    n_blocks = n // block
    return {
        "blocks": n_blocks,
        "rows_per_block": rows,
        "syndrome_bits": rows * n_blocks + (n - n_blocks * block if rows > 0 else 0),
        "shannon_bits": math.ceil(n * binary_entropy(min(max(eps_hat, 0.0), 0.5))),
    }


def error_correct(
    err: np.ndarray, eps_hat: float, block: int, rng: np.random.Generator
) -> tuple[np.ndarray, dict]:
    """Blockwise toy EC pass on the error pattern ``err`` = Alice's bits XOR Bob's.

    ``err`` is a 0/1 uint8 array.  The pass overwrites it with the residual
    pattern, the errors left after Bob's corrections, and returns it with
    ``syndrome_stats`` plus the residual disagreement count.  One parity
    matrix is drawn per whole block, in block order, and the blocks are
    decoded together; the ragged tail is revealed (set to 0) whenever
    rows > 0.  The residual count is a simulation-level diagnostic (a real
    run would catch it with a verification hash).
    """
    stats = syndrome_stats(err.size, eps_hat, block)
    rows, n_blocks = stats["rows_per_block"], stats["blocks"]
    body = n_blocks * block
    _correct_blocks(err[:body].reshape(n_blocks, block), rows, rng)
    if rows > 0:
        err[body:] = 0
    stats["residual_disagreements"] = int(np.count_nonzero(err))
    return err, stats


def _correct_blocks(err: np.ndarray, rows: int, rng: np.random.Generator) -> None:
    """Correct each row (block) of the error pattern ``err`` in place.

    rows <= 0 leaves ``err`` as it is and rows >= block reveals it (all
    zero), with no draw.  Otherwise one parity matrix per block is drawn, in
    block order, a bounded chunk of blocks at a time; each chunk is decoded
    at once, and Bob's flips are XORed into its pattern.  On a decoder miss
    a block keeps its errors.
    """
    k, block = err.shape
    if rows <= 0:
        return
    if rows >= block:
        err[...] = 0
        return
    for start in range(0, k, _DRAW_BLOCKS):
        stop = min(k, start + _DRAW_BLOCKS)
        h = np.empty((stop - start, rows, block), dtype=np.uint8)
        for i in range(stop - start):
            h[i] = rng.integers(0, 2, size=(rows, block), dtype=np.uint8)
        err[start:stop] ^= _decode(h, err[start:stop])


def _decode(h: np.ndarray, err: np.ndarray) -> np.ndarray:
    """Minimum-weight flip pattern per block; zeros where no pattern matches.

    ``h`` is (k, rows, block) parity matrices and ``err`` (k, block) the 0/1
    differences, seen only through their syndromes.  A column's syndrome is
    one integer, bit r its row r (rows < block <= MAX_EC_BLOCK), so the
    syndrome of a pattern is the XOR of its columns.  Weight by weight, every
    unresolved block is checked against every pattern of that weight in
    ``combinations`` order; the first match resolves a block.
    """
    k, rows, block = h.shape
    cols = np.zeros((k, block), dtype=np.int64)
    for r in range(rows):  # row by row: a whole-h int64 copy would take 8 bytes per bit
        cols |= h[:, r].astype(np.int64) << r
    target = np.bitwise_xor.reduce(cols * err, axis=1)  # (k,)
    flips = np.zeros((k, block), dtype=np.uint8)
    todo = np.flatnonzero(target)
    for w in range(1, min(MAX_DECODE_WEIGHT, block) + 1):
        if todo.size == 0:
            break
        pats = np.array(list(combinations(range(block), w)), dtype=np.intp)
        step = max(1, _DECODE_WORDS // pats.shape[0])
        misses = []
        for s in range(0, todo.size, step):
            idx = todo[s : s + step]
            c = cols[idx]
            syn = c[:, pats[:, 0]]
            for j in range(1, w):
                syn ^= c[:, pats[:, j]]
            hit = syn == target[idx, None]
            found = hit.any(axis=1)
            flips[idx[found, None], pats[hit[found].argmax(axis=1)]] = 1
            misses.append(idx[~found])
        todo = np.concatenate(misses)
    return flips


def toeplitz_seed(in_len: int, out_len: int, rng: np.random.Generator) -> np.ndarray:
    """Random seed defining an out_len x in_len Toeplitz matrix over GF(2)."""
    if out_len < 0 or in_len < 0:
        raise ValueError("lengths must be nonnegative")
    if out_len == 0:
        return np.zeros(0, dtype=np.uint8)
    return rng.integers(0, 2, size=out_len + in_len - 1, dtype=np.uint8)


def toeplitz_apply(bits: np.ndarray, seed: np.ndarray, out_len: int) -> np.ndarray:
    """Apply the Toeplitz matrix T[i, j] = seed[i + L - 1 - j] to a bit string.

    The matrix-vector product over GF(2) is a convolution, computed as one
    cyclic FFT product of length the smallest 5-smooth number >= L + out_len
    - 1, so every output index >= L - 1 is alias-free; counts stay far below
    2^53 so rounding is exact.  Both parties hash with the *same* seed, so
    the seed is an explicit argument.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    L = bits.size
    if out_len < 0 or out_len > L:
        raise ValueError(f"out_len {out_len} outside [0, {L}]")
    if out_len == 0:
        return np.zeros(0, dtype=np.uint8)
    if seed.size != out_len + L - 1:
        raise ValueError(f"seed length {seed.size} != out_len + L - 1 = {out_len + L - 1}")
    size = _fft_size(L + out_len - 1)
    spectrum = np.fft.rfft(seed, size)
    spectrum *= np.fft.rfft(bits, size)
    conv = np.fft.irfft(spectrum, size)
    return (np.rint(conv[L - 1 : L - 1 + out_len]).astype(np.int64) % 2).astype(np.uint8)


def _fft_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n (n >= 1): a length the FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    fives = 1
    while fives < best:
        odd = fives  # 3^b 5^c
        while odd < best:
            # odd * 2^a with the smallest a that reaches n
            best = min(best, odd << ((n - 1) // odd).bit_length())
            odd *= 3
        fives *= 5
    return best


def pa_length(raw_len: int, eps_x: float, eps_z: float, syndrome_bits: int, s: int) -> int:
    """Final key length: floor(raw * key_rate(eps_x, eps_z)) - syndrome - 2s, floored at 0."""
    if raw_len < 0:
        raise ValueError("raw_len must be nonnegative")
    return max(0, math.floor(raw_len * key_rate(eps_x, eps_z)) - syndrome_bits - 2 * s)


def bits_to_hex(bits: np.ndarray) -> str:
    """Pack a bit array (big-endian within bytes) into a hex string."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()
