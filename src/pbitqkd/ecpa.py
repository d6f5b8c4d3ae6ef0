"""Toy error correction and Toeplitz privacy amplification for simulated runs.

The EC stage is deliberately simple (random per-block parity checks with a
brute-force minimum-weight decoder) and pays a hefty rate penalty over the
Shannon limit; transcripts record both the actual syndrome cost and the
Shannon-limit cost so the gap stays visible.  The PA stage is a standard
Toeplitz two-universal hash over GF(2), seeded from the run's generator so
that reruns are bit-identical.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .bounds import binary_entropy

__all__ = [
    "syndrome_rows",
    "ec_block_correct",
    "error_correct",
    "toeplitz_seed",
    "toeplitz_apply",
    "toeplitz_extract",
    "pa_length",
    "bits_to_hex",
]

#: Brute-force decoder gives up beyond this error weight per block.
MAX_DECODE_WEIGHT = 6


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
    if block < 1:
        raise ValueError("block must be positive")
    if eps <= 0.0:
        return 0
    return min(block, math.ceil(1.44 * block * binary_entropy(min(eps, 0.5))) + 6)


def ec_block_correct(
    alice: np.ndarray, bob: np.ndarray, rows: int, rng: np.random.Generator
) -> np.ndarray:
    """Correct one block of Bob's bits toward Alice's using ``rows`` parities.

    rows == 0 leaves Bob untouched; rows >= block reveals the block (Bob
    copies Alice).  Otherwise a random parity matrix is drawn, Alice's
    syndrome announced, and Bob flips the minimum-weight pattern consistent
    with the syndrome difference (searched up to weight MAX_DECODE_WEIGHT;
    on a miss the block is left as received).
    """
    block = alice.size
    if rows <= 0:
        return bob.copy()
    if rows >= block:
        return alice.copy()
    h = rng.integers(0, 2, size=(rows, block), dtype=np.uint8)
    diff = (h @ ((alice ^ bob) & 1)) % 2
    if not diff.any():
        return bob.copy()
    for w in range(1, MAX_DECODE_WEIGHT + 1):
        for pos in combinations(range(block), w):
            if np.array_equal(h[:, pos].sum(axis=1) % 2, diff):
                out = bob.copy()
                out[list(pos)] ^= 1
                return out
    return bob.copy()


def error_correct(
    alice: np.ndarray,
    bob: np.ndarray,
    eps_hat: float,
    block: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, dict]:
    """Blockwise toy EC pass.  Returns Bob's corrected bits and a stats dict.

    The residual disagreement count is a simulation-level diagnostic (a real
    run would catch it with a verification hash); the Shannon-limit syndrome
    size is reported alongside the actual one.
    """
    alice = np.asarray(alice, dtype=np.uint8)
    bob = np.asarray(bob, dtype=np.uint8)
    if alice.shape != bob.shape:
        raise ValueError("key length mismatch")
    n = alice.size
    rows = syndrome_rows(eps_hat, block)
    corrected = bob.copy()
    n_blocks = 0
    for start in range(0, n - n % block, block):
        sl = slice(start, start + block)
        corrected[sl] = ec_block_correct(alice[sl], bob[sl], rows, rng)
        n_blocks += 1
    tail = n % block
    if tail:
        # the ragged tail is revealed outright whenever any EC happens at all
        if rows > 0:
            corrected[n - tail :] = alice[n - tail :]
    syndrome_bits = rows * n_blocks + (tail if rows > 0 else 0)
    stats = {
        "blocks": n_blocks,
        "rows_per_block": rows,
        "syndrome_bits": int(syndrome_bits),
        "shannon_bits": int(math.ceil(n * binary_entropy(min(max(eps_hat, 0.0), 0.5)))),
        "residual_disagreements": int(np.sum(alice != corrected)),
    }
    return corrected, stats


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
    cyclic FFT product of length the next power of two >= L + out_len - 1,
    so every output index >= L - 1 is alias-free; counts stay far below 2^53
    so rounding is exact.  Both parties hash with the *same* seed, so the
    seed is an explicit argument.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    L = bits.size
    if out_len < 0 or out_len > L:
        raise ValueError(f"out_len {out_len} outside [0, {L}]")
    if out_len == 0:
        return np.zeros(0, dtype=np.uint8)
    if seed.size != out_len + L - 1:
        raise ValueError(f"seed length {seed.size} != out_len + L - 1 = {out_len + L - 1}")
    size = 1 << (L + out_len - 2).bit_length()
    conv = np.fft.irfft(np.fft.rfft(seed, size) * np.fft.rfft(bits, size), size)
    return (np.rint(conv[L - 1 : L - 1 + out_len]).astype(np.int64) % 2).astype(np.uint8)


def toeplitz_extract(bits: np.ndarray, out_len: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a fresh Toeplitz seed and hash ``bits`` down to ``out_len`` bits."""
    bits = np.asarray(bits, dtype=np.uint8)
    seed = toeplitz_seed(bits.size, out_len, rng)
    return toeplitz_apply(bits, seed, out_len)


def pa_length(raw_len: int, eps_x: float, eps_z: float, syndrome_bits: int, s: int) -> int:
    """Final key length: floor(raw*(1 - H(eps_x) - H(eps_z))) - syndrome - 2s, floored at 0."""
    if raw_len < 0:
        raise ValueError("raw_len must be nonnegative")
    if raw_len == 0:
        return 0
    rate = 1.0 - binary_entropy(eps_x) - binary_entropy(eps_z)
    return max(0, math.floor(raw_len * rate) - syndrome_bits - 2 * s)


def bits_to_hex(bits: np.ndarray) -> str:
    """Pack a bit array (big-endian within bytes) into a hex string."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size == 0:
        return ""
    return np.packbits(bits).tobytes().hex()
