"""Toy error correction and Toeplitz privacy amplification."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbitqkd import ecpa
from pbitqkd.ecpa import (
    MAX_DECODE_WEIGHT,
    bits_to_hex,
    error_correct,
    pa_length,
    syndrome_rows,
    syndrome_stats,
    toeplitz_apply,
    toeplitz_seed,
)
from pbitqkd.bounds import binary_entropy


def test_syndrome_rows_extremes():
    assert syndrome_rows(0.0, 16) == 0
    assert syndrome_rows(0.5, 16) == 16  # reveal-everything regime
    assert 0 < syndrome_rows(0.02, 16) < 16
    with pytest.raises(ValueError):
        syndrome_rows(-0.1, 16)
    assert syndrome_rows(0.5, ecpa.MAX_EC_BLOCK) == ecpa.MAX_EC_BLOCK
    for block in (0, ecpa.MAX_EC_BLOCK + 1):  # the last is past the decoder's pattern table
        with pytest.raises(ValueError):
            syndrome_rows(0.1, block)


def test_syndrome_rows_formula():
    import math

    eps, block = 0.03, 16
    expected = min(block, math.ceil(1.44 * block * binary_entropy(eps)) + 6)
    assert syndrome_rows(eps, block) == expected


# one 16-bit block; Bob's corrected bits are Alice's XOR the residual pattern
def test_ec_block_zero_rows_is_identity():
    rng = np.random.default_rng(0)
    alice = rng.integers(0, 2, 16, dtype=np.uint8)
    bob = alice.copy()
    bob[3] ^= 1
    residual, stats = error_correct(alice ^ bob, 0.0, 16, rng)
    assert stats["rows_per_block"] == 0
    assert np.array_equal(alice ^ residual, bob)


def test_ec_block_full_rows_reveals():
    rng = np.random.default_rng(1)
    alice = rng.integers(0, 2, 16, dtype=np.uint8)
    bob = (alice + 1) % 2
    residual, stats = error_correct(alice ^ bob, 0.5, 16, rng)
    assert stats["rows_per_block"] == 16
    assert np.array_equal(alice ^ residual, alice)


def test_ec_block_corrects_small_errors():
    assert syndrome_rows(0.04, 16) == 12
    rng = np.random.default_rng(2)
    hits = 0
    trials = 50
    for _ in range(trials):
        alice = rng.integers(0, 2, 16, dtype=np.uint8)
        bob = alice.copy()
        bob[rng.integers(16)] ^= 1  # single planted flip
        residual, _ = error_correct(alice ^ bob, 0.04, 16, rng)
        hits += int(np.array_equal(alice ^ residual, alice))
    assert hits >= trials - 2  # 12 random parities almost always pin one flip


def test_error_correct_end_to_end():
    rng = np.random.default_rng(3)
    n = 512
    alice = rng.integers(0, 2, n, dtype=np.uint8)
    flips = rng.random(n) < 0.02
    bob = alice ^ flips.astype(np.uint8)
    err = alice ^ bob
    residual, stats = error_correct(err, eps_hat=0.02, block=16, rng=rng)
    assert residual is err  # corrected in place
    fixed = alice ^ residual
    assert stats["blocks"] == 32
    assert stats["syndrome_bits"] == stats["rows_per_block"] * 32
    assert stats["shannon_bits"] < stats["syndrome_bits"]  # the documented toy penalty
    assert stats["residual_disagreements"] <= 1
    assert int(np.sum(alice != fixed)) == stats["residual_disagreements"]


def test_error_correct_handles_ragged_tail():
    rng = np.random.default_rng(4)
    alice = rng.integers(0, 2, 40, dtype=np.uint8)  # 2.5 blocks of 16
    bob = alice.copy()
    bob[39] ^= 1  # error in the tail
    residual, stats = error_correct(alice ^ bob, eps_hat=0.05, block=16, rng=rng)
    assert stats["blocks"] == 2
    assert np.array_equal((alice ^ residual)[32:], alice[32:])  # tail revealed outright
    assert stats["syndrome_bits"] == stats["rows_per_block"] * 2 + 8


def test_error_correct_noop_at_zero_estimate():
    rng = np.random.default_rng(5)
    alice = rng.integers(0, 2, 64, dtype=np.uint8)
    bob = alice.copy()
    residual, stats = error_correct(alice ^ bob, eps_hat=0.0, block=16, rng=rng)
    assert np.array_equal(alice ^ residual, bob)
    assert stats["syndrome_bits"] == 0


def _reference_block(alice, bob, rows, rng):
    # one block at a time: the per-pattern brute-force search
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


def _reference_error_correct(alice, bob, eps_hat, rows, block, rng):
    n = alice.size
    corrected = bob.copy()
    n_blocks = 0
    for start in range(0, n - n % block, block):
        sl = slice(start, start + block)
        corrected[sl] = _reference_block(alice[sl], bob[sl], rows, rng)
        n_blocks += 1
    tail = n % block
    if tail and rows > 0:
        corrected[n - tail :] = alice[n - tail :]
    stats = {
        "blocks": n_blocks,
        "rows_per_block": rows,
        "syndrome_bits": rows * n_blocks + (tail if rows > 0 else 0),
        "shannon_bits": math.ceil(n * binary_entropy(min(max(eps_hat, 0.0), 0.5))),
        "residual_disagreements": int(np.sum(alice != corrected)),
    }
    return corrected, stats


@pytest.mark.parametrize(
    "block, rows",
    [(16, r) for r in range(17)] + [(5, r) for r in range(6)] + [(7, r) for r in range(8)],
)
def test_batched_decoder_matches_per_block_search(monkeypatch, block, rows):
    # rows * block % 4 != 0 for most of these, so the per-block draws cannot be merged
    monkeypatch.setattr(ecpa, "syndrome_rows", lambda eps, b: rows)
    # small chunks, so draw and decode chunk boundaries fall inside the input
    monkeypatch.setattr(ecpa, "_DRAW_BLOCKS", 4)
    monkeypatch.setattr(ecpa, "_DECODE_WORDS", 40)
    gen = np.random.default_rng(1000 * block + rows)
    heavy = 0
    for n_blocks, flip_rate in [(30, 0.03), (6, 0.5)]:
        n = n_blocks * block + block // 2  # a ragged tail
        alice = gen.integers(0, 2, n, dtype=np.uint8)
        bob = alice ^ (gen.random(n) < flip_rate).astype(np.uint8)
        weights = (alice ^ bob)[: n_blocks * block].reshape(n_blocks, block).sum(axis=1)
        heavy += int(np.sum(weights > MAX_DECODE_WEIGHT))
        rng_a, rng_b = np.random.default_rng(rows), np.random.default_rng(rows)
        residual, got_stats = error_correct(alice ^ bob, 0.03, block, rng_a)
        want, want_stats = _reference_error_correct(alice, bob, 0.03, rows, block, rng_b)
        assert np.array_equal(alice ^ residual, want)
        assert got_stats == want_stats
        assert rng_a.random() == rng_b.random()
        one_a, one_b = np.random.default_rng(rows), np.random.default_rng(rows)
        residual, _ = error_correct(alice[:block] ^ bob[:block], 0.03, block, one_a)
        assert np.array_equal(
            alice[:block] ^ residual,
            _reference_block(alice[:block], bob[:block], rows, one_b),
        )
        assert one_a.random() == one_b.random()
    if block == 16:
        assert heavy > 0  # the decoder-miss path ran


def test_toeplitz_seed_and_apply_shapes():
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, 100, dtype=np.uint8)
    seed = toeplitz_seed(100, 40, rng)
    assert seed.size == 139
    out = toeplitz_apply(bits, seed, 40)
    assert out.size == 40 and set(np.unique(out)) <= {0, 1}
    assert toeplitz_apply(bits, np.zeros(0, dtype=np.uint8), 0).size == 0
    state = rng.bit_generator.state
    assert toeplitz_seed(100, 0, rng).size == 0 and rng.bit_generator.state == state  # no draw
    with pytest.raises(ValueError):
        toeplitz_apply(bits, seed, 101)
    with pytest.raises(ValueError):
        toeplitz_apply(bits, seed[:-1], 40)


def test_toeplitz_matches_explicit_matrix():
    # the convolution shortcut equals the literal Toeplitz matrix product
    rng = np.random.default_rng(7)
    # (64, 64) was the old short-path threshold; (65, 64) and (66, 64) pad
    # L + out_len - 1 = 128 and 129 to a 5-smooth length exactly at and past
    # it; the last three pad 1299 to 1350, exactly 1350, and 3186 to 3200,
    # each below the power of two
    for n, out_len in [(1, 1), (30, 12), (64, 64), (65, 64), (66, 64), (200, 64),
                       (1000, 300), (1000, 351), (2000, 1187)]:
        bits = rng.integers(0, 2, n, dtype=np.uint8)
        seed = toeplitz_seed(n, out_len, rng)
        t = seed[np.arange(out_len)[:, None] + n - 1 - np.arange(n)]  # T[i, j]
        direct = (t.astype(np.int64) @ bits) % 2
        assert np.array_equal(toeplitz_apply(bits, seed, out_len), direct)


def test_fft_size_is_the_smallest_5_smooth_length():
    def smooth(m):
        for prime in (2, 3, 5):
            while m % prime == 0:
                m //= prime
        return m == 1

    for n in range(1, 2000):
        assert ecpa._fft_size(n) == next(m for m in range(n, 2 * n + 1) if smooth(m)), n
    assert [ecpa._fft_size(n) for n in (1299, 1350, 3186)] == [1350, 1350, 3200]


def test_pa_length():
    import math

    raw, ex, ez, syn, s = 10000, 0.02, 0.01, 800, 40
    rate = 1.0 - binary_entropy(ex) - binary_entropy(ez)
    assert pa_length(raw, ex, ez, syn, s) == math.floor(raw * rate) - syn - 2 * s
    assert pa_length(100, 0.4, 0.4, 0, 1) == 0  # floored at zero
    assert pa_length(0, 0.0, 0.0, 0, 1) == 0
    with pytest.raises(ValueError):
        pa_length(-1, 0.0, 0.0, 0, 1)


# the reveal path's skip of the key stage: a syndrome of every raw bit leaves no key
@given(st.integers(0, 10**15), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 10**9))
def test_pa_length_is_zero_when_the_syndrome_is_the_raw_key(raw, ex, ez, s):
    assert pa_length(raw, ex, ez, raw, s) == 0


# rows 0, between 0 and the block, and the whole block (the reveal path): the stats
# known before the key is drawn are error_correct's; at rows 0 and at the block EC
# draws nothing, and at the block it reveals every bit and leaves no residual
@pytest.mark.parametrize("eps, block", [(0.0, 16), (0.02, 16), (0.5, 16), (0.02, 7)],
                         ids=["none", "some", "reveal", "reveal-small-block"])
@given(n=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_syndrome_stats_match_error_correct(eps, block, n, seed):
    rows = syndrome_rows(eps, block)
    rng = np.random.default_rng(seed)
    err = rng.integers(0, 2, n, dtype=np.uint8)
    drawn = rng.bit_generator.state
    _, stats = error_correct(err, eps, block, rng)
    residual = stats.pop("residual_disagreements")
    assert list(stats.items()) == list(syndrome_stats(n, eps, block).items())
    if rows in (0, block):
        assert rng.bit_generator.state == drawn
    if rows == block:
        assert stats["syndrome_bits"] == n and residual == 0
    else:
        assert 0 <= residual <= n


def test_bits_to_hex():
    assert bits_to_hex(np.zeros(0, dtype=np.uint8)) == ""
    assert bits_to_hex(np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)) == "f0"
    assert bits_to_hex(np.array([1], dtype=np.uint8)) == "80"  # big-endian padding


@given(st.integers(0, 2**32 - 1), st.integers(1, 120), st.integers(0, 120))
@settings(max_examples=40, deadline=None)
def test_toeplitz_is_linear_over_gf2(seed, n, out_len):
    out_len = min(out_len, n)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, n, dtype=np.uint8)
    b = rng.integers(0, 2, n, dtype=np.uint8)
    tseed = toeplitz_seed(n, out_len, rng)
    lhs = toeplitz_apply(a ^ b, tseed, out_len)
    rhs = toeplitz_apply(a, tseed, out_len) ^ toeplitz_apply(b, tseed, out_len)
    assert np.array_equal(lhs, rhs)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_error_correct_reduces_disagreements(seed):
    rng = np.random.default_rng(seed)
    n = 256
    alice = rng.integers(0, 2, n, dtype=np.uint8)
    flips = (rng.random(n) < 0.02).astype(np.uint8)
    bob = alice ^ flips
    fixed, stats = error_correct(alice ^ bob, eps_hat=0.02, block=16, rng=rng)
    assert stats["residual_disagreements"] <= int(flips.sum())
