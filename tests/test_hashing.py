"""Toeplitz hashing tests: linearity, universality, and the seed-image map."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_share.errors import DomainError, KTooLarge
from gauss_share.protocol.hashing import (
    InputHashMatrix,
    hash_matrix_for_input,
    privacy_amplify,
    seed_length,
    symbols_to_bits,
)


def brute_hash(seed, v, k):
    """Direct convolution-sum transcription of the Toeplitz product."""
    seed = np.asarray(seed)
    v = np.asarray(v)
    n = v.size
    out = np.zeros(k, dtype=np.uint8)
    for i in range(k):
        acc = 0
        for t in range(seed.size):
            j = n - 1 + i - t
            if 0 <= j < n:
                acc += int(seed[t]) * int(v[j])
        out[i] = acc % 2
    return out


class TestSeedLength:
    def test_formula(self):
        assert seed_length(4, 4, 3) == 10
        assert seed_length(8, 2, 2) == 9
        assert seed_length(5, 8, 1) == 15

    def test_zero_secret_needs_no_seed(self):
        assert seed_length(4, 4, 0) == 0
        assert seed_length(4, 3, 0) == 0  # alphabet unchecked when unused

    def test_validation(self):
        with pytest.raises(DomainError):
            seed_length(4, 4, -1)
        with pytest.raises(DomainError):
            seed_length(4, 3, 2)
        with pytest.raises(DomainError):
            seed_length(4, 1, 2)

    def test_secret_longer_than_the_input_is_refused(self):
        assert seed_length(4, 4, 8) == 15
        with pytest.raises(KTooLarge, match="cannot extract 9 bits from 8 input bits"):
            seed_length(4, 4, 9)
        with pytest.raises(KTooLarge, match="cannot extract 1 bits from 0 input bits"):
            seed_length(0, 2, 1)


class TestSymbolBits:
    def test_big_endian_expansion(self):
        np.testing.assert_array_equal(
            symbols_to_bits([2], 4), np.array([1, 0], dtype=np.uint8)
        )
        np.testing.assert_array_equal(
            symbols_to_bits([2, 1, 3, 0], 4),
            np.array([1, 0, 0, 1, 1, 1, 0, 0], dtype=np.uint8),
        )
        np.testing.assert_array_equal(symbols_to_bits([5], 8), [1, 0, 1])

    def test_binary_alphabet_is_identity(self):
        np.testing.assert_array_equal(symbols_to_bits([0, 1, 1, 0], 2), [0, 1, 1, 0])

    def test_empty(self):
        assert symbols_to_bits([], 4).size == 0

    def test_leading_axes_are_kept(self):
        v = np.array([[[2, 1], [3, 0]], [[0, 1], [1, 1]]])
        bits = symbols_to_bits(v, 4)
        assert bits.shape == (2, 2, 4)
        for index in np.ndindex(v.shape[:-1]):
            np.testing.assert_array_equal(bits[index], symbols_to_bits(v[index], 4))

    def test_validation(self):
        with pytest.raises(DomainError):
            symbols_to_bits([0, 3], 3)
        with pytest.raises(DomainError):
            symbols_to_bits([4], 4)
        with pytest.raises(DomainError):
            symbols_to_bits([-1], 4)


# bitexact: the Toeplitz hash is an integer matmul, checked against the
# direct convolution sum under each BLAS kernel
@pytest.mark.bitexact
class TestToeplitzHash:
    """The Toeplitz product itself: privacy_amplify on raw bits (alphabet 2)."""

    def test_zero_secret_is_empty(self):
        assert privacy_amplify(np.array([1, 0, 1]), np.zeros(0), 0, 2).size == 0

    def test_zero_input_hashes_to_zero(self):
        rng = np.random.default_rng(1)
        seed = rng.integers(0, 2, 8 + 1 - 1)
        np.testing.assert_array_equal(privacy_amplify(np.zeros(8, int), seed, 1, 2), [0])

    def test_seed_size_enforced(self):
        with pytest.raises(DomainError, match="seeds must have shape"):
            privacy_amplify(np.zeros(8, int), np.zeros(5, int), 2, 2)  # needs 9 bits

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(1, min(n, 5) + 1))  # privacy_amplify refuses k > n
            v = rng.integers(0, 2, n)
            seed = rng.integers(0, 2, n + k - 1)
            np.testing.assert_array_equal(
                privacy_amplify(v, seed, k, 2), brute_hash(seed, v, k)
            )

    def test_linear_in_the_seed(self):
        rng = np.random.default_rng(4)
        v = rng.integers(0, 2, 10)
        for _ in range(20):
            s1 = rng.integers(0, 2, 12)
            s2 = rng.integers(0, 2, 12)
            lhs = privacy_amplify(v, s1 ^ s2, 3, 2)
            rhs = privacy_amplify(v, s1, 3, 2) ^ privacy_amplify(v, s2, 3, 2)
            np.testing.assert_array_equal(lhs, rhs)

    def test_linear_in_the_input(self):
        rng = np.random.default_rng(5)
        seed = rng.integers(0, 2, 12)
        for _ in range(20):
            v1 = rng.integers(0, 2, 10)
            v2 = rng.integers(0, 2, 10)
            lhs = privacy_amplify(v1 ^ v2, seed, 3, 2)
            rhs = privacy_amplify(v1, seed, 3, 2) ^ privacy_amplify(v2, seed, 3, 2)
            np.testing.assert_array_equal(lhs, rhs)

    def test_symbol_error_pattern_decides_agreement(self):
        # symbol XOR is bit XOR for a power-of-two alphabet, so two strings
        # hash apart exactly when their XOR hashes to nonzero
        rng = np.random.default_rng(8)
        for size in (2, 4, 8):
            for _ in range(40):
                n = int(rng.integers(1, 8))
                bits = n * (size.bit_length() - 1)
                k = int(rng.integers(1, bits + 1))
                seed = rng.integers(0, 2, bits + k - 1, dtype=np.uint8)
                a = rng.integers(0, size, n)
                b = a.copy() if rng.random() < 0.25 else rng.integers(0, size, n)
                differ = not np.array_equal(privacy_amplify(a, seed, k, size),
                                            privacy_amplify(b, seed, k, size))
                assert privacy_amplify(a ^ b, seed, k, size).any() == differ

    def test_batched_rows_equal_privacy_amplify(self):
        # each row of an (F, N) or (2, 3, N) batch hashed under its own seed,
        # every k up to the full length, equals the one-row call
        rng = np.random.default_rng(9)
        for size in (2, 4, 8):
            n = 5
            bits = n * (size.bit_length() - 1)
            for batch in ((6,), (2, 3)):
                v = rng.integers(0, size, (*batch, n))
                v.reshape(-1, n)[2] = 0
                for k in range(0, bits + 1):
                    seeds = rng.integers(0, 2, (*batch, seed_length(n, size, k)), dtype=np.uint8)
                    got = privacy_amplify(v, seeds, k, size)
                    assert got.shape == (*batch, k)
                    for index in np.ndindex(batch):
                        row, vf, seed = got[index], v[index], seeds[index]
                        np.testing.assert_array_equal(row, privacy_amplify(vf, seed, k, size))
                        np.testing.assert_array_equal(
                            row, brute_hash(seed, symbols_to_bits(vf, size), k))

    def test_batch_needs_one_seed_per_row(self):
        v = np.zeros((3, 4), dtype=np.int64)
        for seeds in (np.zeros((2, 5), int), np.zeros(5, int), np.zeros((3, 4), int)):
            with pytest.raises(DomainError, match="seeds must have shape"):
                privacy_amplify(v, seeds, 2, 2)

    def test_long_rows_keep_their_parity(self):
        # more than 255 ones meet in one output bit, past the uint8 range
        for n_bits in (255, 256, 257, 600):
            seed = np.ones(n_bits + 2, dtype=np.uint8)
            v = np.ones(n_bits, dtype=np.uint8)
            np.testing.assert_array_equal(privacy_amplify(v, seed, 3, 2), brute_hash(seed, v, 3))
            assert privacy_amplify(v, seed, 3, 2).tolist() == [n_bits % 2] * 3

    def test_matrix_form_agrees(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(1, 10))
            k = int(rng.integers(1, min(n, 4) + 1))
            v = rng.integers(0, 2, n)
            seed = rng.integers(0, 2, n + k - 1)
            mat = hash_matrix_for_input(v, k).matrix
            np.testing.assert_array_equal(mat @ seed % 2, privacy_amplify(v, seed, k, 2))


# bitexact: the Toeplitz hash is an integer matmul, checked against the
# direct convolution sum under each BLAS kernel
@pytest.mark.bitexact
class TestPrivacyAmplify:
    def test_consistent_with_bit_pipeline(self):
        rng = np.random.default_rng(8)
        v = rng.integers(0, 4, 5)
        seed = rng.integers(0, 2, seed_length(5, 4, 3))
        direct = privacy_amplify(symbols_to_bits(v, 4), seed, 3, 2)
        np.testing.assert_array_equal(privacy_amplify(v, seed, 3, 4), direct)

    def test_zero_secret(self):
        assert privacy_amplify([1, 2], np.zeros(0), 0, 4).size == 0

    def test_output_budget(self):
        seed = np.zeros(seed_length(4, 2, 4), dtype=np.uint8)
        with pytest.raises(KTooLarge):
            privacy_amplify([0, 1, 0, 1], seed, 5, 2)
        with pytest.raises(DomainError):
            privacy_amplify([0, 1], np.zeros(3), -1, 2)

    def test_seed_size_enforced(self):
        with pytest.raises(DomainError, match="seeds must have shape"):
            privacy_amplify([0, 1, 0, 1], np.zeros(3, int), 2, 2)


class TestTwoUniversality:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_nonzero_difference_has_full_rank(self, k):
        """Deterministic universality: distinct inputs collide with
        probability exactly 2^-k because the difference map is onto.

        Collisions of (v1, v2) under a shared seed happen exactly when the
        hash of v1 xor v2 is zero, so full rank of every nonzero difference
        matrix pins the collision probability at 2^-k for all pairs.  This
        is the rule the exact leakage evaluator relies on, checked here for
        every string of 1..10 bits; the zero string hashes to 0 alone.
        """
        for n_bits in range(1, 11):
            for delta in itertools.product(range(2), repeat=n_bits):
                outputs, mass = hash_matrix_for_input(np.array(delta), k).image_distribution()
                if not any(delta):
                    np.testing.assert_array_equal(outputs, np.zeros((1, k)))
                    assert mass == 1.0
                    continue
                assert outputs.shape == (2**k, k)
                assert len(set(map(tuple, outputs))) == 2**k
                assert mass == 2.0**-k

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(min_value=11, max_value=48).flatmap(
            lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(any)
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_long_nonzero_strings_hash_to_every_output(self, bits, k):
        outputs, mass = hash_matrix_for_input(np.array(bits), k).image_distribution()
        assert len(set(map(tuple, outputs))) == 2**k
        assert mass == 2.0**-k

    def test_monte_carlo_collision_rate(self):
        # N = 4 symbols over a 4-letter alphabet, k = 2: expect 1/4 collisions
        k = 2
        v1 = np.array([2, 1, 3, 0])
        v2 = np.array([2, 1, 3, 1])
        d = seed_length(4, 4, k)
        rng = np.random.default_rng(2024)
        seeds = rng.integers(0, 2, (10_000, d))
        hits = sum(
            np.array_equal(
                privacy_amplify(v1, s, k, 4), privacy_amplify(v2, s, k, 4)
            )
            for s in seeds
        )
        rate = hits / 10_000
        sigma = (0.25 * 0.75 / 10_000) ** 0.5
        assert abs(rate - 0.25) <= 3.0 * sigma


class TestImageDistribution:
    def test_rank_deficient_hand_case(self):
        mat = InputHashMatrix(np.array([[1, 0], [1, 0]], dtype=np.uint8))
        outputs, mass = mat.image_distribution()
        assert mass == 0.5
        assert sorted(map(tuple, outputs)) == [(0, 0), (1, 1)]

    def test_zero_matrix(self):
        mat = InputHashMatrix(np.zeros((3, 4), dtype=np.uint8))
        outputs, mass = mat.image_distribution()
        assert mass == 1.0
        np.testing.assert_array_equal(outputs, np.zeros((1, 3)))

    def test_matches_literal_seed_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            k = int(rng.integers(1, 4))
            d = int(rng.integers(1, 9))
            mat = rng.integers(0, 2, (k, d)).astype(np.uint8)
            outputs, mass = InputHashMatrix(mat).image_distribution()

            seen = {}
            for seed in itertools.product(range(2), repeat=d):
                out = tuple(mat @ np.array(seed) % 2)
                seen[out] = seen.get(out, 0) + 1
            assert sorted(map(tuple, outputs)) == sorted(seen)
            # uniform on the image: every outcome covers the same seed count
            expected_count = mass * 2**d
            assert all(c == expected_count for c in seen.values())
