"""Two-universal privacy amplification via Toeplitz matrices over GF(2).

The hash of an N-symbol block is a k-bit vector T(seed) @ bits(v) mod 2,
where T(seed) is the k x (N b) Toeplitz matrix whose diagonals are the seed
bits and b = log2(alphabet size).  The seed therefore has d = N b + k - 1
bits; it is public and is charged to the public channel by the protocol
report.  Output bit i is the window seed[i : i + N b] against the reversed
input bits, so one integer product of a sliding window view of the seeds
with the bit rows hashes a batch of inputs, each under its own seed; a
single hash is the one-row case.  Because the map is linear in the seed for
fixed input, the output distribution over a uniform seed is uniform on the
column space of an input-dependent matrix (`hash_matrix_for_input`: row i,
column t holds bit v[N b - 1 + i - t]).  That matrix has full rank k for
every nonzero input: if j is its highest set bit, columns
t = N b - 1 - j + i (i < k) are triangular with a unit diagonal.  So the
exact leakage evaluator takes the output as uniform on all 2^k values for a
nonzero input and as 0 for the zero input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DomainError, KTooLarge

__all__ = [
    "hash_matrix_for_input",
    "privacy_amplify",
    "seed_length",
    "symbols_to_bits",
    "toeplitz_hash",
]


def _bits_per_symbol(alphabet_size: int) -> int:
    size = int(alphabet_size)
    b = size.bit_length() - 1
    if size <= 1 or (1 << b) != size:
        raise DomainError(
            f"hashing needs a power-of-two alphabet, got size {alphabet_size}"
        )
    return b


def seed_length(n_symbols: int, alphabet_size: int, k: int) -> int:
    """Toeplitz seed length d = N log2|V| + k - 1; zero when k = 0."""
    k = int(k)
    if k < 0:
        raise DomainError("secret length must be nonnegative")
    if k == 0:
        return 0
    return int(n_symbols) * _bits_per_symbol(alphabet_size) + k - 1


def symbols_to_bits(v_seq: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Big-endian bit expansion of each symbol, concatenated."""
    b = _bits_per_symbol(alphabet_size)
    v = np.asarray(v_seq, dtype=np.int64)
    if v.size and (v.min() < 0 or v.max() >= alphabet_size):
        raise DomainError("symbol outside the declared alphabet")
    shifts = np.arange(b - 1, -1, -1)
    return ((v[:, None] >> shifts[None, :]) & 1).astype(np.uint8).ravel()


def _hash_rows(seeds: np.ndarray, v_bits: np.ndarray, k: int) -> np.ndarray:
    """(F, k) Toeplitz hashes of the (F, N b) bit rows, row f under seeds[f].

    seeds is (F, N b + k - 1) and k >= 1.  Both operands are uint8, so the
    product's sums wrap modulo 256, an even modulus: their parity is exact.
    """
    seeds = np.asarray(seeds).astype(np.uint8, copy=False)
    v_bits = np.asarray(v_bits).astype(np.uint8, copy=False)
    windows = sliding_window_view(seeds, v_bits.shape[1], axis=1)  # (F, k, N b)
    return (windows @ v_bits[:, ::-1, None])[:, :, 0] & 1


def toeplitz_hash(seed_bits: np.ndarray, v_bits: np.ndarray, k: int) -> np.ndarray:
    """k output bits of the Toeplitz product of one seed and one bit string."""
    k = int(k)
    if k == 0:
        return np.zeros(0, dtype=np.uint8)
    seed = np.asarray(seed_bits, dtype=np.int64)
    v = np.asarray(v_bits, dtype=np.int64)
    n_bits = v.size
    if seed.size != n_bits + k - 1:
        raise DomainError(
            f"seed must have {n_bits + k - 1} bits, got {seed.size}"
        )
    return _hash_rows(seed[None], v[None], k)[0]


def privacy_amplify(
    v_seq: np.ndarray, seed_bits: np.ndarray, k: int, alphabet_size: int
) -> np.ndarray:
    """Hash an N-symbol block down to k secret bits (empty when k = 0)."""
    k = int(k)
    if k < 0:
        raise DomainError("secret length must be nonnegative")
    if k == 0:
        return np.zeros(0, dtype=np.uint8)
    v = np.asarray(v_seq, dtype=np.int64)
    b = _bits_per_symbol(alphabet_size)
    if k > v.size * b:
        raise KTooLarge(f"cannot extract {k} bits from {v.size * b} input bits")
    return toeplitz_hash(seed_bits, symbols_to_bits(v, alphabet_size), k)


@dataclass(frozen=True)
class InputHashMatrix:
    """The k x d GF(2) matrix A with hash(v, seed) = A @ seed mod 2."""

    matrix: np.ndarray  # (k, d) uint8

    def image_distribution(self) -> tuple[np.ndarray, float]:
        """Reachable outputs under a uniform seed and their common mass.

        The output is uniform on the column space; returns (outputs, mass)
        where outputs is (2^rank, k) and mass = 2^-rank.
        """
        k, _ = self.matrix.shape
        basis: list[int] = []
        for col in self.matrix.T:
            word = 0  # bit i of word = row i of the column
            for i in range(k):
                word |= int(col[i]) << i
            for b in basis:
                word = min(word, word ^ b)
            if word:
                basis.append(word)
        rank = len(basis)
        outputs = np.zeros((1 << rank, k), dtype=np.uint8)
        words = [0]
        for b in basis:
            words += [w ^ b for w in words]
        for row, w in enumerate(words):
            for i in range(k):
                outputs[row, i] = (w >> i) & 1
        return outputs, 2.0 ** (-rank)


def hash_matrix_for_input(v_bits: np.ndarray, k: int) -> InputHashMatrix:
    """Matrix of the seed-linear map seed -> toeplitz_hash(seed, v_bits, k).

    Row i, column t holds v_bits[n_bits - 1 + i - t] when that index is in
    range, matching the convolution slice used by toeplitz_hash.
    """
    k = int(k)
    v = np.asarray(v_bits, dtype=np.uint8)
    n_bits = v.size
    d = n_bits + k - 1 if k > 0 else 0
    mat = np.zeros((k, d), dtype=np.uint8)
    for i in range(k):
        for t in range(d):
            j = n_bits - 1 + i - t
            if 0 <= j < n_bits:
                mat[i, t] = v[j]
    return InputHashMatrix(matrix=mat)
