"""Two-universal privacy amplification via Toeplitz matrices over GF(2).

`privacy_amplify` is the one hash entry point.  The hash of an N-symbol
block is a k-bit vector T(seed) @ bits(v) mod 2, where bits(v) is the
big-endian expansion of each symbol into b = log2(alphabet size) bits (an
alphabet of 2 hashes raw bits) and T(seed) is the k x (N b) Toeplitz matrix
whose diagonals are the seed bits.  The seed therefore has d = N b + k - 1
bits (`seed_length`, which also refuses k > N b); it is public and is
charged to the public channel by the protocol report.  Output bit i is the
window seed[i : i + N b] against the reversed input bits, so one integer
product of a sliding window view of the seeds with the bit rows hashes a
batch of rows, each under its own seed; a single block is the one-row case.
Because the map is linear in the seed for fixed input, the output
distribution over a uniform seed is uniform on the column space of an
input-dependent matrix (`hash_matrix_for_input`: row i, column t holds bit
v[N b - 1 + i - t]).  That matrix has full rank k for every nonzero input:
if j is its highest set bit, columns t = N b - 1 - j + i (i < k) are
triangular with a unit diagonal.  So the exact leakage evaluator takes the
output as uniform on all 2^k values for a nonzero input and as 0 for the
zero input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import DomainError, KTooLarge, _check_count, _check_symbols

__all__ = [
    "hash_matrix_for_input",
    "privacy_amplify",
    "seed_length",
    "symbols_to_bits",
]


def _bits_per_symbol(alphabet_size: int) -> int:
    size = _check_count(alphabet_size, "alphabet size", DomainError)
    b = size.bit_length() - 1
    if size <= 1 or (1 << b) != size:
        raise DomainError(
            f"hashing needs a power-of-two alphabet, got size {alphabet_size}"
        )
    return b


def seed_length(n_symbols: int, alphabet_size: int, k: int) -> int:
    """Toeplitz seed length d = N log2|V| + k - 1; zero when k = 0.

    Raises DomainError for a count that is not an integer, k < 0 or, when
    k > 0, an alphabet size that is not a power of two, and KTooLarge when k exceeds the N log2|V| input bits.
    """
    k = _check_count(k, "secret length", DomainError)
    if k < 0:
        raise DomainError("secret length must be nonnegative")
    if k == 0:
        return 0
    n_bits = _check_count(n_symbols, "n_symbols", DomainError) * _bits_per_symbol(alphabet_size)
    if k > n_bits:
        raise KTooLarge(f"cannot extract {k} bits from {n_bits} input bits")
    return n_bits + k - 1


def symbols_to_bits(v_seq: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Big-endian bit expansion of each symbol, concatenated along the last
    axis: (..., N) symbols give (..., N b) bits."""
    b = _bits_per_symbol(alphabet_size)
    v = _check_symbols(v_seq, 1 << b, "v", DomainError)
    shifts = np.arange(b - 1, -1, -1)
    bits = ((v[..., None] >> shifts) & 1).astype(np.uint8)
    return bits.reshape(*v.shape[:-1], v.shape[-1] * b)


def privacy_amplify(
    v_seq: np.ndarray, seed_bits: np.ndarray, k: int, alphabet_size: int
) -> np.ndarray:
    """Hash N-symbol rows down to k secret bits each (empty when k = 0).

    v_seq is one row (N,) or a batch (..., N); seed_bits holds one seed of
    seed_length(N, alphabet_size, k) bits per row, (d,) or (..., d), and
    row f is hashed under seed f.  Returns (k,) or (..., k) uint8 bits.
    Raises DomainError for a v_seq that is not an array of symbols of the
    alphabet_size letters (a scalar, a ragged nesting), what seed_length
    raises, and DomainError for seeds that are not integer bits or have
    another shape; when k = 0 the seeds are not read.  The integer product's
    uint8 sums wrap modulo 256, an even modulus, so their parity is exact.
    """
    size = _check_count(alphabet_size, "alphabet size", DomainError)
    v = _check_symbols(v_seq, size, "v", DomainError)
    *batch, n_symbols = v.shape
    d = seed_length(n_symbols, size, k)
    if k == 0:
        return np.zeros((*batch, 0), dtype=np.uint8)
    bits = symbols_to_bits(v, size)
    seeds = _check_symbols(seed_bits, 2, "seed", DomainError)
    if seeds.shape != (*batch, d):
        raise DomainError(f"seeds must have shape {(*batch, d)}, got {seeds.shape}")
    windows = sliding_window_view(seeds.astype(np.uint8), bits.shape[-1], axis=-1)
    return (windows @ bits[..., ::-1, None])[..., 0] & 1


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
    """Matrix of the seed-linear map seed -> privacy_amplify(v_bits, seed, k, 2).

    Row i, column t holds v_bits[n_bits - 1 + i - t] when that index is in
    range, matching the window that privacy_amplify reads for output bit i.
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
