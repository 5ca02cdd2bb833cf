"""Random codebooks and joint-typicality reconciliation.

Typicality is letter typicality with a relative tolerance: a sequence is
epsilon-typical for pmf p when every letter count satisfies
|N(a)/n - p(a)| <= epsilon * p(a), which forces N(a) = 0 whenever p(a) = 0.
Joint typicality applies the same test to the pair alphabet.  A consequence
worth knowing when choosing instances: any pair letter with positive
probability below (1 - epsilon)/n can never be matched at blocklength n, so
typical sets of heavily skewed distributions are empty at small n and the
encoder's (1, 1) fallback dominates.

The encoder returns the row-major first jointly typical codeword label
(omega, nu), both 1-based; the decoder searches one omega row and returns the
smallest typical nu, falling back to 1.

Both directions share one count kernel, which takes a batch of blocks,
each against its own set of candidate words.  A pair letter is block letter
* n_v + codeword letter; one np.bincount over (block, candidate, pair)
gives the integer pair counts of every candidate of every block.  The counts
are exact on any platform, since no floating-point product (and so no BLAS
kernel) forms them, and the typicality test applied to them is the same
floating-point expression that is_letter_typical evaluates, so every
decision equals the scalar definition and tests can enumerate both
directions independently.  Each bincount covers as many blocks as fit in
_KERNEL_CELLS index and count cells, and at least one.

Typicality of (x, w) depends only on the letters of w, so the encoder's
candidates are the codebook's distinct words, each with the first row-major
label that holds it, in the order of those labels; the first typical
candidate therefore carries the first typical label.  When the codebook has
more words than its alphabet has blocks (n_v^n), the distinct words are
found by their base-n_v codes, so each x-block meets at most n_v^n
candidates whatever the rates; otherwise every word is its own candidate.
A batch encodes each of its distinct x-blocks once (np.unique), so blocks
that repeat within a batch cost one count; the codebook keeps only its
distinct words between calls.  The decoder's candidates are the m_nu words
of the block's own bin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import BudgetExceeded, DomainError, IndexOutOfRange

__all__ = [
    "Codebook",
    "build_codebook",
    "is_jointly_typical",
    "is_letter_typical",
    "wz_encode",
    "wz_decode",
]

_MAX_TABLE_CELLS = 100_000_000
_KERNEL_CELLS = 20_000_000  # index and count cells of one bincount


def _typical_from_counts(
    counts: np.ndarray, pmf: np.ndarray, n: int, epsilon: float
) -> np.ndarray:
    """Relative-tolerance test over the last axis, the alphabet of pmf."""
    target = n * pmf
    return (np.abs(counts - target) <= epsilon * target).all(axis=-1)


def _symbols(seq, n_letters: int, name: str) -> np.ndarray:
    """int64 copy of seq, every symbol checked to lie in 0..n_letters-1."""
    seq = np.asarray(seq, dtype=np.int64)
    if seq.size and (seq.min() < 0 or seq.max() >= n_letters):
        raise DomainError(f"{name} symbols must lie in 0..{n_letters - 1}")
    return seq


def is_letter_typical(seq: np.ndarray, pmf: np.ndarray, epsilon: float) -> bool:
    """Relative letter typicality of one sequence against a 1-D pmf."""
    pmf = np.asarray(pmf, dtype=float)
    seq = _symbols(seq, pmf.size, "sequence")
    counts = np.bincount(seq, minlength=pmf.size)
    return bool(_typical_from_counts(counts, pmf, seq.size, float(epsilon)))


def is_jointly_typical(
    seq_a: np.ndarray, seq_b: np.ndarray, joint: np.ndarray, epsilon: float
) -> bool:
    """Pair typicality of aligned sequences against joint[a, b]."""
    joint = np.asarray(joint, dtype=float)
    a = _symbols(seq_a, joint.shape[0], "first sequence")
    b = _symbols(seq_b, joint.shape[1], "second sequence")
    if a.shape != b.shape:
        raise DomainError("paired sequences must share a length")
    pair = a * joint.shape[1] + b
    return is_letter_typical(pair, joint.ravel(), epsilon)


@dataclass(frozen=True, eq=False)
class Codebook:
    """Immutable table of i.i.d. codewords over the auxiliary alphabet.

    words[i, j] is the blocklength-n codeword labeled (omega=i+1, nu=j+1).
    joint_xv is the source/auxiliary joint p(x, v) the encoder tests against;
    its V marginal is the generating distribution.  Equality and hashing are
    by identity, so two draws of equal words are different codebooks.
    """

    words: np.ndarray  # (m_omega, m_nu, n) integer symbols
    joint_xv: np.ndarray  # (n_x, n_v)

    @property
    def m_omega(self) -> int:
        return self.words.shape[0]

    @property
    def m_nu(self) -> int:
        return self.words.shape[1]

    @property
    def n(self) -> int:
        return self.words.shape[2]

    @property
    def n_v(self) -> int:
        return self.joint_xv.shape[1]

    @property
    def p_v(self) -> np.ndarray:
        return self.joint_xv.sum(axis=0)

    def word(self, omega: int, nu: int) -> np.ndarray:
        """Codeword for 1-based labels."""
        if not (1 <= omega <= self.m_omega and 1 <= nu <= self.m_nu):
            raise IndexOutOfRange(f"label ({omega}, {nu}) outside the codebook")
        return self.words[omega - 1, nu - 1]

    @functools.cached_property
    def _distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """(words, first): the codebook's distinct words, and first[j], the
        smallest row-major flat label of word j, in increasing order."""
        flat = self.words.reshape(-1, self.n)  # (W, n)
        size = flat.shape[0]
        if self.n_v ** self.n <= size:
            codes = flat @ (self.n_v ** np.arange(self.n - 1, -1, -1))
            first = np.full(self.n_v ** self.n, size, dtype=np.int64)
            np.minimum.at(first, codes, np.arange(size))
            first = np.sort(first[first < size])
        else:
            first = np.arange(size)
        return flat[first], first


def _label_count(n: int, rate: float) -> int:
    if rate < 0:
        raise DomainError("codebook rates must be nonnegative")
    exponent = n * rate
    if exponent > 62.0:
        raise BudgetExceeded(f"2^{exponent:.4g} codebook labels cannot be enumerated")
    return max(1, math.ceil(2.0 ** exponent - 1e-12))


def build_codebook(
    joint_xv: np.ndarray,
    n: int,
    rv: float,
    rv_prime: float,
    seed_seq: np.random.SeedSequence,
) -> Codebook:
    """Draw ceil(2^(n rv)) x ceil(2^(n rv')) codewords i.i.d. from p_V."""
    joint_xv = np.asarray(joint_xv, dtype=float)
    n = int(n)
    if n < 1:
        raise DomainError("blocklength must be at least 1")
    m_omega = _label_count(n, float(rv))
    m_nu = _label_count(n, float(rv_prime))
    if m_omega * m_nu * n > _MAX_TABLE_CELLS:
        raise BudgetExceeded(
            f"codebook table would hold {m_omega * m_nu * n} cells"
        )
    p_v = joint_xv.sum(axis=0)
    rng = np.random.default_rng(seed_seq)
    words = rng.choice(p_v.size, size=(m_omega, m_nu, n), p=p_v / p_v.sum())
    return Codebook(words=words, joint_xv=joint_xv)


def _block(seq, n: int, n_letters: int, name: str) -> np.ndarray:
    """Validated int64 copy of a length-n block over 0..n_letters-1."""
    block = np.asarray(seq, dtype=np.int64)
    if block.shape != (n,):
        raise DomainError(f"{name} block must have length {n}")
    return _symbols(block, n_letters, f"{name} block")


def _first_typical(
    blocks: np.ndarray,
    groups: np.ndarray,
    words: np.ndarray,
    joint: np.ndarray,
    epsilon: float,
) -> np.ndarray:
    """Index of the first of the words[groups[b]] jointly typical with
    blocks[b], for each of the (B, n) blocks, or W when none is.

    words is (G, W, n) over the joint's n_v codeword letters; joint[a, v] is
    the pmf of block letter a with codeword letter v.  Each bincount covers
    as many blocks as fit in _KERNEL_CELLS index and count cells, and at
    least one.
    """
    n_blocks, n = blocks.shape
    n_words = words.shape[1]
    n_v = joint.shape[1]
    pmf = joint.ravel()
    step = max(1, _KERNEL_CELLS // (n_words * (n + pmf.size)))
    # offset of each (block, candidate) row in the flat count array
    rows = np.arange(min(step, n_blocks) * n_words).reshape(-1, n_words, 1) * pmf.size
    first = np.empty(n_blocks, dtype=np.int64)
    for lo in range(0, n_blocks, step):
        batch = blocks[lo : lo + step]
        pairs = rows[: len(batch)] + batch[:, None, :] * n_v + words[groups[lo : lo + step]]
        counts = np.bincount(pairs.ravel(), minlength=len(batch) * n_words * pmf.size)
        typical = _typical_from_counts(
            counts.reshape(len(batch), n_words, pmf.size), pmf, n, epsilon
        )
        first[lo : lo + step] = np.where(typical.any(axis=1), typical.argmax(axis=1), n_words)
    return first


def _encode_blocks(
    codebook: Codebook, x_blocks: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """1-based labels (omegas, nus) of each (B, n) x-block: the first
    (row-major) jointly typical one, else (1, 1)."""
    words, first = codebook._distinct
    distinct, inverse = np.unique(x_blocks, axis=0, return_inverse=True)
    hit = _first_typical(
        distinct, np.zeros(len(distinct), dtype=np.intp), words[None],
        codebook.joint_xv, float(epsilon),
    )
    rows, cols = np.divmod(np.append(first, 0)[hit][inverse.reshape(-1)], codebook.m_nu)
    return rows + 1, cols + 1


def _decode_blocks(
    codebook: Codebook,
    y_blocks: np.ndarray,
    omegas: np.ndarray,
    epsilon: float,
    joint_vy: np.ndarray,
) -> np.ndarray:
    """nu of each (B, n) y-block in its bin omegas[b] (1-based): the
    smallest typical one, else 1."""
    hit = _first_typical(y_blocks, omegas - 1, codebook.words, joint_vy.T, float(epsilon))
    return np.where(hit < codebook.m_nu, hit + 1, 1)


def wz_encode(codebook: Codebook, x_seq: np.ndarray, epsilon: float) -> tuple[int, int]:
    """First (row-major) codeword label jointly typical with x, else (1, 1)."""
    x = _block(x_seq, codebook.n, codebook.joint_xv.shape[0], "x")
    omegas, nus = _encode_blocks(codebook, x[None], epsilon)
    return int(omegas[0]), int(nus[0])


def wz_decode(
    codebook: Codebook,
    y_seq: np.ndarray,
    omega: int,
    epsilon: float,
    joint_vy: np.ndarray,
) -> int:
    """Smallest nu whose codeword in bin omega is jointly typical with y, else 1.

    joint_vy is the single-letter pmf p(v, y) for the decoding coalition's
    flattened observation alphabet; y_seq holds flattened composite symbols.
    """
    omega = int(omega)
    if not 1 <= omega <= codebook.m_omega:
        raise IndexOutOfRange(f"omega {omega} outside 1..{codebook.m_omega}")
    joint_vy = np.asarray(joint_vy, dtype=float)
    n_v, n_y = joint_vy.shape
    if n_v != codebook.n_v:
        raise DomainError(f"joint_vy needs one row per codeword letter ({codebook.n_v})")
    y = _block(y_seq, codebook.n, n_y, "y")
    omegas = np.array([omega])
    return int(_decode_blocks(codebook, y[None], omegas, epsilon, joint_vy)[0])
