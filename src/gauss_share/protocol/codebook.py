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

Both directions share one count kernel: a position-major 0/1 indicator
matrix with a row per position and a column per (codeword letter, candidate
word).  A call turns its x-block or y-block into 0/1 letter rows, one per
block letter, so one matrix product gives the pair-letter counts of every
candidate at once, a row per (block letter, codeword letter) once reshaped.
The counts are exact integers, and the typicality test applied to them,
alphabet first, is the same floating-point expression that
is_letter_typical evaluates, so every decision equals the scalar definition
and tests can enumerate both directions independently.

Typicality of (x, w) depends only on the letters of w, so the encoder's
candidates are the codebook's distinct words, each with the first row-major
label that holds it; the first typical label is the smallest of those labels
among the typical words.  When the codebook has more words than its
alphabet has blocks (n_v^n), the distinct words are found by their base-n_v
codes, so the count product has at most n_v^n candidates whatever the rates;
otherwise every word is its own candidate.  The decoder's candidates are the
m_nu words of one bin, whose indicator is kept per omega on first use.  The
encoder also memoizes its labels on the codebook per (epsilon, x-block): the
label is a pure function of those, so repeated blocks, across trials and in
the exact leakage enumeration, return the label computed the first time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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


def _typical_from_counts(
    counts: np.ndarray, pmf: np.ndarray, n: int, epsilon: float
) -> np.ndarray:
    """Relative-tolerance test, alphabet first: counts is (L,) or (L, candidates)."""
    target = (n * pmf).reshape((-1,) + (1,) * (counts.ndim - 1))
    return (np.abs(counts - target) <= epsilon * target).all(axis=0)


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
    _bins: dict = field(default_factory=dict, repr=False)
    _labels: dict = field(default_factory=dict, repr=False)

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
        """(indicator, first): the position-major indicator of the codebook's
        distinct words, and first[j], the smallest row-major flat label of
        distinct word j."""
        flat = self.words.reshape(-1, self.n)  # (W, n)
        size = flat.shape[0]
        if self.n_v ** self.n <= size:
            codes = flat @ (self.n_v ** np.arange(self.n - 1, -1, -1))
            first = np.full(self.n_v ** self.n, size, dtype=np.int64)
            np.minimum.at(first, codes, np.arange(size))
            first = first[first < size]
        else:
            first = np.arange(size)
        return _indicator(flat[first], self.n_v), first

    def _bin_indicator(self, omega: int) -> np.ndarray:
        """Cached position-major indicator of bin omega's m_nu words."""
        row = self._bins.get(omega)
        if row is None:
            row = self._bins[omega] = _indicator(self.words[omega - 1], self.n_v)
        return row


def _indicator(words: np.ndarray, n_v: int) -> np.ndarray:
    """(n, n_v * W) position-major 0/1 matrix of (W, n) words: entry
    [i, v * W + w] is 1 when word w has v at position i."""
    letters = np.arange(n_v).reshape(1, -1, 1)
    return (words.T[:, None, :] == letters).reshape(words.shape[1], -1).astype(float)


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


def _letter_rows(block: np.ndarray, n_letters: int) -> np.ndarray:
    """(n_letters, n) indicator: [a, i] is True when block[i] == a."""
    return block == np.arange(n_letters).reshape(-1, 1)


def wz_encode(codebook: Codebook, x_seq: np.ndarray, epsilon: float) -> tuple[int, int]:
    """First (row-major) codeword label jointly typical with x, else (1, 1)."""
    n_x, n_v = codebook.joint_xv.shape
    x = _block(x_seq, codebook.n, n_x, "x")
    key = (float(epsilon), x.tobytes())
    label = codebook._labels.get(key)
    if label is None:
        indicator, first = codebook._distinct
        counts = (_letter_rows(x, n_x) @ indicator).reshape(n_x * n_v, -1)
        mask = _typical_from_counts(
            counts, codebook.joint_xv.ravel(), codebook.n, float(epsilon)
        )
        hits = first[mask]
        row, col = divmod(int(hits.min()) if hits.size else 0, codebook.m_nu)
        label = codebook._labels[key] = (row + 1, col + 1)
    return label


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
    indicator = codebook._bin_indicator(omega)
    counts = (_letter_rows(y, n_y) @ indicator).reshape(n_y * n_v, -1)
    mask = _typical_from_counts(counts, joint_vy.T.ravel(), codebook.n, float(epsilon))
    hits = np.flatnonzero(mask)
    return int(hits[0]) + 1 if hits.size else 1
