"""Random codebooks and joint-typicality reconciliation.

Typicality is letter typicality with a relative tolerance: a sequence is
epsilon-typical for pmf p when every letter count satisfies
|N(a)/n - p(a)| <= epsilon * p(a), which forces N(a) = 0 whenever p(a) = 0.
Joint typicality applies the same test to the pair alphabet.  The counts
0..n that pass for one letter form one range [lo, hi], so some count vector
of blocklength n is typical exactly when every letter passes some count and
sum(lo) <= n <= sum(hi).  When none is (a letter of positive probability
below 1/((1 + epsilon) n) passes no count, for one), every block falls back
(the encoder to (1, 1), the decoder to nu = 1), and the kernel decides the
whole batch from that one table of counts 0..n, without a bincount.

Codewords are drawn i.i.d. from p_V, bit for bit as Generator.choice with
p=p_V draws them: the same uniforms, drawn _DRAW_CHUNK at a time into one
reused buffer, each mapped to its count of choice's CDF entries <= it.  A
row of the table is drawn the first time a reader reaches it, in stream
order, so a prefix extended any number of times equals one full draw and
every reader sees the table Generator.choice gives.  A full read holds the
table plus one chunk, where choice held a second table-sized array of
uniforms.

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
A drawn table holds only letters of positive mass, so the encoder reads
rows until every word p_V can produce has appeared, and no later row holds
a word it has not labeled (a table that one chunk of uniforms fills is
read whole); the decoder reads up to the largest bin asked for.
A batch encodes each of its distinct x-blocks once (np.unique), so blocks
that repeat within a batch cost one count; the codebook keeps only its
distinct words between calls.  The decoder's candidates are the m_nu words
of the block's own bin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import BudgetExceeded, DomainError, IndexOutOfRange
from ..errors import _check_count, _check_real, _check_reals, _check_symbols

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
_DRAW_CHUNK = 2**16  # uniforms drawn at a time for the codebook table


def _letters_pass(
    counts: np.ndarray, pmf: np.ndarray, n: int, epsilon: float
) -> np.ndarray:
    """Relative-tolerance test of each count against its letter of pmf,
    which the last axis indexes."""
    target = n * pmf
    return np.abs(counts - target) <= epsilon * target


def _typical_from_counts(
    counts: np.ndarray, pmf: np.ndarray, n: int, epsilon: float
) -> np.ndarray:
    """Relative-tolerance test over the last axis, the alphabet of pmf."""
    return _letters_pass(counts, pmf, n, epsilon).all(axis=-1)


def _admits_typical(pmf: np.ndarray, n: int, epsilon: float) -> bool:
    """Whether some count vector over pmf's letters that sums to n passes
    _typical_from_counts.

    fl(c - n p) is monotone in c, so the counts 0..n that pass for one
    letter form one range [lo, hi]; a passing vector exists exactly when
    every letter passes some count and sum(lo) <= n <= sum(hi).
    """
    passes = _letters_pass(np.arange(n + 1)[:, None], pmf, n, epsilon)  # (n+1, letters)
    if not passes.any(axis=0).all():
        return False
    lo = passes.argmax(axis=0)
    hi = n - passes[::-1].argmax(axis=0)
    return bool(lo.sum() <= n <= hi.sum())


def is_letter_typical(seq: np.ndarray, pmf: np.ndarray, epsilon: float) -> bool:
    """Relative letter typicality of one sequence against a 1-D pmf."""
    pmf = np.asarray(pmf, dtype=float)
    seq = _check_symbols(seq, pmf.size, "sequence", DomainError)
    counts = np.bincount(seq, minlength=pmf.size)
    return bool(_typical_from_counts(counts, pmf, seq.size, float(epsilon)))


def is_jointly_typical(
    seq_a: np.ndarray, seq_b: np.ndarray, joint: np.ndarray, epsilon: float
) -> bool:
    """Pair typicality of aligned sequences against joint[a, b]."""
    joint = np.asarray(joint, dtype=float)
    a = _check_symbols(seq_a, joint.shape[0], "first sequence", DomainError)
    b = _check_symbols(seq_b, joint.shape[1], "second sequence", DomainError)
    if a.shape != b.shape:
        raise DomainError("paired sequences must share a length")
    pair = a * joint.shape[1] + b
    return is_letter_typical(pair, joint.ravel(), epsilon)


@dataclass(frozen=True, eq=False, init=False)
class Codebook:
    """Table of i.i.d. codewords over the auxiliary alphabet.

    words[i, j] is the blocklength-n codeword labeled (omega=i+1, nu=j+1).
    joint_xv is the source/auxiliary joint p(x, v) the encoder tests against;
    its V marginal is the generating distribution.  A codebook from
    build_codebook draws each row of its table the first time a reader
    reaches it, in stream order, so every reader sees the table one full
    draw gives; words is that whole table.  One built from a table,
    Codebook(words, joint_xv), is drawn already.  A first read writes the
    table, so concurrent first reads from threads are not supported.
    Equality and hashing are by identity, so two draws of equal words are
    different codebooks.
    """

    joint_xv: np.ndarray  # (n_x, n_v)
    _table: np.ndarray = field(repr=False, compare=False)  # (m_omega, m_nu, n) integer symbols
    _rng: np.random.Generator | None = field(repr=False, compare=False)  # None for a given table
    _drawn: int = field(repr=False, compare=False)  # leading rows of _table drawn so far

    def __init__(self, words: np.ndarray, joint_xv: np.ndarray, *, _rng=None):
        object.__setattr__(self, "joint_xv", joint_xv)
        object.__setattr__(self, "_table", words)
        object.__setattr__(self, "_rng", _rng)
        object.__setattr__(self, "_drawn", 0 if _rng is not None else words.shape[0])

    def _rows(self, r: int) -> np.ndarray:
        """The first r rows of the table, drawing those not drawn yet."""
        if r > self._drawn:
            _draw_letters(self._rng, self.p_v, self._table[self._drawn : r])
            object.__setattr__(self, "_drawn", r)
        return self._table[:r]

    @property
    def words(self) -> np.ndarray:
        """The whole (m_omega, m_nu, n) table of integer symbols."""
        return self._rows(self.m_omega)

    @property
    def m_omega(self) -> int:
        return self._table.shape[0]

    @property
    def m_nu(self) -> int:
        return self._table.shape[1]

    @property
    def n(self) -> int:
        return self._table.shape[2]

    @property
    def n_v(self) -> int:
        return self.joint_xv.shape[1]

    @property
    def p_v(self) -> np.ndarray:
        return self.joint_xv.sum(axis=0)

    def word(self, omega, nu) -> np.ndarray:
        """Codeword for 1-based labels: (n,) for scalar labels, (..., n) for
        label arrays, which broadcast against each other."""
        omega, nu = np.asarray(omega), np.asarray(nu)
        if omega.dtype.kind not in "iu" or nu.dtype.kind not in "iu":
            raise IndexOutOfRange(f"labels must be integers, got {omega.dtype} and {nu.dtype}")
        inside = (1 <= omega) & (omega <= self.m_omega) & (1 <= nu) & (nu <= self.m_nu)
        if not inside.all():
            raise IndexOutOfRange(
                f"a label lies outside the {self.m_omega} x {self.m_nu} codebook"
            )
        return self._rows(int(omega.max(initial=0)))[omega - 1, nu - 1]

    @functools.cached_property
    def _distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """(words, first): the codebook's distinct words, and first[j], the
        smallest row-major flat label of word j, in increasing order.

        A drawn table holds only letters of positive mass, so at most
        reach = (letters with p_V > 0)^n codes occur in it.  Rows are read
        from ceil(reach / m_nu), doubling, until all reach codes have a
        first label or the table ends.  A given table is read whole, and so
        is one of at most _DRAW_CHUNK cells, which one draw call fills.
        """
        m_omega, m_nu, n = self._table.shape
        blocks = self.n_v ** n
        if blocks > m_omega * m_nu:
            flat = self.words.reshape(-1, n)
            return flat, np.arange(len(flat))
        reach = np.count_nonzero(self.p_v > 0) ** n
        if self._rng is None or self._table.size <= _DRAW_CHUNK:
            rows = m_omega
        else:
            rows = -(-reach // m_nu)
        places = self.n_v ** np.arange(n - 1, -1, -1)
        while True:
            flat = self._rows(min(rows, m_omega)).reshape(-1, n)
            size = len(flat)
            first = np.full(blocks, size, dtype=np.int64)
            np.minimum.at(first, flat @ places, np.arange(size))
            first = np.sort(first[first < size])
            if len(first) == reach or rows >= m_omega:
                return flat[first], first
            rows *= 2


def _label_count(n: int, rate: float) -> int:
    """ceil(2^(n rate)) labels, at least one.  An n rate within a relative
    1e-12 of a whole number e is e: n = 25, rate = 0.56 multiplies to
    14.000000000000002, and 2.0 ** that passes 2^14 by more than the
    absolute slack that absorbs rounding elsewhere."""
    if rate < 0:
        raise DomainError("codebook rates must be nonnegative")
    exponent = n * rate
    if exponent > 62.0:
        raise BudgetExceeded(f"2^{exponent:.4g} codebook labels cannot be enumerated")
    whole = round(exponent)
    if abs(exponent - whole) <= 1e-12 * whole:
        return 2**whole
    return max(1, math.ceil(2.0 ** exponent - 1e-12))


def _draw_letters(rng: np.random.Generator, p_v: np.ndarray, out: np.ndarray) -> None:
    """Fill the C-contiguous out with rng.choice(p_v.size, size=out.shape,
    p=p_v / p_v.sum()), bit for bit.

    choice draws one uniform u per symbol in row-major order and returns
    the number of its CDF entries <= u (searchsorted, side="right").  Here
    the uniforms come _DRAW_CHUNK at a time; rng.random takes one 64-bit
    output per uniform, so chunks, and calls filling consecutive slices of
    one table, consume the bit generator's stream exactly as one draw of
    the whole shape does.  The count is a binary search over the interior
    CDF padded with +inf to 2^height - 1 entries: height gather-and-compare
    steps, the first against one entry for every uniform.  Comparisons are
    exact, so a zero-mass letter is never drawn, as in choice; the last CDF
    entry is 1.0, above every uniform, so it is left out (a one-letter pmf
    has only padding).
    """
    p = p_v / p_v.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    height = max(1, (p.size - 1).bit_length())
    bounds = np.full(2**height - 1, np.inf)
    bounds[: p.size - 1] = cdf[:-1]
    flat = out.reshape(-1)
    uniforms = np.empty(min(_DRAW_CHUNK, flat.size))
    for lo in range(0, flat.size, _DRAW_CHUNK):
        letters = flat[lo : lo + _DRAW_CHUNK]
        u = uniforms[: letters.size]
        rng.random(out=u)
        step = 1 << (height - 1)
        np.multiply(bounds[step - 1] <= u, step, out=letters)
        while step > 1:
            step >>= 1
            letters += step * (bounds[letters + (step - 1)] <= u)


def build_codebook(
    joint_xv: np.ndarray,
    n: int,
    rv: float,
    rv_prime: float,
    seed_seq: np.random.SeedSequence,
) -> Codebook:
    """A codebook of ceil(2^(n rv)) x ceil(2^(n rv')) codewords i.i.d.
    from p_V.

    joint_xv must be a 2-D table of finite, nonnegative cells with a
    positive finite sum; p_V is its column sum, normalized.  The words equal
    np.random.default_rng(seed_seq).choice(n_v, size=(m_omega, m_nu, n),
    p=p_V) bit for bit.  The int64 table is allocated here and nothing is
    drawn: each row is drawn, in chunks of _DRAW_CHUNK uniforms, the first
    time a reader reaches it, so a full read holds the table plus one chunk.
    The table may hold at most _MAX_TABLE_CELLS cells, checked before it is
    allocated.
    """
    joint_xv = _check_reals(joint_xv, "joint_xv", DomainError)
    if joint_xv.ndim != 2:
        raise DomainError("joint_xv must be a 2-D table p(x, v)")
    if not (np.isfinite(joint_xv).all() and (joint_xv >= 0).all()):
        raise DomainError("joint_xv cells must be finite and nonnegative")
    with np.errstate(over="ignore"):  # a sum that overflows is refused below
        p_v = joint_xv.sum(axis=0)
        total = p_v.sum()
    if not 0 < total < np.inf:
        raise DomainError("joint_xv must have a positive finite sum")
    n = _check_count(n, "blocklength", DomainError)
    if n < 1:
        raise DomainError("blocklength must be at least 1")
    m_omega = _label_count(n, _check_real(rv, "rv", DomainError))
    m_nu = _label_count(n, _check_real(rv_prime, "rv_prime", DomainError))
    if m_omega * m_nu * n > _MAX_TABLE_CELLS:
        raise BudgetExceeded(
            f"codebook table would hold {m_omega * m_nu * n} cells"
        )
    table = np.empty((m_omega, m_nu, n), dtype=np.int64)
    return Codebook(table, joint_xv, _rng=np.random.default_rng(seed_seq))


def _block(seq, n: int, n_letters: int, name: str) -> np.ndarray:
    """seq read as one length-n block of symbols over 0..n_letters-1."""
    block = _check_symbols(seq, n_letters, f"{name} block", DomainError)
    if block.shape != (n,):
        raise DomainError(f"{name} block must have length {n}")
    return block


def _epsilon(epsilon) -> float:
    """The tolerance read as a finite nonnegative real number."""
    epsilon = _check_real(epsilon, "epsilon", DomainError)
    if not 0.0 <= epsilon < math.inf:
        raise DomainError(f"epsilon must be finite and nonnegative, got {epsilon}")
    return epsilon


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
    least one.  When no count vector of n pair letters is typical for the
    joint, no block has a typical word, and nothing is counted.
    """
    n_blocks, n = blocks.shape
    n_words = words.shape[1]
    n_v = joint.shape[1]
    pmf = joint.ravel()
    if not _admits_typical(pmf, n, epsilon):
        return np.full(n_blocks, n_words, dtype=np.int64)
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
        codebook.joint_xv, epsilon,
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
    words = codebook._rows(int(omegas.max(initial=0)))
    hit = _first_typical(y_blocks, omegas - 1, words, joint_vy.T, epsilon)
    return np.where(hit < codebook.m_nu, hit + 1, 1)


def wz_encode(codebook: Codebook, x_seq: np.ndarray, epsilon: float) -> tuple[int, int]:
    """First (row-major) codeword label jointly typical with x, else (1, 1)."""
    x = _block(x_seq, codebook.n, codebook.joint_xv.shape[0], "x")
    omegas, nus = _encode_blocks(codebook, x[None], _epsilon(epsilon))
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
    omega = _check_count(omega, "omega", IndexOutOfRange)
    if not 1 <= omega <= codebook.m_omega:
        raise IndexOutOfRange(f"omega {omega} outside 1..{codebook.m_omega}")
    epsilon = _epsilon(epsilon)
    joint_vy = _check_reals(joint_vy, "joint_vy", DomainError)
    n_v, n_y = joint_vy.shape
    if n_v != codebook.n_v:
        raise DomainError(f"joint_vy needs one row per codeword letter ({codebook.n_v})")
    y = _block(y_seq, codebook.n, n_y, "y")
    omegas = np.array([omega])
    return int(_decode_blocks(codebook, y[None], omegas, epsilon, joint_vy)[0])
