"""Codebook construction and typicality encoder/decoder tests.

The count-kernel encoder and decoder are checked exhaustively against plain
Python loops over is_jointly_typical, and the typicality predicate itself
against hand-counted cases.
"""

import itertools

import numpy as np
import pytest

from gauss_share.errors import BudgetExceeded, DomainError, IndexOutOfRange
from gauss_share.protocol import codebook
from gauss_share.protocol.codebook import (
    Codebook,
    _decode_blocks,
    _encode_blocks,
    build_codebook,
    is_jointly_typical,
    is_letter_typical,
    wz_decode,
    wz_encode,
)

UNIFORM2 = np.array([0.5, 0.5])
DIAG2 = np.diag([0.5, 0.5])


class TestLetterTypicality:
    def test_balanced_sequence_always_typical(self):
        assert is_letter_typical([0, 0, 1, 1], UNIFORM2, 0.0)
        assert is_letter_typical([0, 1, 0, 1], UNIFORM2, 0.05)

    def test_tolerance_threshold_is_sharp(self):
        # counts (3, 1) against target (2, 2): needs epsilon >= 0.5
        assert is_letter_typical([0, 0, 0, 1], UNIFORM2, 0.5)
        assert not is_letter_typical([0, 0, 0, 1], UNIFORM2, 0.4)

    def test_zero_mass_letter_is_forbidden(self):
        pmf = np.array([0.5, 0.5, 0.0])
        assert is_letter_typical([0, 1, 0, 1], pmf, 0.1)
        assert not is_letter_typical([0, 1, 2, 1], pmf, 100.0)

    @pytest.mark.parametrize("seq", [[0, 2], [0, -1], [5]])
    def test_symbols_outside_the_alphabet(self, seq):
        with pytest.raises(DomainError, match="symbols must lie in 0..1"):
            is_letter_typical(seq, UNIFORM2, 0.1)

    def test_empty_sequence_is_typical(self):
        assert is_letter_typical([], UNIFORM2, 0.1)

    def test_skewed_pmf_has_empty_typical_set_at_small_n(self):
        # p = 0.1 at n = 4 needs a count in [0.2, 0.6]: no integer qualifies
        pmf = np.array([0.9, 0.1])
        for seq in itertools.product(range(2), repeat=4):
            assert not is_letter_typical(seq, pmf, 0.5)


class TestJointTypicality:
    def test_matched_pairs(self):
        assert is_jointly_typical([0, 1], [0, 1], DIAG2, 0.0)
        assert not is_jointly_typical([0, 1], [1, 0], DIAG2, 50.0)

    def test_flattening_agrees_with_manual_pair_alphabet(self):
        rng = np.random.default_rng(2)
        joint = rng.random((3, 4))
        joint /= joint.sum()
        a = rng.integers(0, 3, 30)
        b = rng.integers(0, 4, 30)
        manual = is_letter_typical(a * 4 + b, joint.ravel(), 0.8)
        assert is_jointly_typical(a, b, joint, 0.8) == manual

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            is_jointly_typical([0, 1], [0, 1, 0], DIAG2, 0.1)

    @pytest.mark.parametrize("seq_a, seq_b, which", [
        ([0, 3], [0, 1], "first sequence symbols must lie in 0..2"),
        ([0, -1], [0, 1], "first sequence symbols must lie in 0..2"),
        ([0, 1], [0, 4], "second sequence symbols must lie in 0..3"),
        ([0, 1], [-1, 1], "second sequence symbols must lie in 0..3"),
        # flattened, (0, 4) is pair letter 4 = (1, 0): inside the pair
        # alphabet, so only a per-coordinate check rejects it
        ([0, 0], [4, 1], "second sequence symbols must lie in 0..3"),
    ])
    def test_symbols_outside_either_alphabet(self, seq_a, seq_b, which):
        joint = np.full((3, 4), 1 / 12)
        with pytest.raises(DomainError, match=which):
            is_jointly_typical(seq_a, seq_b, joint, 0.5)


def make_codebook(words, joint_xv):
    words = np.asarray(words, dtype=np.int64)
    return Codebook(words=words, joint_xv=np.asarray(joint_xv, float))


def scalar_encode(book, x, eps):
    """Row-major first jointly typical label by a plain loop, else (1, 1)."""
    for omega in range(1, book.m_omega + 1):
        for nu in range(1, book.m_nu + 1):
            if is_jointly_typical(x, book.word(omega, nu), book.joint_xv, eps):
                return omega, nu
    return 1, 1


def scalar_decode(book, y, omega, eps, joint_vy):
    """Smallest typical nu in bin omega by a plain loop, else 1."""
    for nu in range(1, book.m_nu + 1):
        if is_jointly_typical(book.word(omega, nu), y, joint_vy, eps):
            return nu
    return 1


def all_blocks(n_letters, n):
    return np.array(list(itertools.product(range(n_letters), repeat=n)), dtype=np.int64)


# kernel budgets (codebook._KERNEL_CELLS) of one block per bincount, a few
# blocks, and the whole batch
BATCH_CELLS = (0, 500, 10**9)


class TestBuildCodebook:
    JOINT = np.outer([0.5, 0.5], [0.25, 0.75])

    def test_label_counts_follow_rates(self):
        book = build_codebook(self.JOINT, 4, 0.5, 0.25, np.random.SeedSequence(1))
        assert book.words.shape == (4, 2, 4)
        assert book.m_omega == 4
        assert book.m_nu == 2
        assert book.n == 4
        assert book.n_v == 2

    def test_zero_rate_gives_single_label(self):
        book = build_codebook(self.JOINT, 3, 0.0, 0.0, np.random.SeedSequence(1))
        assert book.words.shape == (1, 1, 3)

    def test_deterministic_for_a_seed(self):
        a = build_codebook(self.JOINT, 5, 1.0, 0.5, np.random.SeedSequence(42))
        b = build_codebook(self.JOINT, 5, 1.0, 0.5, np.random.SeedSequence(42))
        np.testing.assert_array_equal(a.words, b.words)

    def test_equality_is_identity(self):
        # equal draws are still two codebooks, each with its own cached words
        a, b = (build_codebook(self.JOINT, 5, 1.0, 0.5, np.random.SeedSequence(1))
                for _ in range(2))
        np.testing.assert_array_equal(a.words, b.words)
        assert a == a
        assert a != b
        assert len({a, b, a}) == 2

    def test_symbols_follow_the_auxiliary_marginal(self):
        book = build_codebook(self.JOINT, 10, 1.0, 0.5, np.random.SeedSequence(7))
        freq = np.mean(book.words == 1)
        assert freq == pytest.approx(0.75, abs=0.005)
        np.testing.assert_allclose(book.p_v, [0.25, 0.75])

    def test_validation(self):
        with pytest.raises(DomainError):
            build_codebook(self.JOINT, 0, 0.5, 0.5, np.random.SeedSequence(1))
        with pytest.raises(DomainError):
            build_codebook(self.JOINT, 4, -0.1, 0.5, np.random.SeedSequence(1))

    def test_enumeration_budget(self):
        with pytest.raises(BudgetExceeded):
            build_codebook(self.JOINT, 1, 63.0, 0.0, np.random.SeedSequence(1))
        with pytest.raises(BudgetExceeded):
            build_codebook(self.JOINT, 50, 0.5, 0.2, np.random.SeedSequence(1))

    def test_word_lookup_is_one_based(self):
        book = build_codebook(self.JOINT, 4, 0.5, 0.25, np.random.SeedSequence(1))
        np.testing.assert_array_equal(book.word(1, 1), book.words[0, 0])
        np.testing.assert_array_equal(book.word(4, 2), book.words[3, 1])
        for omega, nu in ((0, 1), (1, 0), (5, 1), (1, 3)):
            with pytest.raises(IndexOutOfRange):
                book.word(omega, nu)


class TestEncoder:
    def test_picks_the_typical_word(self):
        words = [[[0, 0, 0, 0]], [[0, 1, 0, 1]]]  # (2, 1, 4)
        book = make_codebook(words, DIAG2)
        assert wz_encode(book, [0, 1, 0, 1], 0.1) == (2, 1)

    def test_row_major_tie_break(self):
        x = [0, 1, 0, 1]
        words = [[[0, 0, 0, 0], x], [x, x]]  # (2, 2, 4); first hit at (1, 2)
        book = make_codebook(words, DIAG2)
        assert wz_encode(book, x, 0.1) == (1, 2)

    def test_fallback_when_nothing_matches(self):
        words = np.zeros((2, 2, 4), dtype=np.int64)
        book = make_codebook(words, DIAG2)
        assert not is_jointly_typical([0, 1, 0, 1], book.word(1, 1), DIAG2, 0.1)
        assert wz_encode(book, [0, 1, 0, 1], 0.1) == (1, 1)

    def test_block_length_enforced(self):
        book = make_codebook(np.zeros((1, 1, 4), dtype=np.int64), DIAG2)
        with pytest.raises(DomainError):
            wz_encode(book, [0, 1], 0.1)

    def test_exhaustive_against_scalar_loop(self):
        joint = np.array([[0.4, 0.1], [0.1, 0.4]])
        books = [
            build_codebook(joint, 4, 0.5, 0.5, np.random.SeedSequence(9)),
            build_codebook(joint, 3, 1.0, 1.0, np.random.SeedSequence(9)),
            build_codebook([[0.30, 0.05], [0.10, 0.15], [0.05, 0.35]], 4, 0.5, 0.5,
                           np.random.SeedSequence(9)),
        ]
        # the second holds 64 words over 2^3 patterns, so words repeat and
        # the label of a typical word is the first of its repeats; the third
        # has three source letters over two codeword letters
        assert books[1].m_omega * books[1].m_nu > 2**3
        for book in books:
            for eps in (0.2, 0.6, 1.5, 2.5):
                for x in itertools.product(range(book.joint_xv.shape[0]), repeat=book.n):
                    x = np.array(x)
                    assert wz_encode(book, x, eps) == scalar_encode(book, x, eps)

    def test_batched_exhaustive_against_scalar_loop(self, monkeypatch):
        # the square, repeated-words and 3x2 books above, every x-block in
        # one batch, each block twice and the second copy in reverse order
        joint = np.array([[0.4, 0.1], [0.1, 0.4]])
        books = [
            build_codebook(joint, 4, 0.5, 0.5, np.random.SeedSequence(9)),
            build_codebook(joint, 3, 1.0, 1.0, np.random.SeedSequence(9)),
            build_codebook([[0.30, 0.05], [0.10, 0.15], [0.05, 0.35]], 4, 0.5, 0.5,
                           np.random.SeedSequence(9)),
        ]
        mixed = False
        for book in books:
            blocks = all_blocks(book.joint_xv.shape[0], book.n)
            blocks = np.concatenate([blocks, blocks[::-1]])
            for eps in (0.2, 0.6, 1.5, 2.5):
                want = [scalar_encode(book, x, eps) for x in blocks]
                for cells in BATCH_CELLS:
                    monkeypatch.setattr(codebook, "_KERNEL_CELLS", cells)
                    omegas, nus = _encode_blocks(book, blocks, eps)
                    assert list(zip(omegas.tolist(), nus.tolist())) == want
                fallbacks = sum(
                    not is_jointly_typical(x, book.word(*label), book.joint_xv, eps)
                    for x, label in zip(blocks, want)
                )
                bins = {omega for omega, _ in want}
                mixed |= 0 < fallbacks < len(blocks) and len(bins) > 1
        assert mixed  # some batch mixes fallbacks with labels from several bins

    def test_three_letter_joint_with_a_zero_cell(self):
        # p(x=2, v=0) = 0: a codeword with v=0 where x=2 is never typical
        joint = np.array([[0.20, 0.10, 0.05], [0.05, 0.20, 0.05], [0.00, 0.10, 0.25]])
        book = build_codebook(joint, 4, 0.75, 0.5, np.random.SeedSequence(4))
        assert book.m_omega * book.m_nu == 32
        matched = 0
        for eps in (0.3, 0.6, 1.0, 2.5):
            for x in itertools.product(range(3), repeat=4):
                x = np.array(x)
                label = wz_encode(book, x, eps)
                assert label == scalar_encode(book, x, eps)
                matched += is_jointly_typical(x, book.word(*label), joint, eps)
        assert matched > 0  # the comparison reaches typical words, not only fallbacks

    def test_out_of_alphabet_symbols(self):
        book = make_codebook([[[0, 1, 0, 1]]], DIAG2)
        for x in ([0, -1, 0, -1], [0, 2, 0, 1]):
            with pytest.raises(DomainError, match="symbols must lie in 0..1"):
                wz_encode(book, x, 0.1)


class TestDecoder:
    def test_recovers_the_matching_word(self):
        words = [[[1, 1, 0, 0], [0, 1, 0, 1]]]  # (1, 2, 4)
        book = make_codebook(words, DIAG2)
        assert wz_decode(book, [0, 1, 0, 1], 1, 0.1, DIAG2) == 2

    def test_fallback_when_nothing_matches(self):
        words = np.zeros((1, 2, 4), dtype=np.int64)
        book = make_codebook(words, DIAG2)
        assert wz_decode(book, [0, 1, 0, 1], 1, 0.1, DIAG2) == 1

    def test_omega_bounds(self):
        book = make_codebook(np.zeros((2, 1, 4), dtype=np.int64), DIAG2)
        for omega in (0, 3, -1):
            with pytest.raises(IndexOutOfRange):
                wz_decode(book, [0, 0, 0, 0], omega, 0.1, DIAG2)

    def test_block_length_enforced(self):
        book = make_codebook(np.zeros((1, 1, 4), dtype=np.int64), DIAG2)
        with pytest.raises(DomainError):
            wz_decode(book, [0, 0], 1, 0.1, DIAG2)

    def test_exhaustive_against_scalar_loop(self):
        joint_xv = np.array([[0.4, 0.1], [0.1, 0.4]])
        joint_vy = np.array([[0.35, 0.15], [0.1, 0.4]])
        book = build_codebook(joint_xv, 4, 0.5, 0.5, np.random.SeedSequence(15))
        for eps in (0.3, 0.8):
            for y in itertools.product(range(2), repeat=4):
                y = np.array(y)
                for omega in range(1, book.m_omega + 1):
                    expected = scalar_decode(book, y, omega, eps, joint_vy)
                    assert wz_decode(book, y, omega, eps, joint_vy) == expected

    def test_composite_observation_alphabet(self):
        # a two-member coalition of binary observers: y = 2 * y1 + y2
        joint_xv = np.array([[0.4, 0.1], [0.1, 0.4]])
        joint_vy = np.array([[0.25, 0.1, 0.1, 0.05], [0.05, 0.1, 0.1, 0.25]])
        book = build_codebook(joint_xv, 4, 0.5, 0.75, np.random.SeedSequence(21))
        assert book.m_nu == 8
        decoded = set()
        for eps in (0.5, 1.0, 3.0):
            for y in itertools.product(range(4), repeat=4):
                y = np.array(y)
                for omega in range(1, book.m_omega + 1):
                    nu = wz_decode(book, y, omega, eps, joint_vy)
                    assert nu == scalar_decode(book, y, omega, eps, joint_vy)
                    decoded.add(nu)
        assert len(decoded) > 1  # labels past the fallback are exercised

    @pytest.mark.parametrize("joint_vy, rv, rv_prime, n, seed", [
        ([[0.35, 0.15], [0.1, 0.4]], 0.5, 0.5, 4, 15),  # square
        ([[0.35, 0.15], [0.1, 0.4]], 1.0, 1.0, 3, 9),  # repeated words
        ([[0.25, 0.1, 0.1, 0.05], [0.05, 0.1, 0.1, 0.25]], 0.5, 0.75, 4, 21),  # composite y
    ])
    def test_batched_exhaustive_against_scalar_loop(self, monkeypatch, joint_vy, rv,
                                                    rv_prime, n, seed):
        # every (y-block, bin) pair in one batch, bins interleaved in a
        # fixed shuffled order
        joint_vy = np.array(joint_vy)
        joint_xv = np.array([[0.4, 0.1], [0.1, 0.4]])
        book = build_codebook(joint_xv, n, rv, rv_prime, np.random.SeedSequence(seed))
        ys = all_blocks(joint_vy.shape[1], n)
        pairs = [(y, omega) for y in ys for omega in range(1, book.m_omega + 1)]
        order = np.random.default_rng(0).permutation(len(pairs))
        blocks = np.array([pairs[i][0] for i in order])
        omegas = np.array([pairs[i][1] for i in order])
        for eps in (0.3, 1.0, 3.0):
            want = [scalar_decode(book, y, omega, eps, joint_vy)
                    for y, omega in zip(blocks, omegas)]
            for cells in BATCH_CELLS:
                monkeypatch.setattr(codebook, "_KERNEL_CELLS", cells)
                got = _decode_blocks(book, blocks, omegas, eps, joint_vy)
                assert got.tolist() == want
            typical = [is_jointly_typical(book.word(omega, nu), y, joint_vy, eps)
                       for y, omega, nu in zip(blocks, omegas, want)]
            if eps == 1.0:  # the batch holds both fallbacks and decoded labels
                assert not all(typical) and any(typical)

    def test_out_of_alphabet_symbols(self):
        book = make_codebook([[[0, 1, 0, 1]]], DIAG2)
        joint_vy = np.full((2, 3), 1.0 / 6.0)
        for y in ([0, -1, 0, -1], [0, 3, 0, 1]):
            with pytest.raises(DomainError, match="symbols must lie in 0..2"):
                wz_decode(book, y, 1, 0.1, joint_vy)

    def test_joint_rows_must_match_the_codeword_alphabet(self):
        book = make_codebook([[[0, 1, 0, 1]]], DIAG2)
        with pytest.raises(DomainError, match="one row per codeword letter"):
            wz_decode(book, [0, 1, 0, 1], 1, 0.1, np.full((3, 2), 1.0 / 6.0))


class TestCachedDistinctWords:
    JOINT = np.array([[0.4, 0.1], [0.1, 0.4]])

    def test_cached_words_give_a_fresh_codebooks_labels(self):
        book = build_codebook(self.JOINT, 4, 0.5, 0.5, np.random.SeedSequence(9))
        blocks = list(itertools.product(range(2), repeat=4))
        for _ in range(2):  # the second pass reads the cached distinct words
            for x in blocks:
                for eps in (0.2, 1.5, 0.6):  # interleaved on one codebook
                    for form in (list(x), np.array(x, np.int8), np.array(x, np.int64)):
                        fresh = make_codebook(book.words, self.JOINT)
                        assert wz_encode(book, form, eps) == wz_encode(fresh, x, eps)
