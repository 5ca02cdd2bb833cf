"""Codebook construction and typicality encoder/decoder tests.

The count-kernel encoder and decoder are checked exhaustively against plain
Python loops over is_jointly_typical, and the typicality predicate itself
against hand-counted cases.  The chunked codeword draw is checked bit for
bit against Generator.choice, the draw it replaced, also when readers draw
the table a few rows at a time in any order.  The kernel's shortcut
for a pair law that admits no typical count vector is checked against a
search over every count vector, and against the kernel without it.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gauss_share.access_structure import monotone_closure
from gauss_share.errors import BudgetExceeded, DomainError, IndexOutOfRange
from gauss_share.protocol import codebook
from gauss_share.protocol.model import build_quantized_source
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
from gauss_share.source_model import SourceSpec

from brute_force import compositions

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

    def test_whole_exponents_give_powers_of_two(self):
        # every two-digit rate within the 2^62 budget at n <= 40: a whole
        # n * rate = e gives 2^e labels, though the float product can miss e
        # by a few ulps either way; every other count is
        # ceil(2.0 ** (n * rate) - 1e-12), as before whole exponents were
        # rounded
        mended = []
        for n in range(1, 41):
            for hundredths in itertools.count():
                rate = hundredths / 100
                if n * rate > 62.0:
                    break
                count = codebook._label_count(n, rate)
                before = max(1, math.ceil(2.0 ** (n * rate) - 1e-12))
                if n * hundredths % 100:
                    assert count == before
                    continue
                assert count == 2 ** (n * hundredths // 100)
                if count != before:
                    mended.append((n, rate))
        assert mended == [(25, 0.56), (25, 1.12), (25, 2.2), (25, 2.24), (25, 2.28), (25, 2.32)]
        book = build_codebook(self.JOINT, 25, 0.56, 0.0, np.random.SeedSequence(1))
        assert book.m_omega == 2**14

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

    @pytest.mark.parametrize("joint, why", [
        ([0.25, 0.75], "2-D"),
        (np.ones((2, 2, 2)) / 8, "2-D"),
        ([[0.5, np.nan], [0.2, 0.3]], "finite and nonnegative"),
        ([[0.5, np.inf], [0.2, 0.3]], "finite and nonnegative"),
        ([[0.5, -0.1], [0.2, 0.4]], "finite and nonnegative"),
        ([[0.0, 0.0], [0.0, 0.0]], "positive finite sum"),
        (np.zeros((2, 0)), "positive finite sum"),
        ([[1e308, 1e308], [1e308, 1e308]], "positive finite sum"),
    ])
    def test_invalid_joint_is_refused(self, joint, why):
        with pytest.raises(DomainError, match=why):
            build_codebook(joint, 4, 0.5, 0.5, np.random.SeedSequence(1))

    def test_word_lookup_is_one_based(self):
        book = build_codebook(self.JOINT, 4, 0.5, 0.25, np.random.SeedSequence(1))
        np.testing.assert_array_equal(book.word(1, 1), book.words[0, 0])
        np.testing.assert_array_equal(book.word(4, 2), book.words[3, 1])
        for omega, nu in ((0, 1), (1, 0), (5, 1), (1, 3)):
            with pytest.raises(IndexOutOfRange):
                book.word(omega, nu)

    def test_word_lookup_takes_label_arrays(self):
        book = build_codebook(self.JOINT, 4, 0.5, 0.25, np.random.SeedSequence(1))
        omegas = np.array([[1, 4, 2], [3, 3, 1]])
        nus = np.array([[1, 2, 2], [1, 2, 1]])
        got = book.word(omegas, nus)
        assert got.shape == (2, 3, book.n)
        for index in np.ndindex(omegas.shape):
            np.testing.assert_array_equal(got[index], book.word(omegas[index], nus[index]))
        # a column of omegas against a row of nus: every pairing
        np.testing.assert_array_equal(book.word(np.arange(1, 5)[:, None], [1, 2]), book.words)
        for omega, nu in ((0, 1), (1, 0), (5, 1), (1, 3)):
            bad_omegas, bad_nus = omegas.copy(), nus.copy()
            bad_omegas[1, 2], bad_nus[1, 2] = omega, nu
            with pytest.raises(IndexOutOfRange):
                book.word(bad_omegas, bad_nus)


def choice_words(joint_xv, n, rv, rv_prime, seed_seq):
    """The codebook table as Generator.choice draws it, the reference the
    chunked draw must equal bit for bit."""
    p_v = np.asarray(joint_xv, dtype=float).sum(axis=0)
    shape = (codebook._label_count(n, rv), codebook._label_count(n, rv_prime), n)
    rng = np.random.default_rng(seed_seq)
    return rng.choice(p_v.size, size=shape, p=p_v / p_v.sum())


def assert_draws_like_choice(joint_xv, n, rv, rv_prime, seed):
    got = build_codebook(joint_xv, n, rv, rv_prime, np.random.SeedSequence(seed)).words
    want = choice_words(joint_xv, n, rv, rv_prime, np.random.SeedSequence(seed))
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert (got == want).all()


@st.composite
def letter_weights(draw, max_letters=300):
    """Unnormalized p_V over 1 to 300 letters (the model admits l_quant up
    to 271 at one observer), or to max_letters: random weights with
    zero-mass letters first, in the middle or last, or a point mass."""
    n_v = draw(st.integers(1, max_letters))
    weights = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n_v)
    if draw(st.booleans()):
        weights = np.where(np.arange(n_v) == draw(st.integers(0, n_v - 1)), weights, 0.0)
    else:
        weights[sorted(draw(st.sets(st.sampled_from([0, n_v // 2, n_v - 1]))))] = 0.0
    assume(weights.sum() > 0)
    return weights


# bitexact: the draw's <= compares and the encoder's base-n_v code product
# go through dispatched loops, and the table drawn a row at a time must
# equal Generator.choice's under each loop set
@pytest.mark.bitexact
class TestDrawMatchesChoice:
    """build_codebook's words equal Generator.choice over p_V bit for bit."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        weights=letter_weights(),
        split=st.floats(0.0, 1.0),
        n=st.integers(1, 8),
        rv=st.sampled_from([0.0, 0.25, 0.5]),
        rv_prime=st.sampled_from([0.0, 0.25, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_alphabet_and_shape(self, weights, split, n, rv, rv_prime, seed):
        # chunks of 7 uniforms: tables of 1..6 cells sit below a chunk,
        # (1, 1, 7) fills exactly one, and larger ones cross several; p_V is
        # the column sum of a two-row joint
        joint_xv = np.stack([weights * split, weights * (1.0 - split)])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codebook, "_DRAW_CHUNK", 7)
            assert_draws_like_choice(joint_xv, n, rv, rv_prime, seed)

    @pytest.mark.parametrize("n, rv, rv_prime", [
        (8, 1.0, 0.5),  # 32,768 cells, half a chunk
        (4, 1.75, 1.75),  # 65,536 cells, exactly one chunk
        (8, 1.0, 1.0),  # 524,288 cells (the mc-long-block table), eight chunks
        (5, 1.6, 1.2),  # 256 x 64 x 5 = 81,920 cells, a chunk and a quarter
    ])
    @pytest.mark.parametrize("weights", [
        [0.25, 0.75],
        [0.3, 0.0, 0.7],
        np.arange(300.0) % 7,
    ])
    def test_tables_at_the_default_chunk(self, n, rv, rv_prime, weights):
        for seed in (0, 1, 2**31 + 5):
            assert_draws_like_choice(np.atleast_2d(weights), n, rv, rv_prime, seed)

    @pytest.mark.parametrize("joint, n, rv, rv_prime, seed", [
        # the TestBuildCodebook draws
        (TestBuildCodebook.JOINT, 4, 0.5, 0.25, 1),
        (TestBuildCodebook.JOINT, 3, 0.0, 0.0, 1),
        (TestBuildCodebook.JOINT, 5, 1.0, 0.5, 42),
        (TestBuildCodebook.JOINT, 10, 1.0, 0.5, 7),
        # the TestEncoder draws
        ([[0.4, 0.1], [0.1, 0.4]], 4, 0.5, 0.5, 9),
        ([[0.4, 0.1], [0.1, 0.4]], 3, 1.0, 1.0, 9),
        ([[0.30, 0.05], [0.10, 0.15], [0.05, 0.35]], 4, 0.5, 0.5, 9),
        ([[0.20, 0.10, 0.05], [0.05, 0.20, 0.05], [0.00, 0.10, 0.25]], 4, 0.75, 0.5, 4),
    ])
    def test_fixture_codebooks(self, joint, n, rv, rv_prime, seed):
        assert_draws_like_choice(joint, n, rv, rv_prime, seed)

    def test_peak_memory_is_the_table_plus_one_chunk(self):
        # Generator.choice held a float64 array of uniforms as large as the
        # int64 table, so it peaked at twice the table; the build draws
        # nothing, so the full draw is the first read of words
        tracemalloc.start()
        try:
            book = build_codebook(TestBuildCodebook.JOINT, 8, 1.0, 1.0,
                                  np.random.SeedSequence(0))
            words = book.words
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert words.nbytes == 4 * 2**20
        assert peak < 1.5 * words.nbytes


RATES = [0.0, 0.25, 0.5, 1.0]


# bitexact: the draw's <= compares and the encoder's base-n_v code product
# go through dispatched loops, and the table drawn a row at a time must
# equal Generator.choice's under each loop set
@pytest.mark.bitexact
class TestDrawOnDemand:
    """build_codebook draws each row on its first read, in stream order:
    whatever reads the codebook, in whatever order, sees the table
    Generator.choice draws, and the encoder's distinct words are those of
    that whole table."""

    # alphabets of at most 4 letters give tables that hold more words than
    # n_v^n, where the encoder reads a prefix of the rows
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(
        weights=st.one_of(letter_weights(), letter_weights(max_letters=4)),
        n=st.integers(1, 8),
        rv=st.sampled_from(RATES),
        rv_prime=st.sampled_from(RATES),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_reads_in_any_order_see_the_choice_table(self, weights, n, rv, rv_prime,
                                                     seed, data):
        joint_xv = np.atleast_2d(weights)
        joint_vy = joint_xv.T  # one y letter, so every y-block is all zeros
        want = choice_words(joint_xv, n, rv, rv_prime, np.random.SeedSequence(seed))
        given_table = make_codebook(want, joint_xv)
        reads = data.draw(st.lists(st.sampled_from(["word", "distinct", "decode"]),
                                   max_size=6))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codebook, "_DRAW_CHUNK", 7)
            book = build_codebook(joint_xv, n, rv, rv_prime, np.random.SeedSequence(seed))
            for read in reads:
                omegas = np.array(data.draw(st.lists(st.integers(1, book.m_omega),
                                                     max_size=4)), dtype=np.int64)
                if read == "word":
                    nus = np.array(data.draw(st.lists(
                        st.integers(1, book.m_nu), min_size=len(omegas), max_size=len(omegas)
                    )), dtype=np.int64)
                    got = book.word(omegas, nus)
                    assert got.shape == (len(omegas), n)
                    assert (got == want[omegas - 1, nus - 1]).all()
                elif read == "distinct":
                    words, first = book._distinct
                    assert (words == want.reshape(-1, n)[first]).all()
                else:
                    y_blocks = np.zeros((len(omegas), n), dtype=np.int64)
                    got = _decode_blocks(book, y_blocks, omegas, 0.5, joint_vy)
                    assert (got == _decode_blocks(given_table, y_blocks, omegas, 0.5,
                                                  joint_vy)).all()
            assert (book.words == want).all()

    # The examples above are drawn through st.data(), so @example cannot pin
    # one, and which tables they reach depends on the test modules collected
    # beside this one (Hypothesis also draws from literals it finds in every
    # loaded module).  This case keeps a large table in every run: 256 x 256
    # words of length 8, of which the encoder's search reads 32 rows
    @pytest.mark.parametrize("reads", itertools.permutations(["word", "distinct", "decode"]),
                             ids="-".join)
    def test_reads_in_each_order_on_a_large_binary_table(self, monkeypatch, reads):
        monkeypatch.setattr(codebook, "_DRAW_CHUNK", 7)
        joint_xv = np.array([[0.35, 0.65]])
        joint_vy = joint_xv.T
        want = choice_words(joint_xv, 8, 1.0, 1.0, np.random.SeedSequence(5))
        given_table = make_codebook(want, joint_xv)
        book = build_codebook(joint_xv, 8, 1.0, 1.0, np.random.SeedSequence(5))
        omegas, nus = np.array([4, 1, 2]), np.array([256, 1, 17])
        decoded, y_blocks = np.array([9, 6]), np.zeros((2, 8), dtype=np.int64)
        for read in reads:
            if read == "word":
                assert (book.word(omegas, nus) == want[omegas - 1, nus - 1]).all()
            elif read == "distinct":
                words, first = book._distinct
                assert (first == given_table._distinct[1]).all()
                assert (words == want.reshape(-1, 8)[first]).all()
            else:
                got = _decode_blocks(book, y_blocks, decoded, 0.5, joint_vy)
                assert (got == _decode_blocks(given_table, y_blocks, decoded, 0.5,
                                              joint_vy)).all()
        assert book._drawn == 32
        assert (book._rows(32) == want[:32]).all()

    @pytest.mark.parametrize("joint, n, rv, rv_prime", [
        ([[0.4, 0.1], [0.1, 0.4]], 8, 1.0, 1.0),  # 65,536 words over 2^8 codes
        ([[0.4, 0.1], [0.1, 0.4]], 3, 1.0, 1.0),  # 64 words over 2^3 codes
        ([[0.4, 0.1], [0.1, 0.4]], 4, 0.5, 0.5),  # 16 words over 2^4: read whole
        ([[0.4, 0.1], [0.1, 0.4]], 8, 0.5, 0.5),  # 256 words, fewer than 2^8 codes
        ([[0.1, 0.0, 0.3], [0.2, 0.0, 0.4]], 5, 1.0, 0.5),  # a zero-mass letter
        ([[0.1, 0.2, 0.3], [0.2, 0.1, 0.1]], 6, 1.0, 0.75),  # 3^6 codes, rows of 23
        ([[0.0, 0.5], [0.0, 0.5]], 6, 0.5, 0.5),  # a point mass: one code
        ([[0.0, 0.5, 0.0]], 1, 0.0, 0.0),  # a point mass in a one-word table
    ])
    @pytest.mark.parametrize("chunk", [7, codebook._DRAW_CHUNK])
    def test_distinct_words_are_those_of_the_whole_table(self, monkeypatch, joint, n, rv,
                                                         rv_prime, chunk):
        # a table that one chunk fills is read whole, so chunks of 7
        # uniforms send the smaller tables through the prefix reads too
        monkeypatch.setattr(codebook, "_DRAW_CHUNK", chunk)
        for seed in (0, 1, 2**31 + 5):
            book = build_codebook(joint, n, rv, rv_prime, np.random.SeedSequence(seed))
            want = choice_words(joint, n, rv, rv_prime, np.random.SeedSequence(seed))
            words, first = book._distinct
            want_words, want_first = make_codebook(want, joint)._distinct
            assert (first == want_first).all()
            assert (words == want_words).all()
            assert (book.words == want).all()

    def test_a_point_mass_reads_one_row(self):
        # 256 x 256 words of length 8, of which the first shows the only one
        book = build_codebook([[0.0, 0.5], [0.0, 0.5]], 8, 1.0, 1.0, np.random.SeedSequence(3))
        words, first = book._distinct
        assert first.tolist() == [0]
        assert words.tolist() == [[1] * 8]
        assert book._drawn == 1 < book.m_omega

    def test_a_table_one_chunk_fills_is_drawn_whole(self):
        # 16 x 16 words of length 4 (the exact-leakage table): ceil(2^4 / 16)
        # is one row, but one draw call fills all 1,024 cells
        book = build_codebook([[0.4, 0.1], [0.1, 0.4]], 4, 1.0, 1.0, np.random.SeedSequence(3))
        book._distinct
        assert book._drawn == book.m_omega == 16

    def test_a_given_table_is_read_whole(self, monkeypatch):
        # letter 1 has no mass, so a drawn table never holds it; a given one
        # may, and its typical word (2, 1) lies past the one word p_V can
        # produce that row 1 already shows.  Chunks of one uniform keep the
        # four cells from being read whole as a table one chunk fills
        monkeypatch.setattr(codebook, "_DRAW_CHUNK", 1)
        joint = np.array([[1.0, 0.0]])
        book = make_codebook([[[1]], [[0]], [[0]], [[1]]], joint)
        assert wz_encode(book, [0], 0.5) == (2, 1)
        assert book._distinct[1].tolist() == [0, 1]

    def test_the_encoder_reads_a_prefix_on_the_long_block_config(self):
        # the README source at l_quant 2, n 8, rv = rv' = 1 and codebook
        # seed 0: a 256 x 256 table, of whose rows the encoder over all
        # 256 x-blocks draws only those that show every word p_V can produce
        spec = SourceSpec.from_gains(2.0, [0.5, 1.0, 0.8])
        structure = monotone_closure(3, [[1, 2], [2, 3]])
        model = build_quantized_source(spec, structure, 2)
        seed_seq = np.random.SeedSequence(0, spawn_key=(0,))
        book = build_codebook(model.joint_xv(), 8, 1.0, 1.0, seed_seq)
        blocks = all_blocks(model.joint_xv().shape[0], 8)
        omegas, nus = _encode_blocks(book, blocks, 0.2)
        assert book.m_omega == 256
        assert book._drawn < book.m_omega
        fresh = make_codebook(
            choice_words(model.joint_xv(), 8, 1.0, 1.0, seed_seq), model.joint_xv()
        )
        want = _encode_blocks(fresh, blocks, 0.2)
        assert (omegas == want[0]).all() and (nus == want[1]).all()

    def test_empty_reads(self):
        book = build_codebook(TestBuildCodebook.JOINT, 4, 0.5, 0.25, np.random.SeedSequence(1))
        none = np.array([], dtype=np.int64)
        assert book.word(none, none).shape == (0, 4)
        got = _decode_blocks(book, np.zeros((0, 4), dtype=np.int64), none, 0.5,
                             TestBuildCodebook.JOINT.T)
        assert got.shape == (0,)
        assert book._drawn == 0


# bitexact: the counts are integer bincounts, which no BLAS kernel touches;
# checked against scalar loops under each kernel, so a change that puts a
# BLAS product back into the count path fails here
@pytest.mark.bitexact
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


# bitexact: the counts are integer bincounts, which no BLAS kernel touches;
# checked against scalar loops under each kernel, so a change that puts a
# BLAS product back into the count path fails here
@pytest.mark.bitexact
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


# bitexact: the feasibility table that lets the count kernel skip a batch
# and the kernel's own count test share one float expression (abs,
# subtract, multiply, compare), which must agree with a search over every
# count vector under each BLAS kernel and SIMD loop set
@pytest.mark.bitexact
class TestAdmitsTypical:
    """_admits_typical decides from one table of counts 0..n per letter
    whether any count vector is typical; when none is, the kernel returns
    "none typical" for the whole batch without counting."""

    # 0.5 of n p = 2 (p = 0.5, n = 4) and 0.25 of n p = 4 (p = 0.5, n = 8)
    # are whole counts: the test's edges fall on integers
    EPSILONS = (0.0, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.6, 1.0, 1.5, 2.5)
    README_SPEC = SourceSpec.from_gains(2.0, [0.5, 1.0, 0.8])
    README_STRUCTURE = monotone_closure(3, [[1, 2], [2, 3]])

    @staticmethod
    def pmfs():
        """Hand-picked pmfs of 2-6 letters, then random ones with no, one
        and half of their cells zero."""
        fixed = [[0.5, 0.5], [0.9, 0.1], [0.5, 0.5, 0.0], [0.4, 0.1, 0.1, 0.4],
                 [0.25] * 4, [0.2] * 5, [1 / 6] * 6, [0.2, 0.1, 0.05, 0.0, 0.4, 0.25]]
        pmfs = [np.array(p) for p in fixed]
        rng = np.random.default_rng(0)
        for n_letters in range(2, 7):
            for zeros in (0, 1, n_letters // 2):
                weights = rng.random(n_letters)
                weights[rng.permutation(n_letters)[:zeros]] = 0.0
                pmfs.append(weights / weights.sum())
        return pmfs

    def test_equals_a_search_over_every_count_vector(self):
        outcomes = set()
        sum_decides = 0  # every letter passes some count, yet no vector does
        for pmf in self.pmfs():
            for n in range(1, 9):
                counts = compositions(n, pmf.size)
                table = np.arange(n + 1)[:, None]
                for eps in self.EPSILONS:
                    want = bool(codebook._typical_from_counts(counts, pmf, n, eps).any())
                    assert codebook._admits_typical(pmf, n, eps) == want, (pmf, n, eps)
                    outcomes.add(want)
                    letters = codebook._letters_pass(table, pmf, n, eps).any(axis=0).all()
                    sum_decides += letters and not want
        assert outcomes == {False, True}
        assert sum_decides > 0

    def test_whole_count_edges(self):
        # n p = 2 with tolerance 1: counts 1..3 pass, so (1, 3) is typical
        pmf = np.array([0.5, 0.5])
        assert codebook._typical_from_counts(np.array([1, 3]), pmf, 4, 0.5)
        assert codebook._admits_typical(pmf, 4, 0.5)
        # at epsilon 0 only the count n p passes: a whole count at n = 4,
        # none at n = 3
        assert codebook._admits_typical(pmf, 4, 0.0)
        assert not codebook._admits_typical(pmf, 3, 0.0)
        # p = 0.1 at n = 4 needs a count in [0.2, 0.6]
        assert not codebook._admits_typical(np.array([0.9, 0.1]), 4, 0.5)

    def test_encoder_batches_match_the_kernel_without_the_shortcut(self, monkeypatch):
        # the TestEncoder books, every x-block in one batch
        joint = np.array([[0.4, 0.1], [0.1, 0.4]])
        books = [
            build_codebook(joint, 4, 0.5, 0.5, np.random.SeedSequence(9)),
            build_codebook(joint, 3, 1.0, 1.0, np.random.SeedSequence(9)),
            build_codebook([[0.30, 0.05], [0.10, 0.15], [0.05, 0.35]], 4, 0.5, 0.5,
                           np.random.SeedSequence(9)),
        ]
        admitted = set()
        for book in books:
            blocks = all_blocks(book.joint_xv.shape[0], book.n)
            for eps in (0.2, 0.6, 1.5, 2.5):
                admitted.add(codebook._admits_typical(book.joint_xv.ravel(), book.n, eps))
                want = _encode_blocks(book, blocks, eps)
                with monkeypatch.context() as patch:
                    patch.setattr(codebook, "_admits_typical", lambda *args: True)
                    got = _encode_blocks(book, blocks, eps)
                np.testing.assert_array_equal(got, want)
        assert admitted == {False, True}  # 0.2 against 0.4/0.1 at n = 4 admits none

    @pytest.mark.parametrize("joint_vy, rv, rv_prime, n, seed", [
        ([[0.35, 0.15], [0.1, 0.4]], 0.5, 0.5, 4, 15),  # square
        ([[0.35, 0.15], [0.1, 0.4]], 1.0, 1.0, 3, 9),  # repeated words
        ([[0.25, 0.1, 0.1, 0.05], [0.05, 0.1, 0.1, 0.25]], 0.5, 0.75, 4, 21),  # composite y
    ])
    def test_decoder_batches_match_the_kernel_without_the_shortcut(
        self, monkeypatch, joint_vy, rv, rv_prime, n, seed
    ):
        # the TestDecoder books, every (y-block, bin) pair in one batch
        joint_vy = np.array(joint_vy)
        book = build_codebook([[0.4, 0.1], [0.1, 0.4]], n, rv, rv_prime,
                              np.random.SeedSequence(seed))
        ys = all_blocks(joint_vy.shape[1], n)
        blocks = np.repeat(ys, book.m_omega, axis=0)
        omegas = np.tile(np.arange(1, book.m_omega + 1), len(ys))
        admitted = set()
        for eps in (0.3, 0.5, 0.8, 1.0, 3.0):
            admitted.add(codebook._admits_typical(joint_vy.T.ravel(), n, eps))
            want = _decode_blocks(book, blocks, omegas, eps, joint_vy)
            with monkeypatch.context() as patch:
                patch.setattr(codebook, "_admits_typical", lambda *args: True)
                got = _decode_blocks(book, blocks, omegas, eps, joint_vy)
            np.testing.assert_array_equal(got, want)
        assert admitted == {False, True}

    def test_readme_source_decodes_without_counting(self, monkeypatch):
        # the mc-reconcile configuration, n = 6 at epsilon 0.2: no authorized
        # coalition's pair law admits a typical count vector; the encoder's does
        n, eps = 6, 0.2
        model = build_quantized_source(self.README_SPEC, self.README_STRUCTURE, 2)
        assert codebook._admits_typical(model.joint_xv().ravel(), n, eps)
        book = build_codebook(model.joint_xv(), n, 1.0, 1.0, np.random.SeedSequence(0))
        rng = np.random.default_rng(0)
        omegas = rng.integers(1, book.m_omega + 1, 50)

        def counted(*args):
            raise AssertionError("a batch that admits no typical word was counted")

        monkeypatch.setattr(codebook, "_typical_from_counts", counted)
        for a in self.README_STRUCTURE.authorized:
            joint_vy = model.joint_vy(a)
            assert not codebook._admits_typical(joint_vy.T.ravel(), n, eps)
            y = rng.integers(0, joint_vy.shape[1], (50, n))
            nus = _decode_blocks(book, y, omegas, eps, joint_vy)
            np.testing.assert_array_equal(nus, np.ones(50, dtype=np.int64))
