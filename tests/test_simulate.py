"""Protocol driver tests: determinism, error statistics, exact leakage."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gauss_share.access_structure import monotone_closure, threshold_structure
from gauss_share.errors import BudgetExceeded, DomainError, InvalidConfig, KTooLarge
from gauss_share.protocol import info
from gauss_share.protocol.codebook import build_codebook, wz_decode, wz_encode
from gauss_share.protocol.model import build_quantized_source, discretize_source
from gauss_share.protocol import codebook, simulate
from gauss_share.protocol.simulate import (
    ProtocolConfig,
    _exact_leakage,
    run_protocol,
    wilson_interval,
)
from gauss_share.source_model import SourceSpec

NOISELESS = SourceSpec.from_gains(2.0, [1000.0])
ONE_OF_ONE = threshold_structure(1, 1)
PAIR = SourceSpec.from_gains(2.0, [1.0, 0.6])
BOTH_NEEDED = threshold_structure(2, 2)


def config(**overrides):
    base = dict(l_quant=2, n=2, q=2, epsilon=0.2, rv=1.0, rv_prime=1.0,
                k=2, seed=7, trials=5)
    base.update(overrides)
    return ProtocolConfig(**base)


class TestProtocolConfig:
    def test_rejects_each_bad_field(self):
        bad = [
            dict(l_quant=1), dict(n=0), dict(q=0),
            dict(epsilon=0.0), dict(epsilon=1.0),
            dict(rv=-0.1), dict(rv_prime=-0.1), dict(k=-1),
            dict(seed=-1), dict(seed=2**64), dict(trials=0),
            dict(rp_target=0.0), dict(rp_target=-1.0), dict(rp_target=math.inf),
        ]
        for fields in bad:
            with pytest.raises(InvalidConfig):
                config(**fields)

    @pytest.mark.parametrize("fields", [
        dict(l_quant=2.7), dict(n=2.5), dict(q=2.0), dict(k=True), dict(seed=1.0),
        dict(trials=True), dict(n="2"), dict(l_quant=np.float64(2.0)), dict(q=np.True_),
        dict(exact_leakage="no"), dict(exact_leakage=0), dict(exact_leakage=1),
    ])
    def test_refuses_counts_that_are_not_integers(self, fields):
        with pytest.raises(InvalidConfig, match="must be"):
            config(**fields)

    def test_accepts_numpy_integers(self):
        assert config(n=np.int64(3), q=np.uint8(2)).total_symbols == 6

    def test_total_symbols(self):
        assert config(n=3, q=5).total_symbols == 15

    def test_accepts_boundary_values(self):
        config(seed=2**64 - 1, k=0, rp_target=None)


class TestWilsonInterval:
    def test_empty_sample_is_uninformative(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_contains_the_point_estimate(self):
        for s, t in ((0, 10), (3, 10), (10, 10), (250, 1000)):
            lo, hi = wilson_interval(s, t)
            assert 0.0 <= lo <= s / t <= hi <= 1.0

    def test_endpoints_solve_the_score_equation(self):
        # interior endpoints p satisfy (p_hat - p)^2 t = z^2 p (1 - p)
        z = 1.959963984540054
        for s, t in ((5, 20), (1, 1000), (400, 500)):
            p_hat = s / t
            for p in wilson_interval(s, t):
                residual = (p_hat - p) ** 2 * t - z * z * p * (1.0 - p)
                assert abs(residual) < 1e-9

    def test_extremes_hit_the_analytic_endpoints(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0
        assert 0.0 < hi < 1.0
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0
        assert 0.0 < lo < 1.0


class TestDeterminism:
    def test_identical_runs_produce_identical_reports(self):
        first = run_protocol(PAIR, BOTH_NEEDED, config())
        second = run_protocol(PAIR, BOTH_NEEDED, config())
        assert first == second
        assert first.to_text() == second.to_text()

    def test_seed_changes_the_outcome(self):
        a = run_protocol(NOISELESS, ONE_OF_ONE, config(seed=0, trials=40, k=1))
        b = run_protocol(NOISELESS, ONE_OF_ONE, config(seed=1, trials=40, k=1))
        assert a.per_authorized[0].secret_errors != b.per_authorized[0].secret_errors


    @pytest.mark.parametrize("per_chunk", [1, 3])
    def test_chunking_leaves_the_report_unchanged(self, monkeypatch, per_chunk):
        # README source with secret errors; the sample budget fits per_chunk
        # trials of 12 symbols of 4 values each, and the same kernel budget
        # limits each bincount to one block
        spec, structure = TestGoldenReports.README, TestGoldenReports.README_STRUCTURE
        cfg = ProtocolConfig(seed=0, **TestGoldenReports.README_KNOBS)
        whole = run_protocol(spec, structure, cfg)
        assert whole.per_authorized[0].secret_errors > 0

        sizes = []

        def discretize(x_quantizer, y_quantizers, x, y):
            sizes.append(x.size)
            return discretize_source(x_quantizer, y_quantizers, x, y)

        monkeypatch.setattr(simulate, "discretize_source", discretize)
        monkeypatch.setattr(simulate, "_SAMPLE_BUDGET", 12 * 4 * per_chunk)
        monkeypatch.setattr(codebook, "_KERNEL_CELLS", 12 * 4 * per_chunk)
        assert run_protocol(spec, structure, cfg) == whole
        chunks, last = divmod(cfg.trials, per_chunk)
        assert sizes == [12 * per_chunk] * chunks + [12 * last] * (last > 0)


class TestGoldenReports:
    """Seeded reports pinned to values recorded before the encoder and
    decoder were rewritten around a shared count kernel and label memo.

    Every field is compared with ==, floats included: a change to the
    typicality arithmetic that flips one decision, or reorders one
    floating-point sum, fails here.
    """

    README = SourceSpec.from_gains(2.0, [0.5, 1.0, 0.8])
    README_STRUCTURE = monotone_closure(3, [[1, 2], [2, 3]])
    README_KNOBS = dict(l_quant=2, n=6, q=2, epsilon=0.2, rv=1.0, rv_prime=1.0,
                        k=2, trials=40, exact_leakage=False)

    @staticmethod
    def fields(report):
        return {
            "errors": [
                (st.subset, st.secret_errors, st.block_errors, st.trial_block_errors)
                for st in report.per_authorized
            ],
            "leakage": report.leakage,
            "message_leakage": report.message_leakage,
            "secret_entropy": report.secret_entropy,
            "uniformity_gap": report.uniformity_gap,
            "public_rate_used": report.public_rate_used,
        }

    @pytest.mark.parametrize("seed, errors", [
        (0, [((1, 2), 14, 18, 18), ((2, 3), 14, 18, 18), ((1, 2, 3), 14, 18, 18)]),
        (1, [((1, 2), 15, 26, 22), ((2, 3), 15, 26, 22), ((1, 2, 3), 15, 26, 22)]),
        (2, [((1, 2), 12, 28, 22), ((2, 3), 12, 28, 22), ((1, 2, 3), 12, 28, 22)]),
    ])
    def test_readme_source_monte_carlo(self, seed, errors):
        cfg = ProtocolConfig(seed=seed, **self.README_KNOBS)
        report = run_protocol(self.README, self.README_STRUCTURE, cfg)
        assert self.fields(report) == {
            "errors": errors,
            "leakage": None,
            "message_leakage": None,
            "secret_entropy": None,
            "uniformity_gap": None,
            "public_rate_used": 2.083333333333333,
        }

    # the mc-reconcile workload's knobs, except that no secret is hashed
    @pytest.mark.parametrize("seed, errors", [
        (0, [((1, 2), 0, 26, 24), ((2, 3), 0, 26, 24), ((1, 2, 3), 0, 26, 24)]),
        (1, [((1, 2), 0, 33, 27), ((2, 3), 0, 33, 27), ((1, 2, 3), 0, 33, 27)]),
    ])
    def test_readme_source_without_a_secret(self, seed, errors):
        knobs = dict(self.README_KNOBS, k=0, trials=50)
        report = run_protocol(self.README, self.README_STRUCTURE,
                              ProtocolConfig(seed=seed, **knobs))
        assert self.fields(report) == {
            "errors": errors,
            "leakage": (((), 0.0), ((1,), 0.0), ((2,), 0.0), ((3,), 0.0), ((1, 3), 0.0)),
            "message_leakage": 0.0,
            "secret_entropy": 0.0,
            "uniformity_gap": 0.0,
            "public_rate_used": 1.0,
        }

    def test_three_letter_auxiliary_without_a_secret(self):
        # a non-power-of-two alphabet, which only k = 0 admits: no hash seed
        report = run_protocol(
            PAIR, BOTH_NEEDED,
            config(l_quant=3, n=4, epsilon=0.5, k=0, trials=20),
        )
        assert self.fields(report) == {
            "errors": [((1, 2), 0, 18, 14)],
            "leakage": (((), 0.0), ((1,), 0.0), ((2,), 0.0)),
            "message_leakage": 0.0,
            "secret_entropy": 0.0,
            "uniformity_gap": 0.0,
            "public_rate_used": 1.0,
        }

    def test_two_of_two_exact_leakage_at_k8(self):
        cfg = ProtocolConfig(l_quant=2, n=4, q=2, epsilon=0.5, rv=1.0, rv_prime=1.0,
                             k=8, seed=5, trials=20, exact_leakage=True)
        report = run_protocol(PAIR, BOTH_NEEDED, cfg)
        assert self.fields(report) == {
            "errors": [((1, 2), 20, 33, 20)],
            "leakage": (((), 0.0), ((1,), 0.0), ((2,), 7.105427357601002e-15)),
            "message_leakage": 0.0,
            "secret_entropy": 8.0,
            "uniformity_gap": 0.0,
            "public_rate_used": 2.875,
        }

    def test_two_of_two_exact_leakage_that_leaks(self):
        report = run_protocol(
            PAIR, BOTH_NEEDED,
            config(n=2, q=1, k=1, seed=20, trials=20, exact_leakage=True),
        )
        assert self.fields(report) == {
            "errors": [((1, 2), 3, 5, 5)],
            "leakage": (
                ((), 0.0737613082228672),
                ((1,), 0.12421851620739321),
                ((2,), 0.09736741213763844),
            ),
            "message_leakage": 0.0737613082228672,
            "secret_entropy": 0.8112781244591328,
            "uniformity_gap": 0.18872187554086717,
            "public_rate_used": 2.0,
        }


class TestErrorStatistics:
    def test_counts_and_rates_are_consistent(self):
        report = run_protocol(NOISELESS, ONE_OF_ONE, config(trials=30, k=1))
        st = report.per_authorized[0]
        assert st.trials == 30
        assert st.blocks == 60
        assert st.secret_error_rate == st.secret_errors / 30
        assert st.block_error_rate == st.block_errors / 60
        assert st.trial_block_error_rate == st.trial_block_errors / 30
        assert st.secret_ci == wilson_interval(st.secret_errors, 30)
        assert st.block_ci == wilson_interval(st.block_errors, 60)
        assert st.trial_block_errors <= st.block_errors
        assert st.secret_errors <= st.trial_block_errors

    def test_monte_carlo_matches_exact_block_error_of_the_codebook(self):
        """For one pinned codebook, enumerate the exact per-block error
        probability and require the sampled rate to sit within 5 sigma."""
        n, q, trials, eps = 2, 3, 600, 0.2
        cfg = config(n=n, q=q, trials=trials, k=0, seed=3)
        model = build_quantized_source(NOISELESS, ONE_OF_ONE, 2)
        book = build_codebook(
            model.joint_xv(), n, cfg.rv, cfg.rv_prime,
            np.random.SeedSequence(cfg.seed).spawn(1)[0],
        )
        joint_xy = model.joint_xy((1,))
        joint_vy = model.joint_vy((1,))
        exact = 0.0
        for xb in itertools.product(range(2), repeat=n):
            omega, nu = wz_encode(book, np.array(xb), eps)
            sent = book.word(omega, nu)
            for yb in itertools.product(range(2), repeat=n):
                nu_hat = wz_decode(book, np.array(yb), omega, eps, joint_vy)
                if not np.array_equal(book.word(omega, nu_hat), sent):
                    p = 1.0
                    for a, b in zip(xb, yb):
                        p *= joint_xy[a, b]
                    exact += p
        report = run_protocol(NOISELESS, ONE_OF_ONE, cfg)
        sampled = report.per_authorized[0].block_error_rate
        sigma = math.sqrt(exact * (1.0 - exact) / (trials * q))
        assert abs(sampled - exact) <= 5.0 * sigma

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        source=st.sampled_from([(PAIR, BOTH_NEEDED),
                                (TestGoldenReports.README, TestGoldenReports.README_STRUCTURE)]),
        l_quant=st.sampled_from([2, 4]),
        n=st.integers(1, 4),
        q=st.integers(1, 3),
        k=st.integers(0, 4),
        epsilon=st.sampled_from([0.2, 0.5, 0.9]),
        rv=st.sampled_from([0.0, 0.5, 1.0]),
        trials=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_error_counts_are_ordered(self, source, k, trials, **knobs):
        (spec, structure) = source
        assume(k <= knobs["n"] * knobs["q"] * (knobs["l_quant"].bit_length() - 1))
        cfg = ProtocolConfig(k=k, trials=trials, rv_prime=knobs["rv"],
                             exact_leakage=False, **knobs)
        report = run_protocol(spec, structure, cfg)
        assert [e.subset for e in report.per_authorized] == list(structure.authorized)
        for e in report.per_authorized:
            assert e.trials == trials and e.blocks == trials * cfg.q
            assert e.secret_errors <= e.trial_block_errors
            assert e.trial_block_errors <= min(e.block_errors, trials)
            assert e.block_errors <= trials * cfg.q

    def test_reliability_improves_with_blocklength_at_fixed_symbols(self):
        # N = 12 split as 6x2, 3x4, 2x6: longer blocks reconcile better
        means = []
        for n, q in ((2, 6), (4, 3), (6, 2)):
            rates = [
                run_protocol(
                    NOISELESS, ONE_OF_ONE,
                    config(n=n, q=q, k=3, seed=seed, trials=100),
                ).per_authorized[0].secret_error_rate
                for seed in range(20)
            ]
            means.append(sum(rates) / len(rates))
        assert means[0] > means[1] + 0.05
        assert means[1] > means[2] + 0.05


class TestLeakageModes:
    def test_zero_secret_leaks_nothing_exactly(self):
        report = run_protocol(PAIR, BOTH_NEEDED, config(k=0, l_quant=3, trials=1))
        assert report.leakage_mode == "exact"
        assert all(v == 0.0 for _, v in report.leakage)
        assert report.message_leakage == 0.0
        assert report.secret_entropy == 0.0
        assert report.uniformity_gap == 0.0
        assert report.max_leakage == 0.0
        assert report.seed_bits_per_symbol == 0.0

    def test_auto_mode_enumerates_small_binary_instances(self):
        report = run_protocol(PAIR, BOTH_NEEDED, config(trials=1))
        assert report.leakage_mode == "exact"
        assert report.leakage is not None

    def test_auto_mode_refuses_long_strings(self):
        report = run_protocol(
            NOISELESS, ONE_OF_ONE,
            config(n=9, q=1, k=1, rv=0.5, rv_prime=0.5, trials=1),
        )
        assert report.leakage_mode == "unavailable"
        assert report.leakage is None
        assert report.message_leakage is None
        assert report.secret_entropy is None
        assert report.uniformity_gap is None
        assert report.max_leakage is None

    def test_auto_mode_refuses_wide_alphabets(self):
        report = run_protocol(PAIR, BOTH_NEEDED, config(l_quant=4, trials=1))
        assert report.leakage_mode == "unavailable"

    def test_disabled_mode_reports_unavailable(self):
        report = run_protocol(PAIR, BOTH_NEEDED, config(exact_leakage=False, trials=1))
        assert report.leakage_mode == "unavailable"
        assert report.leakage is None

    def test_forcing_past_the_budget_raises(self, monkeypatch):
        # refused before the first trial, however many trials are asked for
        def sample(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(simulate, "sample_source", sample)
        monkeypatch.setattr(simulate, "build_codebook", sample)
        cfg = config(n=10, q=3, k=25, rv=0.5, rv_prime=0.5,
                     trials=100_000, exact_leakage=True)
        with pytest.raises(BudgetExceeded, match="exact leakage enumeration"):
            run_protocol(NOISELESS, ONE_OF_ONE, cfg)

    def test_forcing_counts_the_encoder_tests(self, monkeypatch):
        # 1-of-2 leaves only the empty set unauthorized, so the law has just
        # 2 * 2^13 cells, but _block_law would test each of 2^13 x-blocks
        # against up to 2^13 distinct words
        def draw(*args, **kwargs):
            raise AssertionError("the codebook was drawn")

        monkeypatch.setattr(simulate, "build_codebook", draw)
        with pytest.raises(BudgetExceeded, match="exact leakage enumeration"):
            run_protocol(PAIR, monotone_closure(2, [[1], [2]]),
                         config(n=13, q=1, k=1, exact_leakage=True))

    @pytest.mark.parametrize("forced", [None, True])
    def test_codebook_size_does_not_count_against_the_budget(self, forced):
        # 2^10 x 2^10 labels, but the encoder tests at most 2^4 distinct
        # words per x-block and the law has 2^2 * 2^8 cells
        report = run_protocol(PAIR, BOTH_NEEDED, config(
            n=4, q=1, rv=2.5, rv_prime=2.5, trials=1, exact_leakage=forced))
        assert (report.m_omega, report.m_nu) == (1024, 1024)
        assert report.leakage_mode == "exact"

    def test_sample_budget_is_checked_before_the_codebook_and_trials(self, monkeypatch):
        class Sampled(Exception):
            pass

        def sample(*args, **kwargs):
            raise Sampled

        monkeypatch.setattr(simulate, "sample_source", sample)
        # PAIR: each symbol samples x and two observations
        q_max = simulate._SAMPLE_BUDGET // (2 * 3)
        with pytest.raises(Sampled):
            run_protocol(PAIR, BOTH_NEEDED, config(k=0, q=q_max, trials=1))

        monkeypatch.setattr(simulate, "build_codebook", sample)
        for q in (q_max + 1, 10**12):
            with pytest.raises(BudgetExceeded, match="sample budget of 20000000"):
                run_protocol(PAIR, BOTH_NEEDED, config(q=q))

    def test_forcing_enables_instances_auto_would_refuse(self):
        report = run_protocol(
            PAIR, BOTH_NEEDED,
            config(l_quant=4, k=1, q=1, trials=1, exact_leakage=True),
        )
        assert report.leakage_mode == "exact"


class TestExactLeakageValues:
    def test_chain_rule_and_bounds_across_seeds(self):
        for seed in range(11):
            report = run_protocol(
                PAIR, BOTH_NEEDED,
                config(n=2, q=1, k=1, seed=seed, trials=1, exact_leakage=True),
            )
            values = [leak for _, leak in report.leakage]
            assert report.message_leakage >= 0.0
            for leak in values:
                assert leak >= report.message_leakage - 1e-12
                assert leak <= report.config.k + 1e-9
            assert report.uniformity_gap >= 0.0
            assert report.max_leakage == max(values)

    def test_uniform_secret_has_zero_gap(self):
        report = run_protocol(
            NOISELESS, ONE_OF_ONE,
            config(n=2, q=1, k=1, seed=0, trials=1, exact_leakage=True),
        )
        assert report.uniformity_gap == 0.0
        assert report.secret_entropy == 1.0

    def test_point_mass_secret_has_positive_zero_entropy(self):
        report = run_protocol(
            PAIR, BOTH_NEEDED,
            config(l_quant=4, n=2, q=1, rv=0.5, rv_prime=0.5, k=1, seed=20,
                   trials=1, exact_leakage=True),
        )
        assert report.secret_entropy == 0.0
        assert math.copysign(1.0, report.secret_entropy) == 1.0
        assert report.uniformity_gap == 1.0
        text = report.to_text()
        assert "  secret entropy: 0.000000000000 bits\n" in text
        assert "-0.0" not in text

    def test_skewed_codebook_shows_a_positive_gap(self):
        report = run_protocol(
            NOISELESS, ONE_OF_ONE,
            config(n=2, q=1, k=1, seed=9, trials=1, exact_leakage=True),
        )
        assert report.uniformity_gap > 0.1
        assert report.secret_entropy < 1.0

    def test_leakage_stable_under_finer_quantization(self):
        # Redrawing the codebook at the finer grid changes the instance, so
        # this is a sanity band, not an equality: leakage moves by < 0.2 bits
        saw_positive = False
        for seed in list(range(8)) + [20]:
            coarse = run_protocol(
                PAIR, BOTH_NEEDED,
                config(n=2, q=1, k=1, seed=seed, trials=1, exact_leakage=True),
            )
            fine = run_protocol(
                PAIR, BOTH_NEEDED,
                config(l_quant=4, n=2, q=1, k=1, seed=seed, trials=1,
                       exact_leakage=True),
            )
            assert abs(fine.max_leakage - coarse.max_leakage) <= 0.2
            saw_positive = saw_positive or coarse.max_leakage > 0.0
        assert saw_positive  # at least one pinned instance actually leaks


class TestBlockLawAgainstBruteForce:
    """_block_law equals the law summed over every (x^n, y^n) pair, each
    x-block encoded on its own by wz_encode."""

    @pytest.mark.parametrize("rp_target", [None, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("l_quant", [2, 4])
    @pytest.mark.parametrize("source", ["2-of-2", "readme"])
    def test_every_coalition_of_small_instances(self, source, l_quant, n, rp_target):
        spec, structure = {
            "2-of-2": (PAIR, BOTH_NEEDED),
            "readme": (TestExactLeakageMatchesPerComboFill.README,
                       TestExactLeakageMatchesPerComboFill.README_STRUCTURE),
        }[source]
        model = build_quantized_source(spec, structure, l_quant, rp_target)
        book = build_codebook(model.joint_xv(), n, 1.0, 0.5,
                              np.random.SeedSequence(3, spawn_key=(0,)))
        outcomes, law = simulate._block_law(model, book, n, 0.2)

        x_blocks = list(itertools.product(range(model.n_x), repeat=n))
        encoded = []
        for xb in x_blocks:
            omega, nu = wz_encode(book, np.array(xb), 0.2)
            encoded.append((omega, *(int(s) for s in book.word(omega, nu))))
        distinct = sorted(set(encoded))
        assert outcomes.tolist() == [list(o) for o in distinct]

        coalitions = [u for u in itertools.chain(structure.unauthorized, structure.authorized)
                      if (model.n_x * model.n_y(u)) ** n <= 2**18]
        assert () in coalitions
        for u in coalitions:
            p_xy = model.joint_xy(u)
            y_blocks = np.array(list(itertools.product(range(model.n_y(u)), repeat=n)))
            want = np.zeros((len(distinct), len(y_blocks)))
            for xb, outcome in zip(x_blocks, encoded):
                # p(x^n, y^n) = prod_i p(x_i, y_i), for every y-block at once
                want[distinct.index(outcome)] += p_xy[np.array(xb), y_blocks].prod(axis=1)
            got = law(u)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            assert math.isclose(got.sum(), 1.0, rel_tol=1e-12)


def _per_combo_leakage(model, structure, codebook, cfg):
    """Reference for _exact_leakage: the table filled one combo at a time.

    Returns the evaluator's (leakage, message leakage, H(S)) and whether an
    all-zero dealer string occurred (the branch that puts full mass on
    secret 0).
    """
    n, q, k = cfg.n, cfg.q, cfg.k
    outcomes = []
    for xb in itertools.product(range(model.n_x), repeat=n):
        omega, nu = wz_encode(codebook, np.array(xb, dtype=np.int64), cfg.epsilon)
        outcomes.append((omega, tuple(int(s) for s in codebook.word(omega, nu))))
    distinct = sorted(set(outcomes))
    out_id = {o: i for i, o in enumerate(distinct)}
    xb_out = np.array([out_id[o] for o in outcomes])
    n_out = len(distinct)

    m_ids = {}
    combo_m = []
    combo_zero = []
    for combo in itertools.product(range(n_out), repeat=q):
        blocks = [distinct[c] for c in combo]
        combo_m.append(m_ids.setdefault(tuple(b[0] for b in blocks), len(m_ids)))
        combo_zero.append(not any(any(b[1]) for b in blocks))

    per_u = []
    msg_leak = h_s = None
    for u in structure.unauthorized:
        p_xy = model.joint_xy(u)
        p_block = p_xy
        for _ in range(n - 1):
            p_block = np.kron(p_block, p_xy)
        p_block_oy = np.zeros((n_out, p_block.shape[1]))
        np.add.at(p_block_oy, xb_out, p_block)
        p_full = p_block_oy
        for _ in range(q - 1):
            p_full = np.kron(p_full, p_block_oy)

        table = np.zeros((2**k, len(m_ids), p_full.shape[1]))
        spread = 2.0**-k * p_full
        for row, (m_id, zero) in enumerate(zip(combo_m, combo_zero)):
            if zero:
                table[0, m_id, :] += p_full[row, :]
            else:
                table[:, m_id, :] += spread[row, :]

        h_s_here = info.entropy(table.sum(axis=(1, 2)))
        leak_u = h_s_here + info.entropy(table.sum(axis=0)) - info.entropy(table)
        if msg_leak is None:
            joint_sm = table.sum(axis=2)
            h_m = info.entropy(joint_sm.sum(axis=0))
            msg_leak = h_s_here + h_m - info.entropy(joint_sm)
            h_s = h_s_here
        per_u.append((u, max(0.0, leak_u)))
    return (tuple(per_u), max(0.0, msg_leak), max(0.0, h_s)), any(combo_zero)


class TestExactLeakageMatchesPerComboFill:
    """The grouped-sum table equals the per-combo fill bit for bit."""

    README = SourceSpec.from_gains(2.0, [0.5, 1.0, 0.8])
    README_STRUCTURE = monotone_closure(3, [[1, 2], [2, 3]])
    WORKLOAD = dict(l_quant=2, n=4, q=2, epsilon=0.5, rv=1.0, rv_prime=1.0,
                    k=8, trials=1, exact_leakage=True)

    @staticmethod
    def both(spec, structure, cfg):
        model = build_quantized_source(spec, structure, cfg.l_quant, cfg.rp_target)
        codebook = build_codebook(
            model.joint_xv(), cfg.n, cfg.rv, cfg.rv_prime,
            np.random.SeedSequence(cfg.seed, spawn_key=(0,)),
        )
        reference, saw_zero = _per_combo_leakage(model, structure, codebook, cfg)
        return _exact_leakage(model, structure, codebook, cfg), reference, saw_zero

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_two_of_two_workload_at_k8(self, seed):
        cfg = ProtocolConfig(seed=seed, **self.WORKLOAD)
        got, want, _ = self.both(PAIR, BOTH_NEEDED, cfg)
        assert got == want

    @pytest.mark.parametrize("overrides", [
        dict(n=2, q=1, k=1, seed=20),
        dict(n=2, q=2, k=1, seed=20),
    ])
    def test_one_bit_secret_that_leaks(self, overrides):
        cfg = config(trials=1, exact_leakage=True, **overrides)
        got, want, _ = self.both(PAIR, BOTH_NEEDED, cfg)
        assert got == want
        assert max(leak for _, leak in got[0]) > 0.0

    def test_forced_four_letter_case_with_an_all_zero_codeword(self):
        cfg = ProtocolConfig(l_quant=4, n=4, q=1, epsilon=0.2, rv=0.5, rv_prime=0.5,
                             k=1, seed=1430, trials=1, exact_leakage=True)
        got, want, saw_zero = self.both(PAIR, BOTH_NEEDED, cfg)
        assert saw_zero  # the full-mass branch for secret 0 runs
        assert got == want
        assert got[2] < 1.0

    @pytest.mark.parametrize("overrides", [
        dict(n=2, q=2, k=3, seed=9),
        dict(n=2, q=2, k=2, seed=7, rp_target=1.0),
    ])
    def test_three_party_source(self, overrides):
        cfg = config(trials=1, exact_leakage=True, **overrides)
        got, want, _ = self.both(self.README, self.README_STRUCTURE, cfg)
        assert got == want
        assert len(got[0]) == len(self.README_STRUCTURE.unauthorized)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_every_secret_length_on_the_workload(self, k):
        cfg = ProtocolConfig(seed=0, **dict(self.WORKLOAD, k=k))
        got, want, _ = self.both(PAIR, BOTH_NEEDED, cfg)
        assert got == want

    def test_one_message_gives_single_cell_marginals(self):
        # rv = rv' = 0 leaves one message, and u = () sees one observation,
        # so the message and (message, observation) marginals are one cell
        cfg = ProtocolConfig(seed=0, **dict(self.WORKLOAD, rv=0.0, rv_prime=0.0))
        got, want, _ = self.both(PAIR, BOTH_NEEDED, cfg)
        assert got == want
        assert got[1] == 0.0  # one message carries nothing about the secret

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1), (3,), (1, 3), (3, 1), (4, 16)])
    @pytest.mark.parametrize("copies", [1, 6, 7, 8, 255, 1000])
    def test_stack_helpers_match_the_materialized_stack(self, shape, copies):
        # numpy adds a stack's rows one after another, but sums a stack of
        # single cells as one 1-D array, pairwise; both orders must be kept
        rng = np.random.default_rng(copies)
        first, uniform = rng.random(shape), rng.random(shape)
        if shape:
            uniform.flat[0] = 0.0  # a zero cell is skipped, as in the table
        stack = np.empty((1 + copies,) + shape)
        stack[0], stack[1:] = first, uniform
        summed = simulate._stacked_sum(first, uniform, copies)
        assert summed.shape == shape
        assert np.array_equal(summed, stack.sum(axis=0))
        assert simulate._stacked_entropy(first, uniform, copies) == info.entropy(stack)


def _sources_and_configs():
    """(spec, structure, config) drawn small enough for the reference fill."""
    sources = st.sampled_from([
        (PAIR, BOTH_NEEDED),
        (TestExactLeakageMatchesPerComboFill.README,
         TestExactLeakageMatchesPerComboFill.README_STRUCTURE),
    ])
    knobs = st.fixed_dictionaries(dict(
        l_quant=st.sampled_from([2, 4]),
        n=st.integers(1, 3),
        q=st.integers(1, 2),
        k=st.integers(1, 4),
        rv=st.sampled_from([0.0, 0.5, 1.0]),
        rp_target=st.sampled_from([None, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    ))
    return st.tuples(sources, knobs)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_sources_and_configs())
def test_exact_leakage_properties(drawn):
    (spec, structure), knobs = drawn
    u_max = max(len(u) for u in structure.unauthorized)
    symbols = knobs["n"] * knobs["q"]
    bits = knobs["l_quant"].bit_length() - 1
    # the reference fill materializes the table, so keep it small
    assume(2 ** knobs["k"] * knobs["l_quant"] ** (symbols * (1 + u_max)) <= 2**16)
    assume(knobs["k"] <= symbols * bits)
    cfg = ProtocolConfig(epsilon=0.2, rv_prime=knobs["rv"], trials=1,
                         exact_leakage=True, **knobs)
    got, want, _ = TestExactLeakageMatchesPerComboFill.both(spec, structure, cfg)
    assert got == want
    leakage, msg_leak, h_s = got
    assert 0.0 <= h_s <= cfg.k + 1e-9
    assert 0.0 <= msg_leak <= cfg.k
    assert [u for u, _ in leakage] == list(structure.unauthorized)
    for _, leak in leakage:
        assert msg_leak - 1e-9 <= leak <= cfg.k  # chain rule, and at most k bits
        assert leak <= h_s + 1e-9  # a coalition learns at most H(S)


def test_exact_leakage_peak_memory_is_below_one_table():
    # the workload's (2^k, messages, Y) float64 table alone is 8 MiB
    cfg = ProtocolConfig(seed=0, **TestExactLeakageMatchesPerComboFill.WORKLOAD)
    model = build_quantized_source(PAIR, BOTH_NEEDED, cfg.l_quant, cfg.rp_target)
    codebook = build_codebook(
        model.joint_xv(), cfg.n, cfg.rv, cfg.rv_prime,
        np.random.SeedSequence(cfg.seed, spawn_key=(0,)),
    )
    tracemalloc.start()
    try:
        _exact_leakage(model, BOTH_NEEDED, codebook, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


class TestPublicRateAccounting:
    def test_rates_add_up(self):
        report = run_protocol(PAIR, BOTH_NEEDED, config(trials=1))
        assert report.public_rate_used == pytest.approx(
            report.message_bits_per_symbol + report.seed_bits_per_symbol
        )
        big_n = report.config.total_symbols
        assert report.message_bits_per_symbol == pytest.approx(
            report.config.q * math.log2(report.m_omega) / big_n
        )

    def test_message_rate_within_the_codebook_budget(self):
        for seed in (1, 2, 3):
            report = run_protocol(
                NOISELESS, ONE_OF_ONE, config(k=1, seed=seed, trials=1)
            )
            budget = report.config.rv + report.seed_bits_per_symbol
            assert report.message_bits_per_symbol <= budget + 1e-12


class TestConfigInteractions:
    @pytest.fixture
    def no_codebook(self, monkeypatch):
        # the hash refusals come from hashing.seed_length, before any draw
        def refuse(*args):
            raise AssertionError("build_codebook ran before the hash refusal")
        monkeypatch.setattr(simulate, "build_codebook", refuse)

    def test_hashing_needs_power_of_two_bins(self, no_codebook):
        with pytest.raises(DomainError, match="power-of-two alphabet, got size 3"):
            run_protocol(PAIR, BOTH_NEEDED, config(l_quant=3, k=1, trials=1))

    def test_secret_cannot_outgrow_the_block(self, no_codebook):
        with pytest.raises(KTooLarge, match="cannot extract 5 bits from 4 input bits"):
            run_protocol(PAIR, BOTH_NEEDED, config(k=5, trials=1))

    def test_aux_mode_runs_end_to_end(self):
        report = run_protocol(
            PAIR, BOTH_NEEDED, config(rp_target=1.0, k=0, trials=2)
        )
        assert report.per_authorized[0].trials == 2


class TestReportText:
    def test_text_sections_present(self):
        report = run_protocol(PAIR, BOTH_NEEDED, config(trials=2))
        text = report.to_text()
        assert "protocol metrics" in text
        assert "authorized {1,2}:" in text
        assert "leakage mode: exact" in text
        assert "reconciliation bound:" in text
        assert "rate bound:" in text

    def test_unavailable_leakage_prints_no_values(self):
        report = run_protocol(
            PAIR, BOTH_NEEDED, config(exact_leakage=False, trials=1)
        )
        text = report.to_text()
        assert "leakage mode: unavailable" in text
        assert "uniformity gap" not in text
