"""Every public entry point reads counts, reals, participant sets and
symbol, bit and sample arrays through the readers in gauss_share.errors: a
value of the wrong type is refused with the documented ValidationError
subclass, never coerced, and numpy integer and floating scalars give the
same results as Python numbers."""

import dataclasses
import inspect

import numpy as np
import pytest

import gauss_share
from gauss_share.access_structure import monotone_closure, threshold_structure
from gauss_share.capacity import (
    optimal_conditional_variance,
    public_rate,
    rate_region,
    saddle_check,
    secret_capacity,
    secret_rate,
    threshold_compare,
    verify_rate_formulas,
)
from gauss_share.errors import (
    DegenerateVariance,
    DomainError,
    GaussShareError,
    IndexOutOfRange,
    InvalidConfig,
    NonPositiveDefinite,
    ThresholdOutOfRange,
)
from gauss_share.protocol.codebook import (
    build_codebook,
    is_jointly_typical,
    is_letter_typical,
    wz_decode,
    wz_encode,
)
from gauss_share.protocol.hashing import privacy_amplify, seed_length, symbols_to_bits
from gauss_share.protocol.model import build_quantized_source, discretize_source, sample_source
from gauss_share.protocol.quantize import build_quantizer
from gauss_share.protocol.simulate import ProtocolConfig, run_protocol, wilson_interval
from gauss_share.source_model import (
    SourceSpec,
    derive_gain_vector,
    mutual_information,
    subset_snr,
)

SPEC = SourceSpec.from_gains(2.0, [1.0, 0.6])
BOTH = threshold_structure(2, 2)
ONE_OF_THREE = monotone_closure(3, [[1], [2], [3]])
UNIFORM = np.full((2, 2), 0.25)
SEED = np.random.SeedSequence(0)
BOOK = build_codebook(UNIFORM, 2, 0.5, 0.5, SEED)
MODEL = build_quantized_source(SPEC, BOTH, 2)
CONFIG = dict(l_quant=2, n=2, q=2, epsilon=0.2, rv=1.0, rv_prime=1.0, k=2, seed=7, trials=5)

# each kind of bad value, with the reader's message for it; the arrays are
# two symbols long, and every alphabet they meet below has two letters
COUNTS = ((True, np.True_, "1", 2.5), "must be an integer")
REALS = ((True, np.True_, "1"), "must be a number")
SYMBOLS = ((np.array([1.0, 0.0]), [1.7, 0.2], [True, False], ["1", "0"]),
           "symbols must be integers")
OUTSIDE = (([0, 2], [-1, 1], [3, 5]), "symbols must lie in 0..1")
SCALARS = ((1, np.int64(0), np.array(1)), "symbols must be an array")
SAMPLES = (([True, False], ["0.5", "-1"], [0.5, True]), "must be numbers")
NONFINITE = (([np.nan, 0.5], [0.5, np.inf], [-np.inf, 0.1]), "samples must be finite")
BOOLS_AMONG = (([0.5, True], [0.25, np.True_]), "got a bool among them")
NOT_MEMBERS = ((0, 3), "is not a set of participants 1..2")
LABELS = ((*COUNTS[0], np.array([1.0])), "must be integers")
RAGGED_SYMBOLS = (([[0, 1], [0]],), "symbols must be a regular array")
RAGGED_REALS = (([[1.0], [0.5, 0.2]],), "must be a regular array")

# (entry point and argument, kind of bad value, call with the bad value, error)
SLOTS = [
    ("build_codebook n", COUNTS, lambda v: build_codebook(UNIFORM, v, 0.5, 0.5, SEED),
     DomainError),
    ("build_codebook rv", REALS, lambda v: build_codebook(UNIFORM, 2, v, 0.5, SEED),
     DomainError),
    ("build_codebook rv_prime", REALS, lambda v: build_codebook(UNIFORM, 2, 0.5, v, SEED),
     DomainError),
    ("build_quantizer variance", REALS, lambda v: build_quantizer(v, 4), DegenerateVariance),
    ("build_quantizer n_bins", COUNTS, lambda v: build_quantizer(1.0, v), DomainError),
    ("build_quantized_source l_quant", COUNTS,
     lambda v: build_quantized_source(SPEC, BOTH, v), DomainError),
    ("build_quantized_source rp_target", REALS,
     lambda v: build_quantized_source(SPEC, BOTH, 2, v), DomainError),
    ("seed_length n_symbols", COUNTS, lambda v: seed_length(v, 2, 1), DomainError),
    ("seed_length alphabet_size", COUNTS, lambda v: seed_length(8, v, 3), DomainError),
    ("seed_length k", COUNTS, lambda v: seed_length(8, 2, v), DomainError),
    ("symbols_to_bits alphabet_size", COUNTS, lambda v: symbols_to_bits([0, 1], v),
     DomainError),
    ("privacy_amplify k", COUNTS,
     lambda v: privacy_amplify([0, 1, 1], np.zeros(4, np.uint8), v, 2), DomainError),
    ("threshold_structure t", COUNTS, lambda v: threshold_structure(3, v),
     ThresholdOutOfRange),
    ("saddle_check grid_size", COUNTS, lambda v: saddle_check(SPEC, BOTH, 1.0, v),
     DomainError),
    *[(f"ProtocolConfig {name}", REALS, lambda v, name=name: ProtocolConfig(
        **dict(CONFIG, **{name: v})), InvalidConfig)
      for name in ("epsilon", "rv", "rv_prime", "rp_target")],
    ("from_gains sigma2_x", REALS, lambda v: SourceSpec.from_gains(v, [1.0]), DomainError),
    ("secret_capacity rp", REALS, lambda v: secret_capacity(SPEC, BOTH, v), DomainError),
    ("saddle_check rp", REALS, lambda v: saddle_check(SPEC, BOTH, v, 100), DomainError),
    ("threshold_compare rp", REALS, lambda v: threshold_compare(SPEC, v), DomainError),
    ("optimal_conditional_variance rp", REALS,
     lambda v: optimal_conditional_variance(SPEC, 1.0, v), DomainError),
    ("optimal_conditional_variance snr", REALS,
     lambda v: optimal_conditional_variance(SPEC, v, 1.0), DomainError),
    ("public_rate sigma2_cond", REALS, lambda v: public_rate(v, 1.0, SPEC), DomainError),
    ("public_rate snr", REALS, lambda v: public_rate(1.0, v, SPEC), DomainError),
    ("secret_rate sigma2_cond", REALS, lambda v: secret_rate(v, 1.0, 0.5, SPEC),
     DomainError),
    ("secret_rate snr_authorized", REALS, lambda v: secret_rate(1.0, v, 0.5, SPEC),
     DomainError),
    ("secret_rate snr_unauthorized", REALS, lambda v: secret_rate(1.0, 1.0, v, SPEC),
     DomainError),
    ("verify_rate_formulas sigma2_cond", REALS,
     lambda v: verify_rate_formulas(SPEC, BOTH, v), DomainError),
    ("monotone_closure ids", COUNTS, lambda v: monotone_closure(3, [[v, 2]]),
     IndexOutOfRange),
    ("is_authorized ids", COUNTS, lambda v: ONE_OF_THREE.is_authorized([v]),
     IndexOutOfRange),
    ("derive_gain_vector ids", COUNTS, lambda v: derive_gain_vector(SPEC, [v]),
     IndexOutOfRange),
    ("subset_snr ids", COUNTS, lambda v: subset_snr(SPEC, [v, 2]), IndexOutOfRange),
    ("mutual_information ids", COUNTS, lambda v: mutual_information(SPEC, [v]),
     IndexOutOfRange),
    ("DiscreteSourceModel.joint ids", COUNTS, lambda v: MODEL.joint((v,)), DomainError),
    ("Codebook.word omega", LABELS, lambda v: BOOK.word(v, 1), IndexOutOfRange),
    ("wz_decode omega", COUNTS, lambda v: wz_decode(BOOK, [0, 1], v, 0.2, UNIFORM),
     IndexOutOfRange),
    ("wilson_interval successes", COUNTS, lambda v: wilson_interval(v, 4), DomainError),
    ("wilson_interval total", COUNTS, lambda v: wilson_interval(1, v), DomainError),
    ("is_letter_typical seq", SYMBOLS, lambda v: is_letter_typical(v, [0.5, 0.5], 0.2),
     DomainError),
    ("is_jointly_typical seq_a", SYMBOLS,
     lambda v: is_jointly_typical(v, [0, 1], UNIFORM, 0.2), DomainError),
    ("is_jointly_typical seq_b", SYMBOLS,
     lambda v: is_jointly_typical([0, 1], v, UNIFORM, 0.2), DomainError),
    ("wz_encode x_seq", SYMBOLS, lambda v: wz_encode(BOOK, v, 0.2), DomainError),
    ("wz_decode y_seq", SYMBOLS, lambda v: wz_decode(BOOK, v, 1, 0.2, UNIFORM), DomainError),
    ("symbols_to_bits v_seq", SYMBOLS, lambda v: symbols_to_bits(v, 2), DomainError),
    ("symbols_to_bits v_seq", OUTSIDE, lambda v: symbols_to_bits(v, 2), DomainError),
    ("privacy_amplify v_seq", SYMBOLS,
     lambda v: privacy_amplify(v, np.zeros(2, np.uint8), 1, 2), DomainError),
    ("privacy_amplify v_seq", OUTSIDE,
     lambda v: privacy_amplify(v, np.zeros(2, np.uint8), 1, 2), DomainError),
    ("privacy_amplify seed_bits", SYMBOLS, lambda v: privacy_amplify([0, 1], v, 1, 2),
     DomainError),
    ("privacy_amplify seed_bits", OUTSIDE, lambda v: privacy_amplify([0, 1], v, 1, 2),
     DomainError),
    ("is_letter_typical seq", SCALARS, lambda v: is_letter_typical(v, [0.5, 0.5], 0.2),
     DomainError),
    ("is_jointly_typical seq_a", SCALARS,
     lambda v: is_jointly_typical(v, [0, 1], UNIFORM, 0.2), DomainError),
    ("is_jointly_typical seq_b", SCALARS,
     lambda v: is_jointly_typical([0, 1], v, UNIFORM, 0.2), DomainError),
    ("wz_encode x_seq", SCALARS, lambda v: wz_encode(BOOK, v, 0.2), DomainError),
    ("wz_decode y_seq", SCALARS, lambda v: wz_decode(BOOK, v, 1, 0.2, UNIFORM), DomainError),
    ("symbols_to_bits v_seq", SCALARS, lambda v: symbols_to_bits(v, 2), DomainError),
    ("privacy_amplify v_seq", SCALARS,
     lambda v: privacy_amplify(v, np.zeros(2, np.uint8), 1, 2), DomainError),
    ("privacy_amplify v_seq at k=0", SCALARS, lambda v: privacy_amplify(v, [], 0, 2),
     DomainError),
    ("privacy_amplify seed_bits", SCALARS, lambda v: privacy_amplify([0, 1], v, 1, 2),
     DomainError),
    ("DiscreteSourceModel.observations y_bins", SCALARS,
     lambda v: MODEL.observations(v, (1, 2)), DomainError),
    ("DiscreteSourceModel.observations y_bins", SYMBOLS,
     lambda v: MODEL.observations([v], (1, 2)), DomainError),
    ("DiscreteSourceModel.observations y_bins", OUTSIDE,
     lambda v: MODEL.observations([v], (1, 2)), DomainError),
    ("DiscreteSourceModel.observations ids", COUNTS,
     lambda v: MODEL.observations([[0, 1]], (v,)), DomainError),
    ("DiscreteSourceModel.observations ids", NOT_MEMBERS,
     lambda v: MODEL.observations([[0, 1]], (v,)), DomainError),
    ("Quantizer.indices x", SAMPLES, lambda v: MODEL.x_quantizer.indices(v), DomainError),
    ("discretize_source x", SAMPLES,
     lambda v: discretize_source(MODEL.x_quantizer, MODEL.y_quantizers, v, [[0.1, 0.2]] * 2),
     DomainError),
    ("discretize_source y", SAMPLES,
     lambda v: discretize_source(MODEL.x_quantizer, MODEL.y_quantizers, [0.1], [v]),
     DomainError),
    ("Quantizer.indices x", NONFINITE, lambda v: MODEL.x_quantizer.indices(v), DomainError),
    ("discretize_source x", NONFINITE,
     lambda v: discretize_source(MODEL.x_quantizer, MODEL.y_quantizers, v, [[0.1, 0.2]] * 2),
     DomainError),
    ("discretize_source y", NONFINITE,
     lambda v: discretize_source(MODEL.x_quantizer, MODEL.y_quantizers, [0.1], [v]),
     DomainError),
    ("sample_source size", COUNTS,
     lambda v: sample_source(SPEC, np.random.default_rng(0), v), DomainError),
    ("from_gains gains", BOOLS_AMONG, lambda v: SourceSpec.from_gains(2.0, v), DomainError),
    ("rate_region rp_grid", BOOLS_AMONG, lambda v: rate_region(SPEC, BOTH, v), DomainError),
    ("privacy_amplify v_seq", RAGGED_SYMBOLS, lambda v: privacy_amplify(v, [0, 1], 1, 2),
     DomainError),
    ("symbols_to_bits v_seq", RAGGED_SYMBOLS, lambda v: symbols_to_bits(v, 2), DomainError),
    ("is_letter_typical seq", RAGGED_SYMBOLS, lambda v: is_letter_typical(v, [0.5, 0.5], 0.1),
     DomainError),
    ("from_gains gains", RAGGED_REALS, lambda v: SourceSpec.from_gains(2.0, v), DomainError),
    ("discretize_source x", RAGGED_REALS,
     lambda v: discretize_source(MODEL.x_quantizer, MODEL.y_quantizers, v, [[0.1, 0.2]] * 2),
     DomainError),
]

# arrays are refused by their dtype, so each bad value is a whole array
ARRAYS = [
    ("from_gains gains", lambda g: SourceSpec.from_gains(2.0, g),
     [[True, True], np.array([np.True_]), ["1", "0.6"]], DomainError),
    ("from_covariance matrix", SourceSpec.from_covariance,
     [np.eye(2, dtype=bool), [["2", "1"], ["1", "2"]], [[2.0, True], [np.True_, 2.0]]],
     NonPositiveDefinite),
    ("rate_region rp_grid", lambda g: rate_region(SPEC, BOTH, g),
     [[True], ["0.5", "1"]], DomainError),
    ("build_codebook joint_xv", lambda j: build_codebook(j, 2, 0.5, 0.5, SEED),
     [np.eye(2, dtype=bool), [["0.5", "0"], ["0", "0.5"]]], DomainError),
    ("wz_decode joint_vy", lambda j: wz_decode(BOOK, [0, 1], 1, 0.2, j),
     [np.eye(2, dtype=bool)], DomainError),
]

REFUSALS = [
    pytest.param(call, value, error, message, id=f"{name}={value!r}")
    for name, (values, message), call, error in SLOTS
    for value in values
] + [
    pytest.param(call, value, error, "must be numbers", id=f"{name}={value!r}")
    for name, call, bad, error in ARRAYS
    for value in bad
] + [
    pytest.param(lambda v: wilson_interval(*v), (3, 2), DomainError, "outside",
                 id="wilson_interval more successes than trials"),
    pytest.param(lambda v: wilson_interval(*v), (-1, 4), DomainError, "outside",
                 id="wilson_interval negative successes"),
    pytest.param(lambda v: ONE_OF_THREE.is_authorized(v), 3, IndexOutOfRange,
                 "must be a set", id="is_authorized of a bare id"),
    pytest.param(SourceSpec.from_covariance, [[2.0, 1.0], [1.0]], NonPositiveDefinite,
                 "covariance must be a square matrix", id="from_covariance ragged rows"),
    pytest.param(lambda v: sample_source(SPEC, np.random.default_rng(0), v), -1, DomainError,
                 "size must be nonnegative", id="sample_source negative size"),
    *[pytest.param(lambda v: discretize_source(MODEL.x_quantizer, MODEL.y_quantizers, *v),
                   v, DomainError, "one sample per row of y",
                   id=f"discretize_source x {np.shape(v[0])} against y {np.shape(v[1])}")
      for v in [(np.zeros(5), np.zeros((3, 2))), (np.zeros((3, 2)), np.zeros((3, 2))),
                (0.5, np.zeros((1, 2))), (np.zeros(1), np.zeros((0, 2)))]],
]


@pytest.mark.parametrize("call, value, error, message", REFUSALS)
def test_library_refuses_coercible_input(call, value, error, message):
    with pytest.raises(error, match=message):
        call(value)


def _numpy(value):
    """value with its Python ints and floats made numpy scalars."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return np.int64(value)
    if isinstance(value, float):
        return np.float64(value)
    if isinstance(value, (list, tuple)):
        return type(value)(map(_numpy, value))
    return value


def _same(a, b) -> bool:
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a) if f.compare
        )
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


NUMPY_CASES = [
    (build_codebook, (UNIFORM, 2, 0.5, 1.0, SEED)),
    (build_quantizer, (2.0, 4)),
    (build_quantized_source, (SPEC, BOTH, 2, 1.0)),
    (seed_length, (8, 4, 3)),
    (symbols_to_bits, ([0, 3, 1], 4)),
    (privacy_amplify, ([0, 3, 1], np.ones(8, np.uint8), 3, 4)),
    (threshold_structure, (3, 2)),
    (monotone_closure, (3, [[1, 2], [3]])),
    (ONE_OF_THREE.is_authorized, ([2, 3],)),
    (SourceSpec.from_gains, (2.0, [1.0, 0.6])),
    (SourceSpec.from_covariance, ([[2.0, 1.0], [1.0, 2.0]],)),
    (derive_gain_vector, (SPEC, [2])),
    (subset_snr, (SPEC, [1, 2])),
    (mutual_information, (SPEC, [1])),
    (secret_capacity, (SPEC, BOTH, 1.5)),
    (rate_region, (SPEC, BOTH, [0.5, 1.0, 2])),
    (saddle_check, (SPEC, BOTH, 1.0, 100)),
    (threshold_compare, (SPEC, 1.0)),
    (optimal_conditional_variance, (SPEC, 1.0, 0.5)),
    (public_rate, (1.0, 0.5, SPEC)),
    (secret_rate, (1.0, 1.36, 1.0, SPEC)),
    (verify_rate_formulas, (SPEC, BOTH, 1.0)),
    (MODEL.joint, ((1, 2),)),
    (BOOK.word, (2, 1)),
    (wz_decode, (BOOK, [0, 1], 2, 0.2, UNIFORM)),
    (wilson_interval, (3, 10)),
]


@pytest.mark.parametrize("call, args", NUMPY_CASES,
                         ids=[call.__qualname__ for call, _ in NUMPY_CASES])
def test_numpy_scalars_read_as_python_numbers(call, args):
    assert _same(call(*map(_numpy, args)), call(*args))


def test_numpy_config_fields_give_the_same_report():
    numpy_fields = {name: _numpy(value) for name, value in CONFIG.items()}
    want = run_protocol(SPEC, BOTH, ProtocolConfig(**CONFIG))
    assert run_protocol(SPEC, BOTH, ProtocolConfig(**numpy_fields)) == want


def test_narrow_integer_symbols_read_as_int64():
    """int8, uint8 and int32 symbols give the int64 results bit for bit.  The
    encoder and decoder index a pair letter as symbol * 20 + word letter, and
    a symbol of 13 or more times 20 passes the uint8 and int8 ranges, so
    symbols kept in their own dtype would wrap there (NEP 50 keeps a narrow
    array's dtype against a Python int)."""
    diagonal = np.eye(20) / 20  # at epsilon 10 only the block itself is typical
    book = build_codebook(diagonal, 2, 2.0, 2.0, SEED)
    flat = book.words.reshape(-1, 2)
    label = int(np.flatnonzero(flat.min(axis=1) >= 13)[0])
    block = flat[label]
    omega = label // book.m_nu + 1
    v = np.array([[19, 0, 13], [7, 31, 2]])
    seeds = np.random.default_rng(1).integers(0, 2, (2, seed_length(3, 32, 4)))
    calls = [
        lambda s: wz_encode(book, s(block), 10.0),
        lambda s: wz_decode(book, s(block), omega, 10.0, diagonal),
        lambda s: symbols_to_bits(s(v), 32),
        lambda s: privacy_amplify(s(v), s(seeds), 4, 32),
    ]
    assert wz_encode(book, block, 10.0) == (omega, label % book.m_nu + 1)
    for call in calls:
        want = call(lambda a: a.astype(np.int64))
        for dtype in (np.int8, np.uint8, np.int32):
            assert _same(call(lambda a: a.astype(dtype)), want), dtype


# public callables no refusal row reaches, each with the reason it needs none
EXEMPT = {
    **dict.fromkeys(
        ["AchievableRateBound", "CoalitionBoundInput", "CoalitionErrorBound",
         "ErrorBoundInputs", "ReconciliationErrorBound", "UnauthorizedRateTerm",
         "achievable_rate_bound", "bound_inputs", "codebook_rates", "error_bound"],
        "protocol/bounds.py, which ROADMAP item 8 deletes"),
    "hash_matrix_for_input": "the full-rank hash helper, which ROADMAP item 3 deletes",
    **dict.fromkeys(
        ["extremal_sets", "threshold_extremal_chain", "run_protocol", "is_unlimited"],
        "no arguments to read: it takes library objects (a ProtocolConfig's fields "
        "have rows above), or any value (is_unlimited)"),
    **dict.fromkeys(
        ["CapacityPoint", "RateRegion", "SaddleCheck", "ThresholdComparison",
         "ExtremalSets", "SubsetGain", "UnlimitedRate", "ErrorStats", "MetricsReport"],
        "no arguments to read: a result record the library builds and returns"),
}


def test_every_public_callable_is_covered_or_exempt():
    """A new public entry point needs refusal rows, or an exemption with its
    reason, before the suite passes.  A class counts as covered when a row
    calls one of its methods (Codebook.word, SourceSpec.from_gains)."""
    words = {name.split()[0] for name, *_ in SLOTS + ARRAYS}
    covered = {word.split(".")[0] for word in words}
    unclassified = []
    for module in (gauss_share, gauss_share.protocol):
        for name in module.__all__:
            public = getattr(module, name)
            if not callable(public) or name in EXEMPT or name in covered:
                continue
            if inspect.isclass(public) and (
                issubclass(public, GaussShareError)  # the refusals themselves
                or words & set(vars(public))
            ):
                continue
            unclassified.append(f"{module.__name__}.{name}")
    assert not unclassified
    assert not set(EXEMPT) & covered
