"""Known defects of the scheme as the package ships it, one test each.

Each test compares a number the package reports today with an independent
computation written here, and is a strict xfail whose reason names the
ROADMAP item that mends it.  Only an AssertionError counts as the expected
failure, so a missing field or a crash fails the suite.  The change that
mends a defect turns its test into a strict XPASS; it then removes the
marker and keeps the test as a plain test.

Defects that cannot be checked cheaply yet:
- the seed-averaged leakage (item 3): a run has no single public seed until
  item 3(a) defines one, so its test belongs with item 3;
- the vacuous finite-N evaluators (item 8);
- item 5's gate: its collision-probability bound is vacuous on the
  reference sources.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, special

from gauss_share.access_structure import monotone_closure, threshold_structure
from gauss_share.protocol import codebook
from gauss_share.protocol.codebook import build_codebook, wz_encode
from gauss_share.protocol.model import build_quantized_source
from gauss_share.protocol.simulate import ProtocolConfig, run_protocol
from gauss_share.source_model import SourceSpec

from brute_force import compositions

# the README's source and access structure
README_SPEC = SourceSpec.from_gains(2.0, [0.5, 1.0, 0.8])
README_STRUCTURE = monotone_closure(3, [[1, 2], [2, 3]])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "constant key (ROADMAP items 1(c) and 3): every x-block encodes to one "
    "word, yet the report prints H(S) = k"))
@pytest.mark.parametrize("epsilon", [0.2, 0.5])
def test_constant_key_has_no_secret_entropy(epsilon):
    spec = SourceSpec.from_gains(2.0, [1.0, 0.6])
    structure = threshold_structure(2, 2)
    cfg = ProtocolConfig(l_quant=2, n=4, q=1, epsilon=epsilon, rv=0.5, rv_prime=0.25,
                         k=4, seed=3, trials=10, rp_target=1.0)
    # the dealer's codebook, drawn as run_protocol draws it
    model = build_quantized_source(spec, structure, cfg.l_quant, cfg.rp_target)
    book = build_codebook(model.joint_xv(), cfg.n, cfg.rv, cfg.rv_prime,
                          np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    words = set()
    for x_block in itertools.product(range(model.n_x), repeat=cfg.n):
        omega, nu = wz_encode(book, np.array(x_block), cfg.epsilon)
        words.add(tuple(int(s) for s in book.word(omega, nu)))
    if len(words) != 1:
        pytest.fail(f"the config no longer shows the defect: {len(words)} words")
    # with one word the secret is a function of the public seed T alone, so
    # H(S | T = t) = 0 at every seed t
    report = run_protocol(spec, structure, cfg)
    assert report.secret_entropy <= 1e-9


def _sign_information(sigma2_x, snr):
    """I(V; Z) in bits for V the sign of X ~ N(0, sigma2_x) and Z = X + W/sqrt(snr)
    with W ~ N(0, 1): 1 - E_z h2(P(V = 1 | z)), by quadrature over z."""
    if snr == 0.0:
        return 0.0
    noise = 1.0 / snr
    slope = sigma2_x / (sigma2_x + noise)  # E[X | z] = slope * z
    sd_x = math.sqrt(sigma2_x * noise / (sigma2_x + noise))  # of X given z
    sd_z = math.sqrt(sigma2_x + noise)

    def weighted_h2(z):
        p = float(special.ndtr(slope * z / sd_x))
        h2 = -sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0.0)
        return math.exp(-0.5 * (z / sd_z) ** 2) / (sd_z * math.sqrt(2.0 * math.pi)) * h2

    return 1.0 - integrate.quad(weighted_h2, -math.inf, math.inf)[0]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "quantized eavesdropper (ROADMAP item 4): the model reads Y_U in l_quant "
    "bins, so its rate 0.049 overstates the -0.072 against the continuous Y_U"))
def test_rate_holds_against_a_continuous_eavesdropper():
    spec, structure = README_SPEC, README_STRUCTURE
    model = build_quantized_source(spec, structure, 2)  # V = X: the sign of X
    weakest = min(model.mi_v_y(a) for a in structure.authorized)
    model_rate = weakest - max(model.mi_v_y(u) for u in structure.unauthorized)
    # Y_U tells about X only through its statistic sum g_i Y_i, whose SNR is
    # sum g_i^2
    continuous = {u: _sign_information(spec.sigma2_x, sum(spec.gains[i - 1] ** 2 for i in u))
                  for u in structure.unauthorized}
    # Y_U's bins are a function of Y_U, so they cannot tell more about V
    for u, bits in continuous.items():
        if model.mi_v_y(u) > bits + 1e-6:
            pytest.fail(f"the quadrature is off: {u} bins tell {model.mi_v_y(u)} > {bits}")
    assert model_rate <= weakest - max(continuous.values())


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "fallback-only block errors (ROADMAP items 1(c) and 6): no authorized pair "
    "law admits a typical count vector, so every block error measures the "
    "fallback, and no report field decoders_cannot_succeed names them"))
def test_report_flags_decoders_that_cannot_succeed():
    # the README's JSON config, whose report is tests/golden/simulate_3party_text.txt
    spec, structure = README_SPEC, README_STRUCTURE
    cfg = ProtocolConfig(l_quant=2, n=2, q=2, epsilon=0.2, rv=1.0, rv_prime=1.0,
                         k=2, seed=7, trials=200)
    model = build_quantized_source(spec, structure, cfg.l_quant, cfg.rp_target)
    for a in structure.authorized:
        pmf = model.joint_vy(a).ravel()
        counts = compositions(cfg.n, pmf.size)
        if (codebook._typical_from_counts(counts, pmf, cfg.n, cfg.epsilon).any()
                or codebook._admits_typical(pmf, cfg.n, cfg.epsilon)):
            pytest.fail(f"the config no longer shows the defect: {a} admits a typical vector")
    report = run_protocol(spec, structure, cfg)
    flagged = getattr(report, "decoders_cannot_succeed", None)
    assert flagged is not None and set(flagged) == set(structure.authorized)
