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

import numpy as np
import pytest

from gauss_share.access_structure import threshold_structure
from gauss_share.protocol.codebook import build_codebook, wz_encode
from gauss_share.protocol.model import build_quantized_source
from gauss_share.protocol.simulate import ProtocolConfig, run_protocol
from gauss_share.source_model import SourceSpec


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
