"""Acceptance gate: one test per release criterion.

Each test prints a single verdict line of the form

    [ACCEPT] criterion N (<label>): PASS in 0.42s

(visible under ``pytest -s``, or in captured output on failure) so the gate
can be read at a glance.  Criteria with a runtime budget assert it; the
budget covers the whole test body including fixture construction.

The checks deliberately avoid the package's own arithmetic wherever an
independent route exists: closed forms are compared against grid searches,
determinant identities against numpy, exact leakage against a literal
enumerate-everything sweep with its own hash implementation, and the bound
evaluators against standalone transcriptions of the same formulas.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

from gauss_share.access_structure import (
    monotone_closure,
    threshold_extremal_chain,
    threshold_structure,
)
from gauss_share.capacity import (
    UNLIMITED,
    rate_region,
    saddle_check,
    secret_capacity,
    threshold_compare,
    verify_rate_formulas,
)
from gauss_share.protocol.bounds import (
    CoalitionBoundInput,
    ErrorBoundInputs,
    achievable_rate_bound,
    bound_inputs,
    error_bound,
)
from gauss_share.protocol.codebook import build_codebook, wz_encode
from gauss_share.protocol.model import build_quantized_source
from gauss_share.protocol.simulate import ProtocolConfig, run_protocol
from gauss_share.source_model import SourceSpec


@contextmanager
def verdict(number, label, budget=None):
    start = time.perf_counter()
    ok = False
    over = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        over = budget is not None and elapsed >= budget
        word = "PASS" if ok and not over else "FAIL"
        print(f"[ACCEPT] criterion {number} ({label}): {word} in {elapsed:.2f}s")
    if over:
        raise AssertionError(
            f"criterion {number} took {elapsed:.2f}s, budget is {budget}s"
        )


def close(a, b, tol):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# Shared instances.  FIVE is the five-participant regression source; PAIR and
# its two-of-two structure drive the protocol checks.
FIVE = SourceSpec.from_gains(2.0, [1.0, 0.85, 0.9, 0.95, 0.75])
PAIR = SourceSpec.from_gains(2.0, [1.0, 0.6])
BOTH_NEEDED = threshold_structure(2, 2)
NOISELESS = SourceSpec.from_gains(2.0, [1000.0])
ONE_OF_ONE = threshold_structure(1, 1)


def test_criterion_1_threshold_chain_values_and_dominance():
    with verdict(1, "threshold chain regression", budget=1.0):
        chain = threshold_extremal_chain(FIVE)
        assert round(chain[3].snr_authorized, 4) == 2.9975
        assert round(chain[3].snr_unauthorized, 4) == 2.7125
        assert round(chain[4].snr_authorized, 4) == 3.9975
        assert round(chain[4].snr_unauthorized, 4) == 3.4350

        (cmp45,) = [c for c in threshold_compare(FIVE, rp=1.0) if (c.t, c.i) == (4, 1)]
        assert cmp45.verdict == "at_most"
        assert cmp45.lhs is not None
        assert cmp45.cs_t <= cmp45.cs_t_plus_i + 1e-12

        # cross-check the ratio-test verdict by direct capacity evaluation
        grid = np.linspace(0.0, 10.0, 1000)
        low = rate_region(FIVE, threshold_structure(5, 4), grid)
        high = rate_region(FIVE, threshold_structure(5, 5), grid)
        for p4, p5 in zip(low, high):
            assert p4.cs <= p5.cs + 1e-12
        assert (secret_capacity(FIVE, threshold_structure(5, 4), UNLIMITED).cs
                <= secret_capacity(FIVE, threshold_structure(5, 5), UNLIMITED).cs + 1e-12)


def test_criterion_2_two_generator_region_shape():
    with verdict(2, "region endpoints and monotonicity", budget=1.0):
        spec = SourceSpec.from_gains(2.0, [0.5, 1.0, 0.8])
        gate = monotone_closure(3, [[1, 2], [2, 3]])

        assert secret_capacity(spec, gate, 0.0).cs == 0.0

        grid = np.linspace(0.0, 5.0, 500)
        cs = [p.cs for p in rate_region(spec, gate, grid)]
        assert all(b >= a for a, b in zip(cs, cs[1:]))

        # saturation value: weakest authorized {1,2} against strongest
        # excluded {2} gives (2*1.25+1)/(2*1.0+1)
        limit = 0.5 * math.log2(3.5 / 3.0)
        assert abs(secret_capacity(spec, gate, 30.0).cs - limit) < 1e-9


def test_criterion_3_grid_minimax_matches_closed_form():
    with verdict(3, "saddle-point oracle", budget=60.0):
        rng = np.random.default_rng(20260816)
        for trial in range(110):
            l = int(rng.integers(2, 6))
            gains = rng.uniform(0.1, 3.0, size=l)
            spec = SourceSpec.from_gains(2.0, gains)
            gens = []
            for _ in range(int(rng.integers(1, 4))):
                size = int(rng.integers(1, l + 1))
                members = rng.choice(np.arange(1, l + 1), size=size, replace=False)
                gens.append(sorted(int(p) for p in members))
            structure = monotone_closure(l, gens)
            rp = float(rng.uniform(0.0, 6.0)) if trial % 5 else UNLIMITED

            check = saddle_check(spec, structure, rp, grid_size=10_000)
            cs = secret_capacity(spec, structure, rp).cs
            assert abs(check.min_min_max - cs) <= 1e-4
            assert check.saddle_gap <= 1e-4


def test_criterion_4_determinant_identity_and_rate_formula_routes():
    with verdict(4, "determinant identity and dual rate routes", budget=10.0):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            q = int(rng.integers(1, 9))
            h = rng.normal(0.0, 2.0, size=q)
            var = float(rng.uniform(0.05, 5.0))
            lhs = float(np.linalg.det(np.eye(q) + var * np.outer(h, h)))
            rhs = 1.0 + var * float(h @ h)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
        # rectangular form of the same swap identity
        for _ in range(500):
            q = int(rng.integers(1, 9))
            r = int(rng.integers(1, 9))
            a = rng.normal(0.0, 1.5, size=(q, r))
            var = float(rng.uniform(0.05, 5.0))
            lhs = float(np.linalg.det(np.eye(q) + var * (a @ a.T)))
            rhs = float(np.linalg.det(np.eye(r) + var * (a.T @ a)))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

        for trial in range(100):
            l = int(rng.integers(2, 6))
            spec = SourceSpec.from_gains(2.0, rng.uniform(0.1, 3.0, size=l))
            if trial % 2:
                structure = threshold_structure(l, int(rng.integers(1, l + 1)))
            else:
                size = int(rng.integers(1, l + 1))
                members = rng.choice(np.arange(1, l + 1), size=size, replace=False)
                structure = monotone_closure(l, [sorted(int(p) for p in members)])
            s = float(rng.uniform(0.02, 1.0)) * spec.sigma2_x
            assert verify_rate_formulas(spec, structure, s).max_rel_err <= 1e-9


def test_criterion_5_lowest_threshold_dominates():
    with verdict(5, "threshold-one dominance"):
        rng = np.random.default_rng(5150)
        grid = np.linspace(0.0, 10.0, 50)
        for _ in range(100):
            l = int(rng.integers(2, 7))
            spec = SourceSpec.from_gains(2.0, rng.uniform(0.05, 4.0, size=l))
            base = rate_region(spec, threshold_structure(l, 1), grid)
            for t in range(2, l + 1):
                other = rate_region(spec, threshold_structure(l, t), grid)
                for p1, pt in zip(base, other):
                    assert p1.cs >= pt.cs - 1e-12
                assert (secret_capacity(spec, threshold_structure(l, 1), UNLIMITED).cs
                        >= secret_capacity(spec, threshold_structure(l, t), UNLIMITED).cs - 1e-12)


# --- criterion 6 support: a literal joint-distribution sweep ---------------
#
# The simulator's exact accounting marginalizes the hash seed analytically.
# The reference below does none of that: it enumerates every dealer string,
# every eavesdropper string, and every one of the 2^d seeds, hashing with its
# own bit-convolution, and accumulates the full (secret, messages,
# observations) joint in a dict.


def _ref_hash(seed_bits, v_bits, k):
    n_bits = len(v_bits)
    out = []
    for i in range(k):
        acc = 0
        for t in range(n_bits):
            acc += seed_bits[n_bits - 1 + i - t] * v_bits[t]
        out.append(acc % 2)
    return tuple(out)


def _ref_bits(symbols, n_v):
    width = n_v.bit_length() - 1
    return [
        (int(s) >> j) & 1 for s in symbols for j in range(width - 1, -1, -1)
    ]


def _ref_entropy(values):
    return -sum(p * math.log2(p) for p in values if p > 0.0)


def _sweep_leakage(spec, structure, cfg):
    """Exact leakage per unauthorized set by brute enumeration.

    Returns {subset: (leakage, message_leakage, secret_entropy)}.
    """
    model = build_quantized_source(spec, structure, cfg.l_quant, cfg.rp_target)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.trials + 1)
    codebook = build_codebook(
        model.joint_xv(), cfg.n, cfg.rv, cfg.rv_prime, children[0]
    )
    n, q, k = cfg.n, cfg.q, cfg.k
    big_n = n * q
    d = big_n * (model.n_v.bit_length() - 1) + k - 1
    seed_mass = 1.0 / 2.0**d

    encoded = {}
    for xs in itertools.product(range(model.n_x), repeat=big_n):
        omegas, v_concat = [], []
        for j in range(q):
            block = np.array(xs[j * n : (j + 1) * n], dtype=np.int64)
            omega, nu = wz_encode(codebook, block, cfg.epsilon)
            omegas.append(omega)
            v_concat.extend(int(sym) for sym in codebook.word(omega, nu))
        secrets = {}
        v_bits = _ref_bits(v_concat, model.n_v)
        for seed_id in range(2**d):
            seed_bits = [(seed_id >> (d - 1 - i)) & 1 for i in range(d)]
            s = _ref_hash(seed_bits, v_bits, k)
            secrets[s] = secrets.get(s, 0.0) + seed_mass
        encoded[xs] = (tuple(omegas), secrets)

    results = {}
    for u in structure.unauthorized:
        p_xy = model.joint_xy(u)
        n_y = p_xy.shape[1]
        joint = {}
        for xs, (m_vec, secrets) in encoded.items():
            for ys in itertools.product(range(n_y), repeat=big_n):
                p = 1.0
                for xi, yi in zip(xs, ys):
                    p *= p_xy[xi, yi]
                if p == 0.0:
                    continue
                for s, mass in secrets.items():
                    key = (s, m_vec, ys)
                    joint[key] = joint.get(key, 0.0) + p * mass
        my, sm, s_marg, m_marg = {}, {}, {}, {}
        for (s, m, y), p in joint.items():
            my[(m, y)] = my.get((m, y), 0.0) + p
            sm[(s, m)] = sm.get((s, m), 0.0) + p
            s_marg[s] = s_marg.get(s, 0.0) + p
            m_marg[m] = m_marg.get(m, 0.0) + p
        h_s = _ref_entropy(s_marg.values())
        leak = h_s + _ref_entropy(my.values()) - _ref_entropy(joint.values())
        msg = h_s + _ref_entropy(m_marg.values()) - _ref_entropy(sm.values())
        results[u] = (leak, msg, h_s)
    return results


def test_criterion_6_simulator_determinism_reliability_and_leakage():
    with verdict(6, "simulator properties", budget=300.0):
        gaps = []

        # (a) a fixed seed reproduces the report bit for bit
        cfg = ProtocolConfig(
            l_quant=2, n=2, q=2, epsilon=0.2, rv=1.0, rv_prime=1.0,
            k=2, seed=20, trials=5, exact_leakage=True,
        )
        first = run_protocol(PAIR, BOTH_NEEDED, cfg)
        second = run_protocol(PAIR, BOTH_NEEDED, cfg)
        assert first == second
        assert first.to_text() == second.to_text()
        gaps.append(first.uniformity_gap)

        # (b) on a near-noiseless source, longer blocks reconcile better:
        # mean secret error over 20 codebook seeds at n=6 is no worse than
        # at n=2, with the total symbol count held at N=12
        def mean_secret_error(n, q):
            rates = []
            for seed in range(20):
                c = ProtocolConfig(
                    l_quant=2, n=n, q=q, epsilon=0.2, rv=1.0, rv_prime=1.0,
                    k=3, seed=seed, trials=100,
                )
                report = run_protocol(NOISELESS, ONE_OF_ONE, c)
                rates.append(report.per_authorized[0].secret_error_rate)
            return sum(rates) / len(rates)

        assert mean_secret_error(6, 2) <= mean_secret_error(2, 6)

        # (c) exact leakage equals the literal enumerate-everything sweep, on
        # binary inputs and on one forced 4-letter (2 bits per symbol) input;
        # at seed 1430 the encoder's fallback codeword (label (1, 1)) is all
        # zero, so the secret is 0 with positive mass and uniform otherwise,
        # and the leakage differs between unauthorized sets
        swept = [
            ProtocolConfig(
                l_quant=2, n=2, q=2, epsilon=0.2, rv=1.0, rv_prime=1.0,
                k=2, seed=seed, trials=1, exact_leakage=True,
            )
            for seed in (11, 20)
        ]
        swept.append(ProtocolConfig(
            l_quant=4, n=4, q=1, epsilon=0.2, rv=0.5, rv_prime=0.5,
            k=1, seed=1430, trials=1, exact_leakage=True,
        ))
        for c in swept:
            report = run_protocol(PAIR, BOTH_NEEDED, c)
            assert report.leakage_mode == "exact"
            sweep = _sweep_leakage(PAIR, BOTH_NEEDED, c)
            for subset, value in report.leakage:
                assert abs(value - sweep[subset][0]) <= 1e-12
            any_u = next(iter(sweep))
            assert abs(report.message_leakage - sweep[any_u][1]) <= 1e-12
            assert abs(report.secret_entropy - sweep[any_u][2]) <= 1e-12
            assert abs(report.uniformity_gap - (c.k - sweep[any_u][2])) <= 1e-12
            gaps.append(report.uniformity_gap)

        # (d) the uniformity gap is never negative, and the single-bit
        # noiseless case lands exactly on a uniform secret
        for seed in range(11):
            c = ProtocolConfig(
                l_quant=2, n=2, q=1, epsilon=0.2, rv=1.0, rv_prime=1.0,
                k=1, seed=seed, trials=1,
            )
            report = run_protocol(NOISELESS, ONE_OF_ONE, c)
            assert report.leakage_mode == "exact"
            gaps.append(report.uniformity_gap)
            if seed == 0:
                assert report.uniformity_gap == 0.0
                assert report.secret_entropy == 1.0
        assert all(g >= 0.0 for g in gaps)


# --- criterion 7 support: standalone transcriptions of the bounds ----------


def _exp_or_inf(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _pow2_or_inf(x):
    try:
        return 2.0**x
    except OverflowError:
        return math.inf


def _ref_error_summands(n, eps, inputs):
    eps1 = eps / 2.0
    shrink = (eps - eps1) ** 2 / (1.0 + eps1)
    per = []
    for c in inputs.per_authorized:
        t1 = 2.0 * inputs.n_x * c.n_y * _exp_or_inf(-n * eps1**2 * c.mu_xy)
        t2 = _pow2_or_inf(-n * eps * inputs.entropy_v)
        inner = 1.0 - 2.0 * inputs.n_v * inputs.n_x * _exp_or_inf(
            -n * shrink * inputs.mu_vx
        )
        scale = _pow2_or_inf(eps * n * inputs.entropy_v)
        if math.isinf(scale):
            t3 = 0.0 if inner > 0 else (math.inf if inner < 0 else 1.0)
        else:
            t3 = _exp_or_inf(-inner * scale)
        t4 = 2.0 * inputs.n_v * inputs.n_x * c.n_y * _exp_or_inf(
            -n * shrink * c.mu_vxy
        )
        per.append((t1, t2, t3, t4))
    return per


def _ref_rate_bound(model, structure, n, q, eps):
    big_n = n * q
    min_mi_a = min(model.mi_v_y(a) for a in structure.authorized)
    max_mi_u = max(
        (model.mi_v_y(u) for u in structure.unauthorized), default=0.0
    )
    h_v = model.entropy_v()
    mu_xv = model.mu_xv()
    per = {}
    for u in structure.unauthorized:
        slack = 1.0 - 2.0 * model.support_vy(u) ** n * _exp_or_inf(
            -(eps**2) * q * model.mu_vy(u) ** n / 6.0
        )
        delta1 = -math.log2(slack) if slack > 0.0 else math.inf
        tail = math.log2(model.n_x) * (
            4.0 * model.n_v * model.n_x * _exp_or_inf(-n * eps**2 * mu_xv)
            + 2.0
            * model.n_v
            * model.n_x
            * model.n_y(u)
            * _exp_or_inf(-(eps**2) * n * model.mu_vxy(u) / 8.0)
        )
        delta2 = (
            eps * model.mi_x_v_given_y(u)
            + (1.0 - eps)
            * (2.0 * eps * model.entropy_x_given_yv(u) + 2.0 / n + tail)
            + delta1 / big_n
            + 6.0 * eps * h_v
            + big_n**-0.5
        )
        per[u] = (delta1, delta2)
    max_d2 = max((d2 for _, d2 in per.values()), default=0.0)
    rs_lower = min_mi_a - max_mi_u - max_d2 - big_n**-0.5 - 1.0 / big_n
    k_core = big_n * (min_mi_a - max_mi_u - max_d2) - math.sqrt(big_n)
    suggested_k = max(0, math.floor(k_core)) if math.isfinite(k_core) else 0
    rp_upper = (
        max(model.mi_x_v_given_y(a) for a in structure.authorized)
        + 6.0 * eps * h_v
    )
    return per, rs_lower, rp_upper, suggested_k


def test_criterion_7_bound_evaluators_match_references():
    with verdict(7, "bound evaluators", budget=1.0):
        trio_spec = SourceSpec.from_gains(1.5, [0.9, 0.5, 1.2])
        trio_gate = monotone_closure(3, [[1, 2], [3]])
        pair_model = build_quantized_source(PAIR, BOTH_NEEDED, 2)
        trio_model = build_quantized_source(trio_spec, trio_gate, 3)

        handmade = ErrorBoundInputs(
            n_v=4,
            n_x=4,
            entropy_v=1.7,
            mu_vx=0.04,
            per_authorized=(
                CoalitionBoundInput(subset=(1,), n_y=5, mu_xy=0.02, mu_vxy=0.008),
                CoalitionBoundInput(subset=(1, 3), n_y=25, mu_xy=0.011, mu_vxy=0.003),
            ),
        )
        error_sets = [
            (bound_inputs(pair_model, BOTH_NEEDED), (2, 0.2)),
            (bound_inputs(pair_model, BOTH_NEEDED), (50, 0.1)),
            (bound_inputs(pair_model, BOTH_NEEDED), (2000, 0.05)),
            (bound_inputs(pair_model, BOTH_NEEDED), (1, 0.9)),
            (bound_inputs(trio_model, trio_gate), (7, 0.6)),
            (bound_inputs(trio_model, trio_gate), (400, 0.35)),
            (bound_inputs(trio_model, trio_gate), (120, 0.3)),
            (bound_inputs(trio_model, trio_gate), (3, 0.5)),
            (handmade, (10, 0.25)),
            (handmade, (1000, 0.08)),
            (handmade, (64, 0.4)),
            (handmade, (5, 0.7)),
        ]
        for inputs, (n, eps) in error_sets:
            report = error_bound(n, eps, inputs)
            ref = _ref_error_summands(n, eps, inputs)
            assert len(report.per_authorized) == len(ref)
            deltas = []
            for term, ref_summands in zip(report.per_authorized, ref):
                for got, want in zip(term.summands, ref_summands):
                    assert close(got, want, 1e-12)
                assert close(term.delta, sum(ref_summands), 1e-12)
                deltas.append(sum(ref_summands))
            total = len(ref) * max(deltas)
            assert close(report.total, total, 1e-12)
            assert report.vacuous == (not total < 1.0)
            assert close(report.clamped, min(1.0, total), 1e-12)

        rate_sets = [
            (pair_model, BOTH_NEEDED, 2, 300_000, 0.2),
            (pair_model, BOTH_NEEDED, 4, 3, 0.3),
            (pair_model, BOTH_NEEDED, 10, 50, 0.15),
            (pair_model, BOTH_NEEDED, 2, 3, 0.45),
            (trio_model, trio_gate, 2, 300_000, 0.2),
            (trio_model, trio_gate, 4, 3, 0.3),
            (trio_model, trio_gate, 10, 50, 0.15),
            (trio_model, trio_gate, 2, 3, 0.45),
        ]
        for model, structure, n, q, eps in rate_sets:
            report = achievable_rate_bound(model, structure, n, q, eps)
            per, rs_lower, rp_upper, suggested_k = _ref_rate_bound(
                model, structure, n, q, eps
            )
            for term in report.per_unauthorized:
                d1, d2 = per[term.subset]
                assert close(term.delta1, d1, 1e-12)
                assert close(term.delta2, d2, 1e-12)
            assert close(report.rs_lower, rs_lower, 1e-12)
            assert close(report.rp_upper, rp_upper, 1e-12)
            assert report.suggested_k == suggested_k

        # asymptotic flag: the corrections vanish identically and the
        # single-letter quantities come back exactly
        for model, structure in ((pair_model, BOTH_NEEDED), (trio_model, trio_gate)):
            asym = achievable_rate_bound(model, structure, 3, 7, 0.3, asymptotic=True)
            min_mi_a = min(model.mi_v_y(a) for a in structure.authorized)
            max_mi_u = max(model.mi_v_y(u) for u in structure.unauthorized)
            assert asym.rs_lower == min_mi_a - max_mi_u
            assert asym.rp_upper == max(
                model.mi_x_v_given_y(a) for a in structure.authorized
            )
            for term in asym.per_unauthorized:
                assert term.delta1 == 0.0 and term.delta2 == 0.0
