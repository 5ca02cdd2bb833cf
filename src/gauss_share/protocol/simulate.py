"""Monte Carlo driver for the quantize / reconcile / hash pipeline.

Trials run in chunks.  Each trial of a chunk draws, from its own generator
and in this order, N = n*q continuous source symbols and a fresh public
Toeplitz seed; the chunk's samples are then quantized together, and every
block of the chunk goes through one batched codebook encoder call (the
dealer keeps the selected codewords as its secret material) and, per
authorized coalition, one batched decoder call.  A secret is a symbol string
hashed down to k bits with the trial's seed.  The error pattern, a
coalition's string XOR the dealer's, is what gets hashed, and only in the
trials where one of its blocks failed, all in one batched call of the
package's one hash, `hashing.privacy_amplify`: symbol XOR is bit XOR for a
power-of-two alphabet and the hash is linear over GF(2), so the two secrets
differ exactly when the pattern hashes to nonzero.  Reported per coalition:
how often the secrets disagree and how often individual blocks fail
reconciliation.  The report does not depend on the chunk size.

Security accounting is exact or absent, never sampled: for small instances
the joint law of (secret, public messages, unauthorized observations) is
enumerated in closed form, as q independent repetitions of the one
per-block law at the drawn codebook, with the seed averaged out by the
full-rank rule of the Toeplitz hash; larger instances report leakage as
unavailable, never estimated.  That rule leaves two distinct secret rows in
the joint law, so the enumeration forms its entropies from those two alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..access_structure import AccessStructure, _fmt_subset
from ..errors import BudgetExceeded, DomainError, InvalidConfig, NumericError
from ..errors import _check_count, _check_real
from ..source_model import SourceSpec
from . import hashing, info
from .bounds import (
    AchievableRateBound,
    ReconciliationErrorBound,
    achievable_rate_bound,
    bound_inputs,
    error_bound,
)
from .codebook import Codebook, _decode_blocks, _encode_blocks, build_codebook
from .model import (
    DiscreteSourceModel,
    build_quantized_source,
    discretize_source,
    sample_source,
)

__all__ = [
    "ErrorStats",
    "MetricsReport",
    "ProtocolConfig",
    "run_protocol",
    "wilson_interval",
]

# cells of the (2^k, messages, observations) law, 2^k * l^(N(1+|U|)): the
# table is never built, but its p log p terms are, and the per-block law and
# its q-fold product are no larger, so this bounds every float64 array the
# enumeration builds; _leakage_is_exact holds the encoder's tests to it too
_EXACT_TABLE_BUDGET = 20_000_000
# float64 source samples of one trial, n*q*(1+L); also the samples of one
# chunk of trials (at least one trial)
_SAMPLE_BUDGET = 20_000_000
_Z95 = 1.959963984540054  # standard normal quantile of a two-sided 95% interval


@dataclass(frozen=True)
class ProtocolConfig:
    """Knobs of one protocol run; validated on construction."""

    l_quant: int
    n: int
    q: int
    epsilon: float
    rv: float
    rv_prime: float
    k: int
    seed: int
    trials: int
    rp_target: float | None = None
    exact_leakage: bool | None = None

    def __post_init__(self):
        for name in ("l_quant", "n", "q", "k", "seed", "trials"):
            _check_count(getattr(self, name), name, InvalidConfig)
        for name in ("epsilon", "rv", "rv_prime"):
            _check_real(getattr(self, name), name, InvalidConfig)
        if not isinstance(self.exact_leakage, (bool, type(None))):
            raise InvalidConfig("exact_leakage must be None, True or False")
        checks = [
            (self.l_quant >= 2, "l_quant must be at least 2"),
            (self.n >= 1, "n must be at least 1"),
            (self.q >= 1, "q must be at least 1"),
            (0.0 < self.epsilon < 1.0, "epsilon must lie in (0, 1)"),
            (self.rv >= 0.0, "rv must be nonnegative"),
            (self.rv_prime >= 0.0, "rv_prime must be nonnegative"),
            (self.k >= 0, "k must be nonnegative"),
            (0 <= self.seed < 2**64, "seed must fit in 64 bits"),
            (self.trials >= 1, "trials must be at least 1"),
        ]
        for ok, msg in checks:
            if not ok:
                raise InvalidConfig(msg)
        if self.rp_target is not None:
            rp_target = _check_real(self.rp_target, "rp_target", InvalidConfig)
            if not (rp_target > 0.0) or math.isinf(rp_target):
                raise InvalidConfig("rp_target must be a positive finite rate or None")

    @property
    def total_symbols(self) -> int:
        return self.n * self.q


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion; DomainError
    unless 0 <= successes <= total."""
    successes = _check_count(successes, "successes", DomainError)
    total = _check_count(total, "total", DomainError)
    if not 0 <= successes <= total:
        raise DomainError(f"successes {successes} outside 0..{total}")
    if total == 0:
        return 0.0, 1.0
    p = successes / total
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / total
    center = (p + z2 / (2.0 * total)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total)) / denom
    # the analytic endpoints at the extremes are exactly 0 and 1; rounding in
    # center - half would otherwise leave a stray ulp there
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == total else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class ErrorStats:
    """Per-coalition reconciliation and secret agreement counts."""

    subset: tuple[int, ...]
    trials: int
    blocks: int
    secret_errors: int
    block_errors: int
    trial_block_errors: int  # trials where at least one block failed

    @property
    def secret_error_rate(self) -> float:
        return self.secret_errors / self.trials

    @property
    def block_error_rate(self) -> float:
        return self.block_errors / self.blocks

    @property
    def trial_block_error_rate(self) -> float:
        return self.trial_block_errors / self.trials

    @property
    def secret_ci(self) -> tuple[float, float]:
        return wilson_interval(self.secret_errors, self.trials)

    @property
    def block_ci(self) -> tuple[float, float]:
        return wilson_interval(self.block_errors, self.blocks)


@dataclass(frozen=True)
class MetricsReport:
    config: ProtocolConfig
    m_omega: int
    m_nu: int
    per_authorized: tuple[ErrorStats, ...]
    leakage_mode: str  # "exact" or "unavailable"
    leakage: tuple[tuple[tuple[int, ...], float], ...] | None
    message_leakage: float | None  # I(S; M), bits
    secret_entropy: float | None  # H(S), bits
    uniformity_gap: float | None  # k - H(S), bits
    message_bits_per_symbol: float
    seed_bits_per_symbol: float
    public_rate_used: float
    reconciliation_bound: ReconciliationErrorBound
    rate_bound: AchievableRateBound

    @property
    def max_leakage(self) -> float | None:
        if self.leakage is None:
            return None
        return max(v for _, v in self.leakage)

    def to_text(self) -> str:
        cfg = self.config
        lines = [
            "protocol metrics",
            (
                f"  blocks: n={cfg.n} q={cfg.q} (N={cfg.total_symbols}), "
                f"bins={cfg.l_quant}, epsilon={cfg.epsilon}, seed={cfg.seed}, "
                f"trials={cfg.trials}"
            ),
            (
                f"  codebook: {self.m_omega} x {self.m_nu} labels "
                f"(rv={cfg.rv}, rv_prime={cfg.rv_prime})"
            ),
            (
                f"  public rate: message {self.message_bits_per_symbol:.6f} "
                f"+ hash seed {self.seed_bits_per_symbol:.6f} "
                f"= {self.public_rate_used:.6f} bits/symbol"
            ),
        ]
        for st in self.per_authorized:
            lo, hi = st.secret_ci
            blo, bhi = st.block_ci
            lines.append(
                f"  authorized {_fmt_subset(st.subset)}: "
                f"secret errors {st.secret_errors}/{st.trials} "
                f"({st.secret_error_rate:.4f}, 95% CI {lo:.4f}..{hi:.4f}); "
                f"block errors {st.block_errors}/{st.blocks} "
                f"({st.block_error_rate:.4f}, 95% CI {blo:.4f}..{bhi:.4f})"
            )
        lines.append(f"  leakage mode: {self.leakage_mode}")
        if self.leakage is not None:
            for subset, value in self.leakage:
                lines.append(
                    f"  unauthorized {_fmt_subset(subset)}: leakage {value:.12f} bits"
                )
            lines.append(f"  message leakage I(S;M): {self.message_leakage:.12f} bits")
            lines.append(f"  secret entropy: {self.secret_entropy:.12f} bits")
            lines.append(f"  uniformity gap: {self.uniformity_gap:.12f} bits")
        bound = self.reconciliation_bound
        lines.append(
            f"  reconciliation bound: {bound.total:.6g}"
            + (" (vacuous)" if bound.vacuous else "")
        )
        lines.append(
            f"  rate bound: rs_lower={self.rate_bound.rs_lower:.6g}, "
            f"rp_upper={self.rate_bound.rp_upper:.6g}"
            + (" (vacuous)" if self.rate_bound.vacuous else "")
        )
        return "\n".join(lines)


def run_protocol(
    spec: SourceSpec,
    structure: AccessStructure,
    config: ProtocolConfig,
) -> MetricsReport:
    """Execute the protocol and collect the metrics report.

    Reproducible: the report is a pure function of (spec, structure, config).
    Every chunk of trials is one pass: the dealer's blocks and hash seeds,
    then one batched decode per authorized coalition, whose errors add to
    that coalition's tally.  Raises BudgetExceeded, before the codebook is
    drawn, when exact_leakage=True on an instance too large to enumerate,
    or, before any work, when a trial would sample more than _SAMPLE_BUDGET
    values; and, from hashing.seed_length before the codebook is drawn,
    DomainError for a k > 0 secret over a non-power-of-two auxiliary
    alphabet and KTooLarge for k above the N log2|V| input bits.
    """
    if config.total_symbols * (1 + spec.l) > _SAMPLE_BUDGET:
        raise BudgetExceeded(f"n*q = {config.total_symbols} symbols of {1 + spec.l} values "
                             f"each exceed the sample budget of {_SAMPLE_BUDGET}")
    model = build_quantized_source(spec, structure, config.l_quant, config.rp_target)
    n, q, k = config.n, config.q, config.k
    big_n = config.total_symbols
    n_v = model.n_v
    # refuses a non-power-of-two alphabet and k > N log2|V| before any draw
    d = hashing.seed_length(big_n, n_v, k)
    exact = _leakage_is_exact(structure, config)

    # child i of SeedSequence(seed).spawn(), made only when it is used:
    # child 0 draws the codebook, child 1 + t drives trial t
    codebook = build_codebook(
        model.joint_xv(), n, config.rv, config.rv_prime,
        np.random.SeedSequence(config.seed, spawn_key=(0,)),
    )
    authorized = structure.authorized
    joint_vy = {a: model.joint_vy(a) for a in authorized}
    # one row per authorized coalition, added to in place through the row views:
    # secret errors, block errors, trials with a block error
    tally = np.zeros((len(authorized), 3), dtype=np.int64)

    chunk = max(1, _SAMPLE_BUDGET // (big_n * (1 + spec.l)))
    for start in range(0, config.trials, chunk):
        trials = range(start, min(start + chunk, config.trials))
        x, y, seeds = [], [], []
        for t in trials:
            rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1 + t,)))
            x_t, y_t = sample_source(spec, rng, big_n)
            x.append(x_t)
            y.append(y_t)
            seeds.append(rng.integers(0, 2, size=d, dtype=np.uint8))
        x_bins, y_bins = discretize_source(
            model.x_quantizer, model.y_quantizers, np.concatenate(x), np.concatenate(y)
        )
        seeds = np.stack(seeds)
        omegas, nus = _encode_blocks(codebook, x_bins.reshape(-1, n), config.epsilon)
        v = codebook.word(omegas, nus)  # (trials * q, n)

        for row, a in zip(tally, authorized):
            y_a = model.observations(y_bins, a).reshape(-1, n)
            nus_a = _decode_blocks(codebook, y_a, omegas, config.epsilon, joint_vy[a])
            v_hat = codebook.word(omegas, nus_a)
            mismatches = (v_hat != v).any(axis=1).reshape(len(trials), q).sum(axis=1)
            failed = mismatches > 0
            secret_errors = 0
            if k > 0 and failed.any():
                patterns = (v_hat ^ v).reshape(len(trials), big_n)[failed]
                hashes = hashing.privacy_amplify(patterns, seeds[failed], k, n_v)
                secret_errors = hashes.any(axis=1).sum()
            row += (secret_errors, mismatches.sum(), failed.sum())

    per_authorized = tuple(
        ErrorStats(
            subset=a,
            trials=config.trials,
            blocks=config.trials * q,
            secret_errors=int(secret_errors),
            block_errors=int(block_errors),
            trial_block_errors=int(trial_block_errors),
        )
        for a, (secret_errors, block_errors, trial_block_errors) in zip(authorized, tally)
    )

    leakage_mode, leakage, msg_leak, h_s, gap = _leakage_section(
        model, structure, codebook, config, exact
    )

    m_bits = q * math.log2(codebook.m_omega) / big_n
    seed_rate = d / big_n
    return MetricsReport(
        config=config,
        m_omega=codebook.m_omega,
        m_nu=codebook.m_nu,
        per_authorized=per_authorized,
        leakage_mode=leakage_mode,
        leakage=leakage,
        message_leakage=msg_leak,
        secret_entropy=h_s,
        uniformity_gap=gap,
        message_bits_per_symbol=m_bits,
        seed_bits_per_symbol=seed_rate,
        public_rate_used=m_bits + seed_rate,
        reconciliation_bound=error_bound(n, config.epsilon, bound_inputs(model, structure)),
        rate_bound=achievable_rate_bound(model, structure, n, q, config.epsilon),
    )


# ---------------------------------------------------------------------------
# exact leakage enumeration
# ---------------------------------------------------------------------------


def _leakage_is_exact(structure: AccessStructure, config: ProtocolConfig) -> bool:
    """Decide the leakage mode before any trial: True for exact, always so
    when k = 0, which leaks nothing.  Raises BudgetExceeded when
    exact_leakage=True forces an enumeration past the budget."""
    if config.k == 0:
        return True
    if config.exact_leakage is False:
        return False
    u_max = max((len(u) for u in structure.unauthorized), default=0)
    l = config.l_quant
    table = (2 ** min(config.k, 60)) * (l ** (config.total_symbols * (1 + u_max)))
    # _block_law tests each of the l^n x-blocks against at most l^n distinct
    # words; only when no nonempty coalition is unauthorized can that pass
    # the table's cells
    budget_ok = max(table, l ** (2 * config.n)) <= _EXACT_TABLE_BUDGET
    if config.exact_leakage is None:
        # l == 2 also makes V binary: both auxiliary modes quantize V into l bins
        return config.total_symbols <= 8 and l == 2 and budget_ok
    if not budget_ok:
        raise BudgetExceeded(
            "exact leakage enumeration exceeds the state budget for this instance"
        )
    return True


def _leakage_section(
    model: DiscreteSourceModel,
    structure: AccessStructure,
    codebook: Codebook,
    config: ProtocolConfig,
    exact: bool,
):
    """The report's leakage fields; when exact and k > 0, the enumerated law."""
    if not exact:
        return "unavailable", None, None, None, None
    if config.k == 0:
        zero = tuple((u, 0.0) for u in structure.unauthorized)
        return "exact", zero, 0.0, 0.0, 0.0

    leak, msg_leak, h_s = _exact_leakage(model, structure, codebook, config)
    gap = config.k - h_s
    if gap < -1e-9:
        raise NumericError(f"uniformity gap {gap} fell below zero")
    return "exact", leak, msg_leak, h_s, max(0.0, gap)


def _stacked_entropy(first, uniform, copies: int) -> float:
    """info.entropy of the stack [first, uniform x copies], bit for bit.

    p log p is taken once per cell of `first` and of `uniform` and written
    into one array in the stack's ravel order, so np.sum adds the same terms
    in the same order as it does over the stack.  Like info.entropy, a point
    mass gives +0.0.
    """
    head, row = np.ravel(first), np.ravel(uniform)
    head, row = head[head > 0.0], row[row > 0.0]
    terms = np.empty(head.size + copies * row.size)
    terms[: head.size] = head * np.log2(head)
    terms[head.size :].reshape(copies, row.size)[:] = row * np.log2(row)
    return 0.0 - float(np.sum(terms))


def _stacked_sum(first: np.ndarray, uniform: np.ndarray, copies: int) -> np.ndarray:
    """The stack [first, uniform x copies] summed over its rows, bit for bit.

    numpy adds the rows of a stack one after another, except when a row is a
    single cell: the stack is then one 1-D array, which numpy sums pairwise.
    """
    if first.size == 1:
        column = np.full(1 + copies, uniform.item())
        column[0] = first.item()
        return np.full(first.shape, column.sum())
    acc = first.copy()
    for _ in range(copies):
        acc += uniform
    return acc


def _block_law(model: DiscreteSourceModel, codebook: Codebook, n: int, epsilon: float):
    """The law of one block at a fixed codebook: the distinct encoder outcomes,
    rows [omega, word...] ascending, from one encode of every x-block, and a
    function giving p(outcome, y_S-block) of one coalition S per call."""
    x_blocks = np.indices((model.n_x,) * n).reshape(n, -1).T
    omegas, nus = _encode_blocks(codebook, x_blocks, epsilon)
    rows = np.column_stack([omegas, codebook.word(omegas, nus)])
    outcomes, x_out = np.unique(rows, axis=0, return_inverse=True)
    x_out = x_out.reshape(-1)  # numpy 2.0 changed the inverse's shape

    def law(coalition: tuple[int, ...]) -> np.ndarray:
        p_block = p_xy = model.joint_xy(coalition)
        for _ in range(n - 1):
            p_block = np.kron(p_block, p_xy)
        p_oy = np.zeros((len(outcomes), p_block.shape[1]))
        np.add.at(p_oy, x_out, p_block)  # x-block rows in x-block order
        return p_oy

    return outcomes, law


def _exact_leakage(
    model: DiscreteSourceModel,
    structure: AccessStructure,
    codebook: Codebook,
    config: ProtocolConfig,
):
    """Exact I(S; M, Y_U^N) per unauthorized set, seed marginalized.

    The q blocks are independent repetitions of the one per-block law
    (`_block_law`), so the law of a combo of q block outcomes is the q-fold
    product of that law.  The seed is averaged out by the full-rank rule of
    the Toeplitz hash (see `hashing`): the secret is uniform on all 2^k
    values for every nonzero dealer string and is 0 for the all-zero string,
    so neither GF(2) elimination nor a seed sweep is needed.

    The (secret, message, observation) law is two grouped sums over the
    combos of q block outcomes, each taken in combo order: every secret
    s >= 1 gets the 2^-k share of the nonzero combos (the row `uniform`),
    and secret 0 gets that share plus the full mass of the all-zero combo
    (the row `first`).  The 2^k-row table is never built: its entropies and
    marginals come from the two rows, with the additions numpy would make
    over the table, so the results are the table's bit for bit.
    """
    q, k = config.q, config.k
    outcomes, law = _block_law(model, codebook, config.n, config.epsilon)

    # combos of q outcomes, block 0 most significant; their message ids
    # (outcomes ascend by omega, so messages first appear in sorted order);
    # all-zero dealer strings, the only ones whose secret is not uniform
    combos = np.indices((len(outcomes),) * q).reshape(q, -1).T
    messages, combo_m = np.unique(outcomes[combos, 0], axis=0, return_inverse=True)
    combo_m = combo_m.reshape(-1)
    combo_zero = ~outcomes[:, 1:].any(axis=1)[combos].any(axis=1)
    nonzero_m = combo_m[~combo_zero]
    copies = 2**k - 1  # secrets s >= 1, which all share the row `uniform`

    # the empty coalition comes first (the masks ascend) and observes one
    # cell, so its row gives I(S; M) and H(S)
    per_u = []
    for u in structure.unauthorized:
        p_full = p_block_oy = law(u)
        for _ in range(q - 1):
            p_full = np.kron(p_full, p_block_oy)

        # combo index in the kron product is the base-len(outcomes) number
        # whose most significant digit is block 0, as in `combos`.
        # np.add.at applies rows in index order, so every cell sums the same
        # terms in the same (row) order as a per-combo fill would
        spread = 2.0**-k * p_full
        uniform = np.zeros((len(messages), p_full.shape[1]))
        np.add.at(uniform, nonzero_m, spread[~combo_zero])
        first = np.zeros_like(uniform)
        np.add.at(first, combo_m, np.where(combo_zero[:, None], p_full, spread))

        # the (secret, message, observation) table is [first, uniform, ...,
        # uniform]; each quantity below is read from the two rows alone
        h_smy = _stacked_entropy(first, uniform, copies)
        h_my = info.entropy(_stacked_sum(first, uniform, copies))
        h_s_here = _stacked_entropy(first.sum(), uniform.sum(), copies)
        leak_u = h_s_here + h_my - h_smy
        if not per_u:
            msg_leak, h_s = leak_u, h_s_here

        if leak_u < msg_leak - 1e-9 or msg_leak < -1e-9:
            raise NumericError("leakage chain rule violated in exact enumeration")
        per_u.append((u, max(0.0, leak_u)))

    return tuple(per_u), max(0.0, msg_leak), max(0.0, h_s)
