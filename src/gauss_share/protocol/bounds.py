"""Finite-blocklength reliability and rate bounds for the reconciliation scheme.

These are direct evaluations of concentration-style expressions: alphabet
sizes, minimum positive masses of the discretized joint, and single-letter
entropies go in, a numeric bound comes out.  Nothing here is asymptotic
unless the caller asks for the limit flag, in which case every correction
term is dropped and the exact single-letter expressions are returned.

The bounds are loose at desk scale almost by design; values above one are
reported with a vacuous flag rather than hidden.  exp() underflow and
overflow are clamped to 0 and inf so pathological inputs degrade to honest
(if useless) bounds instead of exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..access_structure import AccessStructure
from ..errors import DomainError
from .model import DiscreteSourceModel

__all__ = [
    "AchievableRateBound",
    "CoalitionBoundInput",
    "CoalitionErrorBound",
    "ErrorBoundInputs",
    "ReconciliationErrorBound",
    "UnauthorizedRateTerm",
    "achievable_rate_bound",
    "bound_inputs",
    "codebook_rates",
    "error_bound",
]


def _exp(x: float) -> float:
    if x > 700.0:
        return math.inf
    if x < -745.0:
        return 0.0
    return math.exp(x)


def _pow2(x: float) -> float:
    # float ** raises OverflowError instead of returning inf, so guard it
    if x > 1024.0:
        return math.inf
    if x < -1075.0:
        return 0.0
    return 2.0 ** x


def _check_mu(mu: float, label: str) -> float:
    mu = float(mu)
    if not (0.0 < mu <= 1.0):
        raise DomainError(f"{label} must lie in (0, 1], got {mu}")
    return mu


def _check_epsilon(epsilon: float) -> float:
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    return epsilon


@dataclass(frozen=True)
class CoalitionBoundInput:
    subset: tuple[int, ...]
    n_y: int  # composite observation alphabet size
    mu_xy: float  # min positive mass of p(x, y_subset)
    mu_vxy: float  # min positive mass of p(v, x, y_subset)


@dataclass(frozen=True)
class ErrorBoundInputs:
    n_v: int
    n_x: int
    entropy_v: float
    mu_vx: float
    per_authorized: tuple[CoalitionBoundInput, ...]


def bound_inputs(model: DiscreteSourceModel, structure: AccessStructure) -> ErrorBoundInputs:
    """Alphabet sizes and minimum masses read off the discretized joint."""
    per = tuple(
        CoalitionBoundInput(
            subset=subset,
            n_y=model.n_y(subset),
            mu_xy=model.mu_xy(subset),
            mu_vxy=model.mu_vxy(subset),
        )
        for subset in structure.authorized
    )
    return ErrorBoundInputs(
        n_v=model.n_v,
        n_x=model.n_x,
        entropy_v=model.entropy_v(),
        mu_vx=model.mu_xv(),
        per_authorized=per,
    )


@dataclass(frozen=True)
class CoalitionErrorBound:
    subset: tuple[int, ...]
    summands: tuple[float, float, float, float]

    @property
    def delta(self) -> float:
        return sum(self.summands)


@dataclass(frozen=True)
class ReconciliationErrorBound:
    n: int
    epsilon: float
    n_authorized: int
    per_authorized: tuple[CoalitionErrorBound, ...]

    @property
    def delta_max(self) -> float:
        return max(term.delta for term in self.per_authorized)

    @property
    def total(self) -> float:
        return self.n_authorized * self.delta_max

    @property
    def vacuous(self) -> bool:
        return not self.total < 1.0

    @property
    def clamped(self) -> float:
        return min(1.0, self.total)


def error_bound(n: int, epsilon: float, inputs: ErrorBoundInputs) -> ReconciliationErrorBound:
    """Reconciliation failure bound: n_authorized times the worst coalition's delta.

    delta for one coalition is the sum of four summands: source-pair
    atypicality, encoder fallback mass, codeword-search failure, and
    decoder-side atypicality.  epsilon_1 = epsilon / 2 throughout.
    """
    n = int(n)
    if n < 1:
        raise DomainError("blocklength must be at least 1")
    epsilon = _check_epsilon(epsilon)
    if not inputs.per_authorized:
        raise DomainError("need at least one authorized coalition")
    eps1 = epsilon / 2.0
    shrink = (epsilon - eps1) ** 2 / (1.0 + eps1)
    mu_vx = _check_mu(inputs.mu_vx, "mu_vx")
    h_v = float(inputs.entropy_v)

    per = []
    for coalition in inputs.per_authorized:
        mu_xy = _check_mu(coalition.mu_xy, "mu_xy")
        mu_vxy = _check_mu(coalition.mu_vxy, "mu_vxy")
        t1 = 2.0 * inputs.n_x * coalition.n_y * _exp(-n * eps1**2 * mu_xy)
        t2 = _pow2(-n * epsilon * h_v)
        inner = 1.0 - 2.0 * inputs.n_v * inputs.n_x * _exp(-n * shrink * mu_vx)
        scale = _pow2(epsilon * n * h_v)
        if math.isinf(scale):
            t3 = 0.0 if inner > 0 else (math.inf if inner < 0 else 1.0)
        else:
            t3 = _exp(-inner * scale)
        t4 = (
            2.0
            * inputs.n_v
            * inputs.n_x
            * coalition.n_y
            * _exp(-n * shrink * mu_vxy)
        )
        per.append(
            CoalitionErrorBound(subset=coalition.subset, summands=(t1, t2, t3, t4))
        )
    return ReconciliationErrorBound(
        n=n,
        epsilon=epsilon,
        n_authorized=len(per),
        per_authorized=tuple(per),
    )


@dataclass(frozen=True)
class UnauthorizedRateTerm:
    subset: tuple[int, ...]
    mi_v_y: float  # I(V; Y_subset)
    delta1: float
    delta2: float


@dataclass(frozen=True)
class AchievableRateBound:
    n: int
    q: int
    epsilon: float
    asymptotic: bool
    rs_lower: float
    rp_upper: float
    suggested_k: int
    min_mi_authorized: float
    max_mi_unauthorized: float
    per_unauthorized: tuple[UnauthorizedRateTerm, ...]

    @property
    def vacuous(self) -> bool:
        return not math.isfinite(self.rs_lower) or self.rs_lower <= 0.0


def achievable_rate_bound(
    model: DiscreteSourceModel,
    structure: AccessStructure,
    n: int,
    q: int,
    epsilon: float,
    asymptotic: bool = False,
) -> AchievableRateBound:
    """Finite-N secret-rate floor and public-rate ceiling of the scheme.

    rs_lower subtracts, from the single-letter rate difference, the worst
    unauthorized coalition's delta2 correction plus 1/sqrt(N) + 1/N;
    rp_upper adds the 6 epsilon H(V) slack to the worst authorized
    coalition's conditional information.  delta1 terms can blow up to
    infinity when the block-level concentration has no bite at these sizes;
    rs_lower is then -inf and flagged vacuous.  With asymptotic=True every
    correction vanishes and the exact single-letter expressions come back.
    """
    n, q = int(n), int(q)
    if n < 1 or q < 1:
        raise DomainError("n and q must be at least 1")
    epsilon = _check_epsilon(epsilon)
    big_n = n * q

    mi_a = [model.mi_v_y(a) for a in structure.authorized]
    if not mi_a:
        raise DomainError("need at least one authorized coalition")
    min_mi_a = min(mi_a)
    unauthorized = structure.unauthorized
    mi_u_all = {u: model.mi_v_y(u) for u in unauthorized}
    max_mi_u = max(mi_u_all.values(), default=0.0)
    h_v = model.entropy_v()

    rp_asym = max(model.mi_x_v_given_y(a) for a in structure.authorized)

    # the finite-N corrections; in the limit each is 0.0, delta1 and delta2
    # too, and x - 0.0 == x, so the single-letter values come back exactly
    inv_root_n, inv_n, root_n, slack_v = (
        (0.0, 0.0, 0.0, 0.0)
        if asymptotic
        else (big_n**-0.5, 1.0 / big_n, math.sqrt(big_n), 6.0 * epsilon * h_v)
    )
    mu_xv = 0.0 if asymptotic else model.mu_xv()
    per_terms = []
    for u in unauthorized:
        delta1 = delta2 = 0.0
        if not asymptotic:
            try:
                support = float(model.support_vy(u) ** n)
            except OverflowError:  # the count of pair blocks exceeds the float range
                support = math.inf
            mu_block = model.mu_vy(u) ** n
            slack = 1.0 - 2.0 * support * _exp(-(epsilon**2) * q * mu_block / 6.0)
            delta1 = -math.log2(slack) if slack > 0.0 else math.inf
            i_xv_given_yu = model.mi_x_v_given_y(u)
            h_x_given_yuv = model.entropy_x_given_yv(u)
            tail = math.log2(model.n_x) * (
                4.0 * model.n_v * model.n_x * _exp(-n * epsilon**2 * mu_xv)
                + 2.0
                * model.n_v
                * model.n_x
                * model.n_y(u)
                * _exp(-(epsilon**2) * n * model.mu_vxy(u) / 8.0)
            )
            delta2 = (
                epsilon * i_xv_given_yu
                + (1.0 - epsilon) * (2.0 * epsilon * h_x_given_yuv + 2.0 / n + tail)
                + delta1 / big_n
                + slack_v
                + inv_root_n
            )
        per_terms.append(
            UnauthorizedRateTerm(
                subset=u, mi_v_y=mi_u_all[u], delta1=delta1, delta2=delta2
            )
        )

    max_delta2 = max((t.delta2 for t in per_terms), default=0.0)
    rs_lower = min_mi_a - max_mi_u - max_delta2 - inv_root_n - inv_n
    k_core = big_n * (min_mi_a - max_mi_u - max_delta2) - root_n
    suggested_k = max(0, math.floor(k_core)) if math.isfinite(k_core) else 0
    return AchievableRateBound(
        n=n,
        q=q,
        epsilon=epsilon,
        asymptotic=bool(asymptotic),
        rs_lower=rs_lower,
        rp_upper=rp_asym + slack_v,
        suggested_k=suggested_k,
        min_mi_authorized=min_mi_a,
        max_mi_unauthorized=max_mi_u,
        per_unauthorized=tuple(per_terms),
    )


def codebook_rates(
    model: DiscreteSourceModel, structure: AccessStructure, epsilon: float
) -> tuple[float, float]:
    """Construction rates (rv, rv_prime) for the random codebook.

    rv covers the worst authorized coalition's residual uncertainty about the
    auxiliary plus slack; rv_prime is the leftover up to H(V) minus slack and
    may come out negative at coarse epsilon, in which case the caller should
    clamp it to zero (an empty second index).
    """
    epsilon = _check_epsilon(epsilon)
    h_v = model.entropy_v()
    worst = max(model.entropy_v_given_y(a) for a in structure.authorized)
    rv = worst - model.entropy_v_given_x() + 6.0 * epsilon * h_v
    rv_prime = h_v - worst - 3.0 * epsilon * h_v
    return rv, rv_prime
