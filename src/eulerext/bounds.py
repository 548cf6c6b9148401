"""Concentration checks and detour success bounds for sampled graphs.

Everything here is a closed-form evaluation: a sub-Gaussian tail for
sums of independent edge indicators, membership tests for the two
typical-graph events (bounded maximum degree / edge count, and plentiful
common non-neighbors), and the per-step lower bound on finding a
two-edge detour together with its analytic floor. Logs are natural
throughout.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _as_int
from .models import AlphaStats, check_exponents

__all__ = [
    "DEFAULT_BETA",
    "DEFAULT_GAMMA",
    "chernoff_tail",
    "BoundParams",
    "default_params",
    "GoodEventCheck",
    "e_good_check",
    "e_all_check",
    "StepBound",
    "step_success_bound",
]

DEFAULT_BETA = 0.2
DEFAULT_GAMMA = 0.1


def chernoff_tail(mu: float, eps: float) -> float:
    """Upper bound on P(|sum - mu| >= eps * mu): exp(-eps^2 * mu / 4).

    Only valid for deviation fractions in (0, 1/2]; anything else is
    rejected rather than extrapolated.
    """
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"deviation fraction must lie in (0, 1/2], got {eps}")
    if not mu > 0.0:
        raise ValueError(f"expected sum must be positive, got {mu}")
    return math.exp(-(eps * eps) * mu / 4.0)


@dataclass(frozen=True)
class BoundParams:
    """Exponent triple (beta, gamma, zeta) plus the deviation epsilon.

    beta in (0, 1/2), gamma in (0, 1/2 - beta), and zeta strictly between
    gamma + beta/2 and (1 - beta)/2; that window is nonempty exactly when
    the first two ranges hold. epsilon is normally n^-zeta but any
    positive value is accepted; chernoff_tail enforces its own (0, 1/2]
    domain at the point of use.
    """

    beta: float
    gamma: float
    zeta: float
    epsilon: float

    def __post_init__(self):
        check_exponents(self.beta, self.gamma)
        lo = self.gamma + self.beta / 2.0
        hi = (1.0 - self.beta) / 2.0
        if not lo < self.zeta < hi:
            raise ValueError(
                f"zeta must lie in ({lo}, {hi}) for beta={self.beta}, gamma={self.gamma}, "
                f"got {self.zeta}"
            )
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


def default_params(n: int, beta: float = DEFAULT_BETA, gamma: float = DEFAULT_GAMMA) -> BoundParams:
    """Midpoint zeta for the (beta, gamma) window and epsilon = n^-zeta."""
    n = _as_int(n, ValueError, "need an int n >= 2", 2)
    lo = gamma + beta / 2.0
    hi = (1.0 - beta) / 2.0
    zeta = (lo + hi) / 2.0
    return BoundParams(beta=beta, gamma=gamma, zeta=zeta, epsilon=float(n) ** (-zeta))


@dataclass(frozen=True)
class GoodEventCheck:
    """Membership in the degree cap and edge-count cap events."""

    deg_ok: bool
    edge_ok: bool


def e_good_check(g: Graph, stats: AlphaStats, params: BoundParams) -> GoodEventCheck:
    """Is the sampled graph typical for its model?

    deg_ok:  max degree <= alpha_up * (1 + eps) * (n - 1)
    edge_ok: edge count <= alpha_e  * (1 + eps) * n(n-1)/2
    """
    n = g.n
    factor = 1.0 + params.epsilon
    deg_ok = g.max_degree() <= stats.alpha_up * factor * (n - 1)
    edge_ok = g.m <= stats.alpha_e * factor * n * (n - 1) / 2.0
    return GoodEventCheck(deg_ok=deg_ok, edge_ok=edge_ok)


def e_all_check(g: Graph) -> bool:
    """Does every vertex pair have at least (ln n)^3 / 2 common non-neighbors?

    A pair holding a vertex of maximum degree has at most n - 1 - (max
    degree) common non-neighbours, so when that is below the floor the
    answer is no. A pair u, v has at least n - 2 - deg u - deg v, so a
    vertex u with n - 2 - deg u - (max degree) >= floor certifies every
    pair it lies in. Only pairs of the remaining, risky vertices are
    counted exactly, and none when fewer than two are risky: by one
    float32 product of their 0/1 non-neighbour matrix with its
    transpose. The counts are integers no larger than n, and float32
    holds every integer up to 2^24 exactly.
    """
    n = g.n
    if n < 2:
        raise ValueError("need at least two vertices")
    floor = math.log(n) ** 3 / 2.0
    degrees = g.degrees()
    top = max(degrees)
    if n - 1 - top < floor:
        return False
    slack = n - 2 - top
    risky = [u for u, d in enumerate(degrees) if slack - d < floor]
    if len(risky) < 2:
        return True
    non = g.non_neighbor_matrix(risky).astype(np.float32)
    # the diagonal entry |non u| is no smaller than any pair count of u
    return int((non @ non.T).min()) >= floor


@dataclass(frozen=True)
class StepBound:
    """One detour step: success lower bound vs. failure upper bound.

    p_lower = 2 * (1 - alpha_up * (1 + eps))^2
    q_upper = 9/n + alpha_e * (1 + eps)
    diff = p_lower - q_upper, with product_log = t * log(diff) the log of
    the t-step product bound (0 when t = 0, -inf when diff <= 0).
    analytic_floor is the closed-form lower bound on diff,
    sqrt(2) * n^-(gamma + beta/2) - 1/n - 2 * n^-zeta, which diff must
    clear whenever the density window holds with these exponents.
    """

    p_lower: float
    q_upper: float
    diff: float
    product_log: float
    analytic_floor: float


def step_success_bound(stats: AlphaStats, n: int, params: BoundParams, t: int) -> StepBound:
    """Evaluate the per-step detour bounds for t repair steps.

    diff <= 0 is reported, not raised: it signals that the density window
    fails or n is too small for these exponents.
    """
    n = _as_int(n, ValueError, "need an int n >= 2", 2)
    t = _as_int(t, ValueError, "step count must be a nonnegative int")
    factor = 1.0 + params.epsilon
    p_lower = 2.0 * (1.0 - stats.alpha_up * factor) ** 2
    q_upper = 9.0 / n + stats.alpha_e * factor
    diff = p_lower - q_upper
    if t == 0:
        product_log = 0.0
    elif diff > 0.0:
        product_log = t * math.log(diff)
    else:
        product_log = -math.inf
    analytic_floor = (
        math.sqrt(2.0) * float(n) ** (-(params.gamma + params.beta / 2.0))
        - 1.0 / n
        - 2.0 * float(n) ** (-params.zeta)
    )
    return StepBound(
        p_lower=p_lower,
        q_upper=q_upper,
        diff=diff,
        product_log=product_log,
        analytic_floor=analytic_floor,
    )
