"""Per-round reward polynomials, the exact expected-reward formula, and
verifiers for their two structural properties (boundedness/monotonicity and the
earlier-round-flips-first inequality).

The round-i factor is the degree-p Taylor truncation of exp, `taylor_exp`,
evaluated at -x / (v^(q-1) * (3 - i/h)), with v^(q-1) computed once per
`RewardParams`. The range verifier decides every round (2v + 1 <= MAX_RANGE)
from the two extreme ones, with an exact certificate of strict decrease where
one holds. The monotone-step verifier clears rounds with a float ratio scan under an explicit
error bound and decides every round it cannot clear exactly, in integers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ParameterError, ResourceLimitError


@dataclass(frozen=True)
class RewardParams:
    """Construction parameters; h rounds of v steps each, horizon H = h*v."""

    v: int
    p: int
    q: int
    alpha: float
    h: int
    epsilon: float = 0.25
    b: int = 6
    # v^(q-1), the factor every round scale shares
    scale_base: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("v", "p", "q", "h", "b"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParameterError(f"{name} must be an int, got {value!r}")
        if not math.isfinite(self.alpha):
            raise ParameterError(f"alpha must be finite, got {self.alpha}")
        if self.v < 1:
            raise ParameterError("v must be >= 1")
        if self.p < 0:
            raise ParameterError("p must be >= 0")
        if self.q < 2:
            raise ParameterError("q must be >= 2")
        if self.h < 1:
            raise ParameterError("h must be >= 1")
        if not 0 < self.epsilon < 1:
            raise ParameterError("epsilon must be in (0,1)")
        if self.b < 1:
            raise ParameterError("b must be >= 1")
        if not self.alpha > 0:
            raise ParameterError(f"alpha must be > 0, got {self.alpha}")
        object.__setattr__(self, "scale_base", _scale_base(self.v, self.q))

    @property
    def H(self) -> int:
        return self.h * self.v

    def scale(self, i: int) -> float:
        """Denominator v^(q-1) * (3 - i/h) of the round-i argument."""
        if not 1 <= i <= self.h + 1:
            raise ParameterError(f"round index {i} outside [1, {self.h + 1}]")
        return self.scale_base * (3.0 - i / self.h)

    def to_dict(self) -> dict:
        return {"v": self.v, "p": self.p, "q": self.q, "alpha": self.alpha,
                "h": self.h, "H": self.H, "epsilon": self.epsilon, "b": self.b}


def _scale_base(v: int, q: int) -> float:
    try:
        return float(v) ** (q - 1)
    except OverflowError:
        raise ParameterError(f"v^(q-1) = {v}^{q - 1} overflows a float") from None


def params_from_alpha(v: int, p: int = 2, q: int = 4, alpha: float = 1 / 16,
                      epsilon: float = 0.25, b: int = 6) -> RewardParams:
    """h = floor(alpha * v^(q-1)) clamped to >= 1, so each round is exactly v steps."""
    rounds = alpha * _scale_base(v, q)
    if not math.isfinite(rounds):
        raise ParameterError(f"alpha * v^(q-1) = {rounds} is not finite")
    h = max(1, math.floor(rounds))
    return RewardParams(v=v, p=p, q=q, alpha=alpha, h=h, epsilon=epsilon, b=b)


def params_for_rounds(v: int, h: int, p: int = 2, q: int = 4,
                      epsilon: float = 0.25, b: int = 6) -> RewardParams:
    """Pin the round count directly; alpha is recorded as h / v^(q-1)."""
    return RewardParams(v=v, p=p, q=q, alpha=h / _scale_base(v, q), h=h,
                        epsilon=epsilon, b=b)


def log_degree(v: int) -> int:
    """The 2*ceil(log v) degree choice of the second parameterization (natural log)."""
    return max(2, 2 * math.ceil(math.log(max(v, 2))))


def taylor_exp(p: int, x):
    """Degree-p Taylor truncation of exp at zero by Horner's scheme, for a float,
    an ndarray or a Fraction (exactly); p = 0 gives ones in x's shape."""
    if p < 0:
        raise ParameterError("degree must be >= 0")
    acc = x / p + 1 if p else x ** 0
    for i in range(p - 1, 0, -1):
        acc = acc * x / i + 1
    return acc


def g(i: int, x: float, params: RewardParams) -> float:
    """Round-i reward factor at flip-count / distance x."""
    return taylor_exp(params.p, -x / params.scale(i))


def expected_reward(round_dists, n: int, within_round: int, free_dist: int,
                    used_dist: int, params: RewardParams) -> float:
    """Terminal Bernoulli mean: product of past-round factors, the current-round
    factor at (flips so far + free disagreements), and the next-round factor at
    the used disagreements."""
    v = params.v
    if not 1 <= n <= params.h:
        raise ParameterError(f"terminal round {n} outside [1, {params.h}]")
    round_dists = tuple(round_dists)
    if len(round_dists) != n - 1:
        raise ParameterError(
            f"expected {n - 1} inter-round distances, got {len(round_dists)}")
    for d in round_dists:
        if not 0 <= d <= v:
            raise ParameterError(f"inter-round distance {d} outside [0, {v}]")
    if not 0 <= within_round <= v:
        raise ParameterError(f"within-round flip count {within_round} outside [0, {v}]")
    if not 0 <= free_dist <= v or not 0 <= used_dist <= v:
        raise ParameterError("free/used disagreement counts outside [0, v]")
    value = 1.0
    for i, d in enumerate(round_dists, start=1):
        value *= g(i, d, params)
    value *= g(n, within_round + free_dist, params)
    value *= g(n + 1, used_dist, params)
    return value


@dataclass
class ClaimReport:
    claim: str
    params: dict
    passed: bool
    counterexample: dict | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"claim": self.claim, "params": self.params, "pass": self.passed,
                "counterexample": self.counterexample, "details": self.details}


def _truncation_positive_on(k: int, z_hi) -> bool:
    """Whether the degree-k truncation T_k of exp has T_k(-z) > 0 for z in
    [0, z_hi) and T_k(-z_hi) >= 0, which is what strict decrease of T_(k+1)(-z)
    on [0, z_hi] needs. Even-degree truncations of exp have no real roots; an
    odd-degree one is strictly decreasing in z (its z-derivative is minus an
    even truncation), so T_k(-z_hi) >= 0, decided exactly, settles both."""
    return k >= 0 and taylor_exp(k, -Fraction(z_hi)) >= 0


MAX_RANGE = 1 << 22         # largest 2v + 1 one range check evaluates
V_CAP = 128                 # largest v that find_min_passing_v tries
MAX_SCAN = 1 << 27          # largest h * 2v one monotone-step check scans
MAX_EXACT_CELLS = 1 << 22   # largest count of cells it decides in integers
_BLOCK_CELLS = 1 << 19      # float entries per g table in one block of rounds


def range_upper_bound(params: RewardParams) -> float:
    return 1.0 - params.epsilon / (6 * params.b * float(params.v) ** (params.q - 2))


def verify_claim_range(params: RewardParams) -> ClaimReport:
    """Check 1/4 <= g_i(x) <= 1 - eps/(6b v^(q-2)) on x in [ceil(eps v / b), v],
    strict decrease and g in (0, 1] on x in [0, 2v], for every i in [1, h+1].

    g_i(x) = T_p(-x t_i) with t_i = 1/scale(i) growing in i; rows 1 and h+1
    decide every round. Odd p: T_p(-z) decreases in z. Even p >= 2: T_p(-z) > 0
    falls up to the root z* of T_(p-1)(-z), then rises. Upper bounds peak on an
    extreme row. A row decreases strictly iff its step 2v-1 -> 2v does, a drop
    positive below some t_i and negative above, so row h+1 decides; then
    (2v-1) t_(h+1) < z* puts the band's minimum on row h+1. p = 0: g = 1. An
    exact certificate T_(p-1)(-z_max) >= 0 proves strict decrease on the whole
    range; only without one are the float rows tested for it.
    """
    v, p, q, h = params.v, params.p, params.q, params.h
    if 2 * v + 1 > MAX_RANGE:
        raise ResourceLimitError(f"range claim at v={v}: 2v + 1 is over {MAX_RANGE}")
    xs = np.arange(0, 2 * v + 1, dtype=np.float64)
    upper = range_upper_bound(params)
    rows = (1, h + 1)
    G = taylor_exp(p, -np.outer([1.0 / params.scale(i) for i in rows], xs))
    z_max = Fraction(2 * v * h, v ** (q - 1) * (2 * h - 1))  # 2v / scale(h + 1)
    in_band = (xs >= math.ceil(Fraction(params.epsilon) * v / params.b)) & (xs <= v)
    checks = [("outside_unit_interval", (G > 0.0) & (G <= 1.0)),
              ("bound_violated", ~in_band | ((G >= 0.25) & (G <= upper)))]
    # float rows can tie where g is near 1 (large v); they cannot refute a certificate
    if not _truncation_positive_on(p - 1, z_max):
        checks.insert(0, ("not_strictly_decreasing", G[:, :-1] > G[:, 1:]))
    report = ClaimReport("range", params.to_dict(), passed=True,
                         details={"z_max": float(z_max)})
    for kind, ok in checks:
        bad = np.argwhere(~ok)
        if bad.size:
            r, x = map(int, bad[0])
            report.passed = False
            report.counterexample = {"kind": kind, "i": rows[r], "x": x,
                                     "g": float(G[r, x])}
            break
    # informational: the largest x <= 2v up to which the extreme rows keep the bounds
    fails = np.flatnonzero(~((G[1] >= 0.25) & (G[0] <= upper))[v + 1:])
    report.details["bounds_hold_through_x"] = int(v + fails[0]) if fails.size else 2 * v
    return report


def _scaled_row(params: RewardParams, i: int) -> list[int]:
    """N_i(x) = p! * S_i^p * g_i(x) for x in [0, 2v], where S_i = v^(q-1)(3h - i)
    = h * scale(i): the integer sum_k (p!/k!) (-h x)^k S_i^(p-k)."""
    p, h = params.p, params.h
    s = params.v ** (params.q - 1) * (3 * h - i)
    coef = [math.factorial(p) // math.factorial(k) * s ** (p - k) for k in range(p + 1)]
    return [sum(c * (-h * x) ** k for k, c in enumerate(coef))
            for x in range(2 * params.v + 1)]


def _exact_round_violation(params: RewardParams, i: int) -> tuple[int, int] | None:
    """First (u, e) in (u, e) order with g_i(u) g_(i+1)(e) < g_i(u-1) g_(i+1)(e+1),
    over 1 <= u <= 2v, 0 <= e <= min(v-1, 2v-u), compared as products of N_i and
    N_(i+1). Both sides share one positive factor with the g products, so the
    decision is exact whatever the signs of g."""
    v = params.v
    a, b = _scaled_row(params, i), _scaled_row(params, i + 1)
    for u in range(1, 2 * v + 1):
        for e in range(min(v - 1, 2 * v - u) + 1):
            if a[u] * b[e] < a[u - 1] * b[e + 1]:
                return u, e
    return None


def _monotone_grid_violation(params: RewardParams) -> dict | None:
    """First violation of g_i(c+x)*g_{i+1}(d-x) >= g_i(c+x-1)*g_{i+1}(d-x+1)
    over i in [1,h], c,d in [0,v], x in [1,d]; None if the grid passes.

    With u = c+x and e = d-x the constraint set is exactly {1 <= u <= 2v,
    0 <= e <= v-1, u+e <= 2v}. Where g > 0 a cell violates iff
    R_i(u) = g_i(u)/g_i(u-1) < S_{i+1}(e) = g_{i+1}(e+1)/g_{i+1}(e), so a float
    scan of R_i(u) against the running max of S_{i+1} over e <= min(v-1, 2v-u)
    clears a round in O(v). Each round it cannot clear beyond its error bound
    is decided exactly by _exact_round_violation, within the MAX_* limits."""
    v, p, h = params.v, params.p, params.h
    if h * 2 * v > MAX_SCAN:
        raise ResourceLimitError(f"monotone step at v={v}: h * 2v is over {MAX_SCAN}")
    xs = np.arange(0, 2 * v + 1, dtype=np.float64)
    scale = params.scale_base * (3.0 - np.arange(1, h + 2) / h)
    e_max = np.minimum(v - 1, 2 * v - np.arange(1, 2 * v + 1))
    # Forward error of a computed g_i(x) at z = x/scale(i). The argument's
    # relative error is at most 7u (i/h enters 3 - i/h >= 1 at most doubled; the
    # subtraction, power, product, reciprocal and product with x round once
    # each). The k-th Taylor term carries k times that plus 3k Horner roundings,
    # so by the Horner bound of Higham (2002, section 5.1), with n = 12(p+1) >= 10p,
    #   |fl(g_i(x)) - g_i(x)| <= gamma_n * sum_k z^k/k!,  gamma_n = n u/(1 - n u).
    # The sum grows with x, so its value at x = 2v bounds the row; doubled, the
    # bound covers its own float evaluation.
    unit = 2.0 ** -53
    gamma = 2 * 12 * (p + 1) * unit / (1 - 12 * (p + 1) * unit)
    block = max(1, _BLOCK_CELLS // (2 * v + 1))
    exact_cells = 0
    for start in range(0, h, block):
        # rows are the rounds start+1 .. min(start+block, h)+1
        z = np.outer(1.0 / scale[start:start + block + 1], xs)
        G = taylor_exp(p, -z)
        err = gamma * taylor_exp(p, z[:, -1])
        g_min = G.min(axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # each row's largest relative error, infinite where g may be <= 0; R and
            # S carry two of them and a division each, the comparison their sum x2
            rel = np.where(g_min > err, err / g_min, np.inf)
            width = 4 * (rel[:-1] + rel[1:]) + 8 * unit
            R = G[:-1, 1:] / G[:-1, :-1]
            S_max = np.maximum.accumulate(G[1:, 1:v + 1] / G[1:, :v], axis=1)
            clear = np.isfinite(width) & np.all(
                R > S_max[:, e_max] * (1 + width[:, None]), axis=1)
        for r in np.flatnonzero(~clear):
            i = start + 1 + int(r)
            exact_cells += (3 * v * v + v) // 2     # the (u, e) cells of a round
            if exact_cells > MAX_EXACT_CELLS:
                raise ResourceLimitError(
                    f"monotone step at v={v}: over {MAX_EXACT_CELLS} exact cells")
            hit = _exact_round_violation(params, i)
            if hit is not None:
                u, e = hit
                x = max(1, u - v)
                c, d = u - x, e + x
                return {"i": i, "c": c, "d": d, "x": x,
                        "f_x": float(g(i, c + x, params) * g(i + 1, d - x, params)),
                        "f_x_minus_1": float(g(i, c + x - 1, params)
                                             * g(i + 1, d - x + 1, params))}
    return None


def find_min_passing_v(p: int, q: int, alpha: float, epsilon: float,
                       b: int) -> int | None:
    """Smallest v (doubling search, then binary refinement) at which the full
    monotone-step grid passes; None if no v <= V_CAP passes. A v whose check
    is over MAX_SCAN or MAX_EXACT_CELLS raises ResourceLimitError."""
    def passes(v: int) -> bool:
        params = params_from_alpha(v, p=p, q=q, alpha=alpha, epsilon=epsilon, b=b)
        return _monotone_grid_violation(params) is None

    lo_fail, v = 0, 1
    while not passes(v):
        lo_fail, v = v, 2 * v
        if v > V_CAP:
            return None
    # invariant: lo_fail fails (or is 0), v passes
    while v - lo_fail > 1:
        mid = (v + lo_fail) // 2
        v, lo_fail = (mid, lo_fail) if passes(mid) else (v, mid)
    return v


def verify_claim_monotone_step(params: RewardParams) -> ClaimReport:
    """Exact check that moving a flip from round i+1 to round i never hurts,
    over the full (i, c, d, x) grid; also reports the minimal v <= V_CAP at
    which the grid passes for the same (p, q, alpha)."""
    violation = _monotone_grid_violation(params)
    report = ClaimReport("monotone_step", params.to_dict(),
                         passed=violation is None, counterexample=violation)
    report.details["grid_cells"] = params.h * (3 * params.v ** 2 + params.v) // 2
    report.details["v_min"] = find_min_passing_v(
        params.p, params.q, params.alpha, params.epsilon, params.b)
    return report
