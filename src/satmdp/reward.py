"""Per-round reward polynomials, the exact expected-reward formula, and
verifiers for their two structural properties (boundedness/monotonicity and the
earlier-round-flips-first inequality).

The round-i factor is the degree-p Taylor truncation of exp, `taylor_exp`,
evaluated at -x / (v^(q-1) * (3 - i/h)), with v^(q-1) computed once per
`RewardParams`. The range verifier decides every round (2v + 1 <= MAX_RANGE)
from the two extreme ones, with an exact certificate of strict decrease where
one holds. The monotone-step verifier decides every round at once, in integers:
each cell's margin is a polynomial in the round index, cleared by its Bernstein
coefficients or searched exactly for its first negative round.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache

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
    # the hash of the compared fields: the value-layer caches key on params
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, low in (("v", 1), ("p", 0), ("q", 2), ("h", 1), ("b", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParameterError(f"{name} must be an int, got {value!r}")
            if value < low:
                raise ParameterError(f"{name} must be >= {low}")
        if not math.isfinite(self.alpha):
            raise ParameterError(f"alpha must be finite, got {self.alpha}")
        if not 0 < self.epsilon < 1:
            raise ParameterError("epsilon must be in (0,1)")
        if not self.alpha > 0:
            raise ParameterError(f"alpha must be > 0, got {self.alpha}")
        object.__setattr__(self, "scale_base", _scale_base(self.v, self.q))
        object.__setattr__(self, "_hash", hash(tuple(
            getattr(self, f.name) for f in fields(self) if f.compare)))

    def __hash__(self) -> int:
        return self._hash

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


# a game tree's terminals share few round summaries (the largest tree_sweep
# tree, 13,219 states, has 475 distinct ones), so the bound holds a whole
# tree's; a refused call raises, and lru_cache stores no exception
@lru_cache(maxsize=1024)
def expected_reward(round_dists: tuple, n: int, within_round: int,
                    free_dist: int, used_dist: int, params: RewardParams) -> float:
    """Terminal Bernoulli mean: product of past-round factors, the current-round
    factor at (flips so far + free disagreements), and the next-round factor at
    the used disagreements. Memoized on the round summary, keyed on the
    arguments in order, so `round_dists` is a tuple."""
    v = params.v
    if not 1 <= n <= params.h:
        raise ParameterError(f"terminal round {n} outside [1, {params.h}]")
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
MAX_STEP_WORK = 1 << 22     # largest cells * (p+1)^2 of one monotone-step check


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


def _bernstein(c, lo: int, hi: int) -> list[int]:
    """Scaled Bernstein coefficients on [lo, hi] of D(t) = sum_j c_j t^j, n = len(c) - 1:
    after a Taylor shift to lo, beta_k = sum_(j<=k) C(n-j, k-j) (hi-lo)^j c_j."""
    c, n = list(c), len(c) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += lo * c[j + 1]
    w = [(hi - lo) ** j * cj for j, cj in enumerate(c)]
    return [sum(math.comb(n - j, k - j) * w[j] for j in range(k + 1)) for k in range(n + 1)]


def _first_negative(c, hi: int) -> int | None:
    """Least integer t in [0, hi] with D(t) = sum_j c_j t^j < 0, or None. Bernstein
    subdivision, left half first, on a stack (hi may be 2^1000): an interval holds
    if its coefficients are >= 0 and answers lo if beta_0 = D(lo) < 0; one with at
    most n + 1 integers is evaluated at each."""
    n, stack = len(c) - 1, [(0, hi)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo <= n:
            for t in range(lo, hi + 1):
                if sum(cj * t ** j for j, cj in enumerate(c)) < 0:
                    return t
            continue
        beta = _bernstein(c, lo, hi)
        if beta[0] < 0:
            return lo
        if min(beta) < 0:
            mid = (lo + hi) // 2
            stack += [(mid + 1, hi), (lo, mid)]
    return None


def _step_rows(params: RewardParams, offset: int) -> list[list[int]]:
    """Coefficients in t = i-1 of N_(i+offset)(x) = sum_k (p!/k!) (-hx)^k S^(p-k),
    S = v^(q-1)(3h-1-offset-t) = a - base t, for x in [0, 2v]."""
    p, h, base = params.p, params.h, params.v ** (params.q - 1)
    a = base * (3 * h - 1 - offset)
    power = [[math.comb(m, j) * a ** (m - j) * (-base) ** j for j in range(m + 1)]
             for m in range(p + 1)]                 # S^m
    return [[sum(math.factorial(p) // math.factorial(k) * (-h * x) ** k * power[p - k][j]
                 for k in range(p - j + 1)) for j in range(p + 1)]
            for x in range(2 * params.v + 1)]


def _margins(A, B, u, e):
    """Coefficients of N_i(u) N_(i+1)(e) - N_i(u-1) N_(i+1)(e+1), rows A[j][x], B[j][x]."""
    p = len(A) - 1
    for k in range(2 * p + 1):
        yield sum(A[j][u] * B[k - j][e] - A[j][u - 1] * B[k - j][e + 1]
                  for j in range(max(0, k - p), min(k, p) + 1))


def _monotone_grid_violation(params: RewardParams) -> dict | None:
    """First violation of g_i(c+x)*g_{i+1}(d-x) >= g_i(c+x-1)*g_{i+1}(d-x+1)
    over i in [1,h], c,d in [0,v], x in [1,d], least in (i, u, e) order with
    u = c+x, e = d-x; None if the grid passes.

    The cells are exactly {1 <= u <= 2v, 0 <= e <= v-1, u+e <= 2v}. With
    t = i-1 in [0, L], L = h-1, S_i = v^(q-1)(3h-1-t) is linear in t, so
    N_i(x) = p! S_i^p g_i(x) is an integer polynomial of degree p in t and a
    cell's margin D(t) = N_i(u) N_(i+1)(e) - N_i(u-1) N_(i+1)(e+1), of degree
    n <= 2p, has the sign of the g margin. With b_k its Bernstein coefficients
    on [0, L], beta_k = C(n,k) b_k = sum_(j<=k) C(n-j, k-j) L^j c_j are integers,
    as C(n,k) C(k,j) / C(n,j) = C(n-j, k-j); in their basis t^k (L-t)^(n-k) a
    product's are the convolution of its factors', so each cell's come from
    2(2v+1) rows. If all are >= 0, the cell holds in every round (Farouki, CAGD
    2012); other cells go to _first_negative, bounded by the least round found
    so far. Cost: cells * (p+1)^2 products, whatever h is."""
    v, p, h = params.v, params.p, params.h
    if (3 * v * v + v) // 2 * (p + 1) ** 2 > MAX_STEP_WORK:
        raise ResourceLimitError(f"monotone step at v={v}: cells*(p+1)^2 > {MAX_STEP_WORK}")
    U, E = np.nonzero(np.add.outer(np.arange(1, 2 * v + 1), np.arange(v)) <= 2 * v)
    U, L = U + 1, h - 1
    rows = _step_rows(params, 0), _step_rows(params, 1)
    A, B = (np.array(r, dtype=object).T for r in rows)
    Ab, Bb = (np.array([_bernstein(y, 0, L) for y in r], dtype=object).T for r in rows)
    certified = np.logical_and.reduce([beta >= 0 for beta in _margins(Ab, Bb, U, E)])
    t, cell = L + 1, None
    for k in np.flatnonzero(~certified):
        hit = _first_negative(list(_margins(A, B, U[k], E[k])), t - 1)
        if hit is not None:
            t, cell = hit, k
    if cell is None:
        return None
    i, u, e = t + 1, int(U[cell]), int(E[cell])
    x = max(1, u - v)
    c, d = u - x, e + x
    return {"i": i, "c": c, "d": d, "x": x,
            "f_x": float(g(i, c + x, params) * g(i + 1, d - x, params)),
            "f_x_minus_1": float(g(i, c + x - 1, params) * g(i + 1, d - x + 1, params))}


def find_min_passing_v(p: int, q: int, alpha: float, epsilon: float,
                       b: int) -> int | None:
    """Smallest v (doubling search, then binary refinement) at which the full
    monotone-step grid passes; None if no v <= V_CAP passes. A v whose check
    is over MAX_STEP_WORK raises ResourceLimitError."""
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
