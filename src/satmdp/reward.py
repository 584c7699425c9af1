"""Per-round reward polynomials, the exact expected-reward formula, and grid
verifiers for their two structural properties (boundedness/monotonicity and the
earlier-round-flips-first inequality).

The round-i factor is the degree-p Taylor truncation of exp evaluated at
-x / (v^(q-1) * (3 - i/h)). Verifiers sweep integer grids exactly; when a grid
is too large to sweep, the range verifier reduces the round index to its two
extremes, which is exact because the truncation is strictly decreasing on the
covered argument range (certified via positivity of the one-lower truncation).
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

    def __post_init__(self):
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

    @property
    def H(self) -> int:
        return self.h * self.v

    def scale(self, i: int) -> float:
        """Denominator v^(q-1) * (3 - i/h) of the round-i argument."""
        if not 1 <= i <= self.h + 1:
            raise ParameterError(f"round index {i} outside [1, {self.h + 1}]")
        return float(self.v) ** (self.q - 1) * (3.0 - i / self.h)

    @property
    def epsilon_exact(self) -> Fraction:
        return Fraction(*Fraction(self.epsilon).as_integer_ratio())

    def to_dict(self) -> dict:
        return {"v": self.v, "p": self.p, "q": self.q, "alpha": self.alpha,
                "h": self.h, "H": self.H, "epsilon": self.epsilon, "b": self.b}


def params_from_alpha(v: int, p: int = 2, q: int = 4, alpha: float = 1 / 16,
                      epsilon: float = 0.25, b: int = 6) -> RewardParams:
    """h = floor(alpha * v^(q-1)) clamped to >= 1, so each round is exactly v steps."""
    h = max(1, math.floor(alpha * float(v) ** (q - 1)))
    return RewardParams(v=v, p=p, q=q, alpha=alpha, h=h, epsilon=epsilon, b=b)


def params_for_rounds(v: int, h: int, p: int = 2, q: int = 4,
                      epsilon: float = 0.25, b: int = 6) -> RewardParams:
    """Pin the round count directly; alpha is recorded as h / v^(q-1)."""
    return RewardParams(v=v, p=p, q=q, alpha=h / float(v) ** (q - 1), h=h,
                        epsilon=epsilon, b=b)


def log_degree(v: int) -> int:
    """The 2*ceil(log v) degree choice of the second parameterization (natural log)."""
    return max(2, 2 * math.ceil(math.log(max(v, 2))))


def taylor_exp(p: int, x: float) -> float:
    """Degree-p Taylor truncation of exp at zero, evaluated by Horner's scheme."""
    if p < 0:
        raise ParameterError("degree must be >= 0")
    acc = 1.0
    for i in range(p, 0, -1):
        acc = 1.0 + acc * x / i
    return acc


def _taylor_exp_vec(p: int, xs: np.ndarray) -> np.ndarray:
    acc = np.ones_like(xs)
    for i in range(p, 0, -1):
        acc = 1.0 + acc * xs / i
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


def _truncation_positive_on(k: int, z_hi: float) -> bool:
    """Whether the degree-k truncation of exp is strictly positive at -z for all
    z in [0, z_hi]. Even-degree truncations of exp have no real roots; an
    odd-degree one is strictly decreasing in z (its z-derivative is minus an
    even truncation), so positivity at z_hi settles the whole interval."""
    if k < 0:
        return False
    if k % 2 == 0:
        return True
    return taylor_exp(k, -z_hi) > 0.0


def range_upper_bound(params: RewardParams) -> float:
    return 1.0 - params.epsilon / (6 * params.b * float(params.v) ** (params.q - 2))


def verify_claim_range(params: RewardParams, grid_budget: int = 200_000_000,
                       i_chunk: int = 4096) -> ClaimReport:
    """Check 1/4 <= g_i(x) <= 1 - eps/(6b v^(q-2)) on x in [ceil(eps v / b), v],
    strict decrease and g in (0, 1] on x in [0, 2v], for every i in [1, h+1].

    Sweeps the full integer grid when it fits the budget; otherwise checks the
    two extreme rounds plus the monotonicity certificate, which covers every
    intermediate round exactly.
    """
    v, p, h = params.v, params.p, params.h
    x_lo = math.ceil(params.epsilon_exact * v / params.b)
    upper = range_upper_bound(params)
    xs = np.arange(0, 2 * v + 1, dtype=np.float64)
    report = ClaimReport("range", params.to_dict(), passed=True)
    grid_points = (h + 1) * (2 * v + 1)
    report.details["grid_points"] = grid_points

    def check_rows(i_values: np.ndarray, certified: bool = False) -> dict | None:
        inv = 1.0 / np.array([params.scale(int(i)) for i in i_values])
        G = _taylor_exp_vec(p, -np.outer(inv, xs))
        # a passed certificate proves strict decrease; rows that round to
        # equal floats (g_1 is 1.0 at x = 0 and 1 for large v) cannot refute it
        if not certified:
            bad = np.argwhere(~(G[:, :-1] > G[:, 1:]))
            if bad.size:
                r, c = bad[0]
                return {"kind": "not_strictly_decreasing", "i": int(i_values[r]),
                        "x": int(c), "g_x": float(G[r, c]),
                        "g_x1": float(G[r, c + 1])}
        bad = np.argwhere(~((G > 0.0) & (G <= 1.0)))
        if bad.size:
            r, c = bad[0]
            return {"kind": "outside_unit_interval", "i": int(i_values[r]),
                    "x": int(c), "g": float(G[r, c])}
        sub = G[:, x_lo:v + 1]
        bad = np.argwhere(~((sub >= 0.25) & (sub <= upper)))
        if bad.size:
            r, c = bad[0]
            return {"kind": "bound_violated", "i": int(i_values[r]),
                    "x": int(x_lo + c), "g": float(sub[r, c]),
                    "lower": 0.25, "upper": upper}
        return None

    if grid_points <= grid_budget:
        report.details["mode"] = "exhaustive"
        for start in range(1, h + 2, i_chunk):
            stop = min(start + i_chunk, h + 2)
            bad = check_rows(np.arange(start, stop))
            if bad is not None:
                report.passed = False
                report.counterexample = bad
                break
    else:
        # g's argument grows with the round index, so the extreme rounds bound
        # every row once the truncation is known to decrease on the full range.
        z_max = 2 * v / params.scale(h + 1)
        report.details["mode"] = "interval-certified"
        report.details["z_max"] = z_max
        if p < 1 or not _truncation_positive_on(p - 1, z_max):
            report.passed = False
            report.counterexample = {
                "kind": "certificate_failed",
                "note": "degree p-1 truncation not positive up to z_max; "
                        "grid too large to sweep directly"}
            return report
        bad = check_rows(np.array([1, h + 1]), certified=True)
        if bad is not None:
            report.passed = False
            report.counterexample = bad

    # Informational scan of (v, 2v]: largest x through which the bounds keep
    # holding on the extreme rounds (not asserted).
    inv = 1.0 / np.array([params.scale(1), params.scale(h + 1)])
    G = _taylor_exp_vec(p, -np.outer(inv, xs))
    ok = (G[1] >= 0.25) & (G[0] <= upper)
    x_hold = 2 * v
    for x in range(v + 1, 2 * v + 1):
        if not ok[x]:
            x_hold = x - 1
            break
    report.details["bounds_hold_through_x"] = x_hold
    return report


def _monotone_grid_violation(params: RewardParams, i_block: int = 512) -> dict | None:
    """First violation of g_i(c+x)*g_{i+1}(d-x) >= g_i(c+x-1)*g_{i+1}(d-x+1)
    over i in [1,h], c,d in [0,v], x in [1,d]; None if the grid passes.

    With u = c+x and e = d-x the constraint set is exactly {1 <= u <= 2v,
    0 <= e <= v-1, u+e <= 2v}, so each round reduces to one outer-product
    comparison of the two adjacent g tables (products compared directly, no
    division)."""
    v, p, h = params.v, params.p, params.h
    ys = np.arange(0, 2 * v + 1, dtype=np.float64)
    inv_all = 1.0 / np.array([params.scale(i) for i in range(1, h + 2)])
    # realizable (u, e) pairs: u + e <= 2v
    u_idx = np.arange(1, 2 * v + 1)
    e_idx = np.arange(0, v)
    valid = (u_idx[:, None] + e_idx[None, :]) <= 2 * v
    for start in range(0, h, i_block):
        stop = min(start + i_block, h)
        rows = _taylor_exp_vec(p, -np.outer(inv_all[start:stop + 1], ys))
        G1 = rows[:-1]       # rounds start+1 .. stop
        G2 = rows[1:, :v + 1]  # the following rounds, arguments 0..v
        lhs = G1[:, 1:, None] * G2[:, None, :v]        # u in [1,2v], e in [0,v-1]
        rhs = G1[:, :-1, None] * G2[:, None, 1:v + 1]  # u-1, e+1
        viol = (lhs < rhs) & valid[None, :, :]
        if viol.any():
            bi, r, c = map(int, np.argwhere(viol)[0])
            i = start + 1 + bi
            u, e = r + 1, c
            x = max(1, u - v)
            cc, dd = u - x, e + x
            return {"i": i, "c": cc, "d": dd, "x": x,
                    "f_x": float(g(i, cc + x, params) * g(i + 1, dd - x, params)),
                    "f_x_minus_1": float(g(i, cc + x - 1, params)
                                         * g(i + 1, dd - x + 1, params))}
    return None


def _monotone_grid_cost(params: RewardParams) -> int:
    return params.h * 2 * params.v * params.v


def find_min_passing_v(p: int, q: int, alpha: float, epsilon: float, b: int,
                       v_cap: int = 256, work_budget: int = 20_000_000_000) -> int | None:
    """Smallest v (doubling search, then binary refinement) at which the full
    monotone-step grid passes; None if no v <= v_cap passes within budget."""

    def passes(v: int) -> bool:
        params = params_from_alpha(v, p=p, q=q, alpha=alpha, epsilon=epsilon, b=b)
        if _monotone_grid_cost(params) > work_budget:
            raise ResourceLimitError(
                f"monotone grid for v={v} exceeds work budget")
        return _monotone_grid_violation(params) is None

    lo_fail = 0
    v = 1
    while v <= v_cap:
        if passes(v):
            break
        lo_fail = v
        v *= 2
    else:
        return None
    # invariant: lo_fail fails (or is 0), v passes
    while v - lo_fail > 1:
        mid = (v + lo_fail) // 2
        if passes(mid):
            v = mid
        else:
            lo_fail = mid
    return v


def verify_claim_monotone_step(params: RewardParams, search_v_min: bool = True,
                               v_cap: int = 256,
                               work_budget: int = 20_000_000_000) -> ClaimReport:
    """Exhaustive check that moving a flip from round i+1 to round i never hurts,
    over the full (i, c, d, x) grid; optionally also reports the minimal v at
    which the grid passes for the same (p, q, alpha)."""
    if _monotone_grid_cost(params) > work_budget:
        raise ResourceLimitError("monotone grid exceeds work budget")
    violation = _monotone_grid_violation(params)
    report = ClaimReport("monotone_step", params.to_dict(),
                         passed=violation is None, counterexample=violation)
    report.details["grid_cells"] = _monotone_grid_cost(params)
    if search_v_min:
        report.details["v_min"] = find_min_passing_v(
            params.p, params.q, params.alpha, params.epsilon, params.b,
            v_cap=v_cap, work_budget=work_budget)
    return report
