"""Checks of the program's outputs that do not reuse the program's own code.

Each check returns a list of problems, empty when the output is right. The
reference values (theta vectors, clause counts, Taylor factors, lattice
counts) are computed here from the definitions in the paper's construction,
so a fault in the package cannot hide behind the same fault in its check.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

LINEARITY_TOL = 1e-8
OPTIMALITY_TOL = 1e-9
RESIDUAL_TOL = 1e-8
WIN_MARGIN = 0.1
WIN_BLOCK = 20
WIN_MISSES_PER_BLOCK = 2


# --- formulas -----------------------------------------------------------------------


def clause_ints(formula) -> list:
    """Clauses as tuples of signed 1-based DIMACS literals."""
    return [tuple(-(lit.var + 1) if lit.negated else lit.var + 1
                  for lit in clause.literals)
            for clause in formula.clauses]


def dimacs_text(v: int, clauses) -> str:
    lines = [f"p cnf {v} {len(clauses)}"]
    lines += [" ".join(str(x) for x in clause) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def count_satisfied(clauses, assignment) -> int:
    """Clauses satisfied by a {-1,+1} assignment indexed by variable."""
    return sum(any((lit > 0) == (assignment[abs(lit) - 1] == 1) for lit in clause)
               for clause in clauses)


def gap_threshold(m: int, epsilon: float) -> int:
    """Fewest satisfied clauses that exceed a (1 - eps) fraction of m."""
    return math.floor((1 - Fraction(epsilon)) * m) + 1


def check_witness(clauses, witness, threshold: int) -> list:
    if witness is None:
        return ["YES answer without a witness"]
    sat = count_satisfied(clauses, witness)
    if sat < threshold:
        return [f"witness satisfies {sat} clauses, below the threshold {threshold}"]
    return []


# --- features -----------------------------------------------------------------------


def theta(wstar, v: int, p: int) -> np.ndarray:
    """prod_{i in S} wstar_i over subsets S with |S| <= 2p, size ascending and
    lexicographic within a size."""
    w = np.asarray(wstar, dtype=np.float64)
    parts = [np.ones(1)]
    for size in range(1, min(2 * p, v) + 1):
        idx = np.array(list(combinations(range(v), size)), dtype=np.intp)
        parts.append(np.prod(w[idx], axis=1))
    return np.concatenate(parts)


def check_linearity(lin, greedy, terminal, zero_features) -> list:
    """<phi, theta> equals the greedy value; terminal states have phi = 0."""
    problems = []
    lin, greedy = np.asarray(lin), np.asarray(greedy)
    err = np.abs(lin - greedy)
    if err.size and not err.max() <= LINEARITY_TOL:
        k = int(np.argmax(err))
        problems.append(f"|<phi,theta> - V_greedy| = {err[k]:.3e} at state {k}")
    bad = [k for k, (t, z) in enumerate(zip(terminal, zero_features)) if t and not z]
    if bad:
        problems.append(f"non-zero features at terminal state {bad[0]}")
    return problems


def check_optimality(greedy, vstar) -> list:
    """V_greedy <= V* and V* - V_greedy <= 1e-9 state by state."""
    gap = np.asarray(vstar) - np.asarray(greedy)
    if gap.size and not (gap.min() >= 0.0 and gap.max() <= OPTIMALITY_TOL):
        return [f"V* - V_greedy ranges over [{gap.min():.3e}, {gap.max():.3e}]"]
    return []


# --- long episodes ------------------------------------------------------------------


def taylor_exp(p: int, x: float) -> float:
    return sum(x ** j / math.factorial(j) for j in range(p + 1))


def terminal_mean(state, wstar_mask: int, v: int, p: int, q: int, h: int) -> float:
    """Bernoulli mean at a terminal state: one truncated exponential factor per
    past round, the current round at (flips + free disagreements), and the next
    round at the used disagreements."""
    def factor(i, x):
        return taylor_exp(p, -x / (float(v) ** (q - 1) * (3.0 - i / h)))

    all_mask = (1 << v) - 1
    diff = state.w ^ wstar_mask
    within = (state.w_round ^ state.w).bit_count()
    free_d = (diff & state.free).bit_count()
    used_d = (diff & all_mask & ~state.free).bit_count()
    mean = 1.0
    for i, d in enumerate(state.round_dists, start=1):
        mean *= factor(i, d)
    return mean * factor(state.n, within + free_d) * factor(state.n + 1, used_d)


def decay_bound(epsilon: float, b: int, v: int, q: int, h: int) -> float:
    return (1 - epsilon / (6 * b * v ** (q - 2))) ** h


def check_decay(state, wstar_mask: int, v: int, p: int, q: int, h: int,
                epsilon: float, b: int) -> list:
    mean = terminal_mean(state, wstar_mask, v, p, q, h)
    bound = decay_bound(epsilon, b, v, q, h)
    if not mean <= bound:
        return [f"terminal mean {mean!r} above the decay bound {bound!r}"]
    return []


def check_episode(steps, digest_keys, last_written, last_replayed, replayed,
                  horizon: int) -> list:
    """A written trajectory against its replay: H steps numbered in order,
    distinct digests (compared by key), the last written digest equal to
    that of the replayed state before the final action, and a final state
    entering last_level after exactly H steps."""
    problems = []
    if len(steps) != horizon:
        problems.append(f"{len(steps)} trajectory lines, expected {horizon}")
    if steps != list(range(len(steps))):
        problems.append("trajectory steps are not numbered 0..H-1")
    if len(set(digest_keys)) != len(digest_keys):
        problems.append("repeated state digest within one episode")
    if last_written != last_replayed:
        problems.append("last written digest differs from the replayed state's")
    if replayed is None:
        problems.append("written actions do not replay to a terminal state")
    elif replayed.terminal_kind != "last_level" or replayed.step != horizon:
        problems.append(f"replay ends {replayed.terminal_kind} at step {replayed.step}")
    return problems


# --- baselines ----------------------------------------------------------------------


def lattice_ball_count(eps: float, horizon: int, dim: int) -> int:
    """Integer points i with ||i * spacing|| <= radius for the epsilon-net's
    cover: radius eps / (2 H sqrt d), spacing radius / sqrt d, ball radius
    1 + spacing sqrt(d) / 2. Counted exactly: sum i_k^2 <= floor((R/s)^2)."""
    cover = eps / (2 * horizon * math.sqrt(dim))
    spacing = cover / math.sqrt(dim)
    radius = 1.0 + spacing * math.sqrt(dim) / 2

    def count(d, budget):
        top = math.isqrt(budget)
        if d == 1:
            return 2 * top + 1
        return sum(count(d - 1, budget - i * i) for i in range(-top, top + 1))

    return count(dim, math.floor((radius / spacing) ** 2))


def check_cover(cover_points: int, expected: int) -> list:
    if cover_points != expected:
        return [f"cover_points {cover_points}, expected {expected} lattice points"]
    return []


def check_horizon_split(infos, dim: int) -> list:
    problems = []
    resid = max(info["max_residual"] for info in infos)
    if not resid <= RESIDUAL_TOL:
        problems.append(f"horizon-split residual {resid:.3e} above {RESIDUAL_TOL}")
    basis = max(max(info["basis_sizes"]) for info in infos)
    if basis > dim:
        problems.append(f"basis of size {basis} exceeds d = {dim}")
    return problems


def check_wins(outcomes) -> list:
    """outcomes: one bool per trial in run order (True = within 0.1 of V*).
    At most 2 misses in every block of 20 trials, a final short block included."""
    problems = []
    for start in range(0, len(outcomes), WIN_BLOCK):
        block = outcomes[start:start + WIN_BLOCK]
        misses = block.count(False)
        if misses > WIN_MISSES_PER_BLOCK:
            problems.append(f"trials {start}..{start + len(block) - 1}: "
                            f"{misses} of {len(block)} miss V* by more than {WIN_MARGIN}")
    return problems
