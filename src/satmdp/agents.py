"""Policies and algorithms against deterministic linear-feature MDP oracles:
the seeded, query-counting oracle of a SAT instance, the distance-greedy
reference policy, exact optimal values over a game tree, the RL-to-SAT
reduction driver, and the two brute-force RL baselines (lattice-cover policy
search and the horizon-split basis algorithm).

The baselines and the reduction call an oracle through these names only;
`SatOracle` and `toys.ToyLinearMdp` both provide them:
- `initial_state()`, `transition(s, a)`, `is_terminal(s)`: deterministic moves;
- `sample_reward_batch(s, a, count)`: the sum of `count` reward samples at (s, a);
- `features_sa(s, a)`: the feature vector of the pair (s, a);
- `num_actions`, `horizon`, `dim`: k, H and d.

States are hashable and are their own keys: two are equal exactly when they
are one node of the oracle's tree.

A learner for the reduction is a callable on the oracle. It returns None, or
an action path that `a_sat` then executes from the initial state, since the
reduction also runs the learner's output policy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from .cnf import assignment_from_mask, mask_from_assignment, satisfied_count
from .errors import InvariantViolation, ParameterError, ResourceLimitError
from .mdp import (
    GAP_SATISFIED,
    MODE_SIMULATOR,
    STAGE_ONE,
    MdpInstance,
    MdpState,
    build_instance,
    features_state,
    initial_state,
    reward_mean,
    transition,
)


class SatOracle:
    """Oracle view of a SAT-derived instance: a seeded counter-based RNG for
    reward samples plus query counters for the transition / reward / feature
    interfaces. Every query is charged through `_charge` and every successor
    is computed once through `_successor`."""

    num_actions = 3

    def __init__(self, instance: MdpInstance, seed: int):
        self.instance = instance
        self.horizon = instance.params.H
        self.dim = instance.d
        self.rng = np.random.Generator(np.random.Philox(key=seed))
        self.counters = {"transition": 0, "reward": 0, "feature": 0}

    def _charge(self, kind: str, count: int = 1):
        self.counters[kind] += count

    def _successor(self, s: MdpState, a: int) -> MdpState:
        return transition(self.instance, s, a)

    def initial_state(self):
        self._charge("transition")
        return initial_state(self.instance)

    def transition(self, s, a):
        self._charge("transition")
        return self._successor(s, a)

    def sample_reward_batch(self, s, a, count):
        """Number of ones among `count` independent reward samples at (s, a);
        drawn as one binomial, counted as `count` reward queries."""
        self._charge("reward", count)
        mean = reward_mean(self.instance, self._successor(s, a))
        if mean == 0.0:
            return 0
        return int(self.rng.binomial(count, mean))

    def step(self, s, a):
        """Transition plus reward sample for the same action (two queries)."""
        self._charge("transition")
        self._charge("reward")
        nxt = self._successor(s, a)
        mean = reward_mean(self.instance, nxt)
        if mean == 0.0:
            return nxt, 0
        return nxt, int(self.rng.random() < mean)

    def features_sa(self, s, a):
        self._charge("feature")
        return features_state(self.instance, self._successor(s, a))

    def is_terminal(self, s):
        return s.is_terminal


# --- greedy reference policy ------------------------------------------------------


def greedy_action(inst: MdpInstance, s: MdpState, target: int | None = None) -> int:
    """Stage one: lowest-index offered variable disagreeing with the target
    bitmask (default: the instance's satisfying assignment); stage two: flip
    iff the offered variable disagrees."""
    if s.is_terminal:
        raise ParameterError("greedy action undefined on a terminal state")
    if target is None:
        target = inst.wstar
        if target is None:
            raise ParameterError("greedy policy needs a satisfying assignment")
    diff = s.w ^ target
    if s.stage == STAGE_ONE:
        for a, var in enumerate(inst.clause_vars_sorted[s.cursor]):
            if (diff >> var) & 1:
                return a
        raise InvariantViolation(
            "offered clause admits no distance-decreasing flip; the target "
            "assignment does not satisfy it")
    return 1 if (diff >> s.cursor) & 1 else 0


def greedy_policy(inst: MdpInstance, wstar=None):
    """Greedy toward the ±1 assignment `wstar`, converted once, or toward the
    instance's satisfying assignment."""
    target = None if wstar is None else mask_from_assignment(tuple(wstar))
    return lambda s: greedy_action(inst, s, target)


def greedy_rollout_value(inst: MdpInstance, s: MdpState) -> float:
    """Exact expected future reward of the greedy policy from s (no sampling).

    Terminal states are worth 0: the payout sits on the entering transition,
    which a rollout starting at the terminal never takes.
    """
    if inst.wstar is None or s.is_terminal:
        return 0.0
    while not s.is_terminal:
        s = transition(inst, s, greedy_action(inst, s))
    return reward_mean(inst, s)


# --- exact DP oracle --------------------------------------------------------------


def tree_optimal_values(inst: MdpInstance, states, children):
    """Optimal values for every node of an enumerated tree in one bottom-up
    pass (children indices always exceed the parent's). Values start at 0,
    which no payout undercuts, so a terminal, having no children, stays 0; a
    stage-two keep-alias repeats action 0's child, which the max ignores."""
    values = [0.0] * len(states)
    for i in range(len(states) - 1, -1, -1):
        for _a, j in children[i]:
            values[i] = max(values[i], reward_mean(inst, states[j]) + values[j])
    return values


# --- rollouts ---------------------------------------------------------------------


def rollout(oracle: SatOracle, policy):
    """Run a policy (a callable from state to action) to termination, yielding
    (state, action, reward sample, next state) as each step is taken."""
    s = oracle.initial_state()
    for _ in range(oracle.horizon):
        if oracle.is_terminal(s):
            return
        a = policy(s)
        nxt, reward = oracle.step(s, a)
        yield s, a, reward, nxt
        s = nxt
    if not oracle.is_terminal(s):
        raise InvariantViolation("episode exceeded the horizon without terminating")


def _walk(oracle, start, path):
    """State reached by a fixed action path, stopping early at a terminal."""
    s = start
    for a in path:
        if oracle.is_terminal(s):
            return s
        s = oracle.transition(s, a)
    return s


def _estimate_kappa(oracle, start, path, samples: int):
    """Mean reward collected along a fixed action path (batched sampling), and
    the state the path reaches, stopping early at a terminal."""
    total = 0.0
    s = start
    for a in path:
        if oracle.is_terminal(s):
            break
        total += oracle.sample_reward_batch(s, a, samples) / samples
        s = oracle.transition(s, a)
    return total, s


# --- RL-to-SAT reduction ----------------------------------------------------------


class _WitnessFound(Exception):
    def __init__(self, w_mask):
        self.w_mask = w_mask


class _BudgetExhausted(Exception):
    pass


class ReductionOracle(SatOracle):
    """Monitored simulator, an instance without w* and so with zero reward
    everywhere: every state handed out is screened for the gap-satisfied
    terminal, which `mdp` enters when the satisfaction threshold is met, and
    total oracle queries are budgeted (a query that would take the total past
    the budget is refused before it runs)."""

    def __init__(self, instance: MdpInstance, seed: int, budget: int):
        if instance.wstar is not None:
            raise ParameterError(
                "the reduction runs against the simulator, which holds no wstar")
        super().__init__(instance, seed)
        self.budget = budget

    def _charge(self, kind, count=1):
        if sum(self.counters.values()) + count > self.budget:
            raise _BudgetExhausted
        super()._charge(kind, count)

    def _successor(self, s, a):
        # screened before any pricing, so a witness always wins
        return self._screen(super()._successor(s, a))

    def _screen(self, s: MdpState) -> MdpState:
        if s.stage == GAP_SATISFIED:
            raise _WitnessFound(s.w)
        return s

    def initial_state(self):
        return self._screen(super().initial_state())


@dataclass
class AsatResult:
    answer: str                 # "YES" | "NO"
    witness: tuple | None       # re-verified assignment when YES
    queries: dict
    note: str = ""


def a_sat(f, learner, params, budget: int = 1_000_000, seed: int = 0) -> AsatResult:
    """Decide the gap promise by running an RL learner against the zero-reward
    simulator. YES is answered only for an independently re-verified assignment
    satisfying more than a (1-eps) fraction of clauses; everything else
    (learner completion, budget exhaustion) answers NO. An action path the
    learner returns is executed from the initial state before answering.
    `seed` keys a reward RNG that never draws (every simulator reward is 0),
    so it decides nothing."""
    inst = build_instance(f, params, mode=MODE_SIMULATOR)
    oracle = ReductionOracle(inst, seed, budget)
    try:
        path = learner(oracle)
        if path:
            _walk(oracle, oracle.initial_state(), path)
    except _WitnessFound as found:
        witness = assignment_from_mask(found.w_mask, f.v)
        if satisfied_count(f, witness) < inst.gap_threshold_count:
            raise InvariantViolation(
                "witness failed independent re-verification")  # pragma: no cover
        return AsatResult("YES", witness, dict(oracle.counters))
    except _BudgetExhausted:
        return AsatResult("NO", None, dict(oracle.counters),
                          note="budget exhausted")
    return AsatResult("NO", None, dict(oracle.counters))


def _play(oracle, policy):
    """One episode of a policy (a callable from state to action)."""
    s = oracle.initial_state()
    while not oracle.is_terminal(s):
        s = oracle.transition(s, policy(s))


def greedy_reference_learner(wstar):
    """Completeness driver for tests: knows a satisfying assignment and plays
    one greedy episode. Reads the instance internals, which a real learner
    cannot. Returns no path: the screening oracle saw every state it played."""
    return lambda oracle: _play(oracle, greedy_policy(oracle.instance, wstar))


def random_learner(episodes: int, seed: int = 0):
    """Plays uniformly random episodes and returns no path: every path it
    could output, it already played through the screening oracle."""

    def learn(oracle):
        rng = np.random.Generator(np.random.Philox(key=seed))
        for _ in range(episodes):
            _play(oracle, lambda _s: int(rng.integers(0, oracle.num_actions)))

    return learn


# --- argmax policies from Q estimates ---------------------------------------------


def greedy_on_q(q: dict, oracle):
    """Argmax policy over a {(state, action): value} table; ties break
    toward the lowest action index; missing entries raise, naming the state."""

    def policy(s):
        def value(a):
            if (s, a) not in q:
                raise ParameterError(f"no Q estimate for state {s!r} action {a}")
            return q[(s, a)]

        # max keeps the first of equal values
        return max(range(oracle.num_actions), key=value)

    return policy


# --- lattice-cover policy search --------------------------------------------------

MIN_ROLLOUTS = 64  # reward samples per distinct policy, at the least
COVER_BUDGET = 60_000_000  # largest lattice cover epsilon_net_search enumerates
BLOCK_ROWS = 16_384  # candidates scored together when slabs are small


def cover_radius(eps: float, horizon: int, dim: int) -> float:
    return eps / (2 * horizon * math.sqrt(dim))


def cover_spacing(eps: float, horizon: int, dim: int) -> float:
    """Per-coordinate lattice spacing: (cover radius) / sqrt(d), so the farthest
    point of any cell sits within half the radius."""
    return cover_radius(eps, horizon, dim) / math.sqrt(dim)


def _lattice_ball_slabs(dim: int, spacing: float, radius: float):
    """Yield the lattice points with norm <= radius as (dim, n) blocks of
    whole slabs, a slab being the points at one value x0 of the first
    coordinate; x0 ascends through the blocks. At dim 1, the whole ball is one
    (1, n) block.

    The (dim - 1)-dimensional rest of the grid is stable-sorted by squared
    norm once, so the slab at x0 is the prefix of it within r^2 - x0^2. The
    prefixes are stored as columns behind x0 in one (dim, widest slab)
    buffer. A slab of at least BLOCK_ROWS points is yielded as a view of that
    buffer, with no copy; runs of smaller consecutive slabs are copied
    together into one reused (dim, BLOCK_ROWS) block. Memory is
    O(max(BLOCK_ROWS, |slab|) * dim), with no per-slab mask or gather. Each
    block is valid until the next one is yielded; copy it to keep it."""
    reach = int(math.floor(radius / spacing))
    axis = np.arange(-reach, reach + 1, dtype=np.float64) * spacing
    if dim == 1:
        pts = axis[np.abs(axis) <= radius][None, :]
        if pts.shape[1]:
            yield pts
        return
    rest = np.stack(np.meshgrid(*([axis] * (dim - 1)), indexing="ij"),
                    axis=-1).reshape(-1, dim - 1)
    rest_sq = np.einsum("ij,ij->i", rest, rest)
    order = np.argsort(rest_sq, kind="stable")
    r2 = radius * radius
    # no slab is wider than the one at x0 = 0
    widest = int(np.searchsorted(rest_sq[order], r2, side="right"))
    order = order[:widest]
    rest_sq = rest_sq[order]
    slab = np.empty((dim, widest))
    slab[1:] = rest[order].T
    del rest, order
    block = np.empty((dim, BLOCK_ROWS))
    fill = 0
    for x0 in axis:
        n = int(np.searchsorted(rest_sq, r2 - x0 * x0, side="right"))
        if not n:
            continue
        if fill and fill + n > BLOCK_ROWS:
            yield block[:, :fill]
            fill = 0
        if n >= BLOCK_ROWS:
            slab[0, :n] = x0
            yield slab[:, :n]
            continue
        block[0, fill:fill + n] = x0
        block[1:, fill:fill + n] = slab[1:, :n]
        fill += n
    if fill:
        yield block[:, :fill]


def _first_argmax(scores: np.ndarray) -> np.ndarray:
    """np.argmax(scores, axis=0) of a (k, n) score table, row by row and
    without branches, in the smallest unsigned type that holds k - 1: an
    argmax down columns of a few entries is far slower. The comparisons are
    np.argmax's, so the lowest row wins ties, signed zeros included."""
    k = len(scores)
    best = scores[0].copy()
    acts = np.zeros(scores.shape[1], dtype=np.min_scalar_type(k - 1))
    for a in range(1, k):
        row = scores[a]
        # acts < a here, so a - acts does not wrap
        acts += (row > best).view(np.uint8) * (a - acts).astype(acts.dtype)
        np.maximum(best, row, out=best)
    return acts


def epsilon_net_search(oracle, eps: float, delta: float):
    """Enumerate a deterministic lattice cover of the unit parameter ball, map
    every candidate to the trajectory its argmax-of-features policy induces,
    and keep the empirically best trajectory.

    Candidates inducing the same action sequence share one estimate (the
    estimate depends only on the trajectory), so rollouts are spent per
    distinct policy, each sampled enough for a delta/|cover| union bound.

    The cover is streamed as (d, n) blocks of whole slabs (a slab is one value
    of the first coordinate) and each block is split into trajectories group
    by group: a group's scores are the (k, n) table features @ candidates, and
    its candidates are partitioned by their first argmax action. Memory is
    O(max(BLOCK_ROWS, |slab|) * d), with |slab| <= (2 * radius / spacing)^(d-1),
    not the whole ball.

    Near-ties are decided by float rounding. toys.ToyLinearMdp at d = 2 plants
    sibling features that are equal in exact arithmetic, and apart by rounding
    alone, whenever two siblings share a quantized value and a noise sign. A
    lattice point's exact score gap between such siblings can be ~1e-17, and
    which of them wins then depends on the BLAS kernel path that the point's
    position in its group takes.
    """
    d, H = oracle.dim, oracle.horizon
    spacing = cover_spacing(eps, H, d)
    radius = 1.0 + spacing * math.sqrt(d) / 2  # margin so ball points keep a cover point
    size = (2 * int(math.floor(radius / spacing)) + 1) ** d
    if size > COVER_BUDGET:
        raise ResourceLimitError(
            f"lattice cover needs ~{size} points, over budget {COVER_BUDGET}")

    s0 = oracle.initial_state()

    @cache
    def sa_features(s):
        return np.stack([oracle.features_sa(s, a) for a in range(oracle.num_actions)])

    trajectory_counts: dict = {}

    def settle(s, path, count):
        """Count `count` candidates whose trajectory ends at s; False if it goes on."""
        if not (oracle.is_terminal(s) or len(path) >= H):
            return False
        trajectory_counts[path] = trajectory_counts.get(path, 0) + count
        return True

    cover_points = 0
    for block in _lattice_ball_slabs(d, spacing, radius):
        n = block.shape[1]
        cover_points += n
        groups = [] if settle(s0, (), n) else [(s0, block, ())]
        while groups:
            s, cands, prefix = groups.pop()
            acts = _first_argmax(sa_features(s) @ cands)
            for a in range(oracle.num_actions):
                chosen = acts == a
                count = int(np.count_nonzero(chosen))
                if not count:
                    continue
                nxt, path = oracle.transition(s, a), prefix + (a,)
                # only groups that go on are copied out
                if not settle(nxt, path, count):
                    groups.append((nxt, cands.compress(chosen, axis=1), path))

    n_unique = len(trajectory_counts)
    n_roll = max(MIN_ROLLOUTS,
                 math.ceil(math.log(2 * max(cover_points, 1) / delta)
                           / (2 * eps * eps)))
    best_actions, best_est = None, -math.inf
    for actions in sorted(trajectory_counts):
        total, _ = _estimate_kappa(oracle, s0, actions, n_roll)
        if total > best_est:
            best_actions, best_est = list(actions), total
    info = {"cover_points": cover_points, "unique_policies": n_unique,
            "rollouts_per_policy": n_roll, "best_estimate": best_est,
            "trajectory_counts": dict(trajectory_counts)}
    return best_actions, info


# --- horizon-split basis algorithm ------------------------------------------------

KAPPA_SAMPLES = 64  # reward samples per step of a path inside one segment
RESIDUAL_TOL = 1e-8  # largest basis-expansion residual of a consistent system
PIVOT_TOL = 1e-10  # smallest residual norm kept as a new basis direction


def select_independent(vectors):
    """Indices of a maximal independent subset by elimination with pivoting:
    repeatedly keep the vector with the largest residual against the running
    orthonormal basis, stopping at pivot tolerance PIVOT_TOL.

    Pivoting matters beyond rank: it keeps the chosen basis well-conditioned so
    downstream least-squares expansion coefficients stay small and sampled
    estimation noise is not amplified."""
    mat = np.array(vectors, dtype=np.float64)
    if mat.size == 0:
        return []
    residuals = mat.copy()
    kept = []
    while True:
        norms = np.linalg.norm(residuals, axis=1)
        pivot = int(np.argmax(norms))
        if norms[pivot] <= PIVOT_TOL:
            break
        direction = residuals[pivot] / norms[pivot]
        residuals -= np.outer(residuals @ direction, direction)
        kept.append(pivot)
    return sorted(kept)


def _segment_levels(horizon: int, from_level: int = 0):
    root = math.isqrt(horizon)
    if root * root != horizon:
        raise ParameterError(
            f"horizon {horizon} is not a perfect square; pad the MDP or refuse")
    return sorted({lvl for lvl in range(0, horizon, root)
                   if lvl >= from_level} | {from_level, horizon - 1})


@dataclass
class _BasisEntry:
    state: object    # the state the action is taken at
    action: int
    features: np.ndarray


def horizon_split_q(oracle, eps: float, delta: float, start=None, from_level: int = 0,
                    sample_cap: int = 50_000):
    """Q estimates at a state via sqrt(H)-segment feature bases.

    Builds one <= d sized basis of state-action features per segment boundary,
    learns terminal-layer Q by repeated reward sampling, and back-propagates
    through exact basis expansions combined with sampled path rewards. Returns
    ({(state, action): estimate} at the query state, info).
    """
    s0 = oracle.initial_state() if start is None else start
    k = oracle.num_actions
    levels = _segment_levels(oracle.horizon, from_level)
    root_pairs = [_BasisEntry(s0, a, np.asarray(oracle.features_sa(s0, a)))
                  for a in range(k)]
    bases: list[list[_BasisEntry]] = []
    kept = select_independent([e.features for e in root_pairs])
    bases.append([root_pairs[i] for i in kept])

    for t in range(1, len(levels)):
        gap = levels[t] - levels[t - 1]
        candidates = []
        for entry in bases[t - 1]:
            for tail in product(range(k), repeat=gap - 1):
                s = _walk(oracle, entry.state, (entry.action,) + tail)
                if oracle.is_terminal(s):
                    continue
                for a in range(k):
                    candidates.append(
                        _BasisEntry(s, a, np.asarray(oracle.features_sa(s, a))))
        kept = select_independent([e.features for e in candidates])
        if candidates and not kept:
            # e.g. oracles that zero out features on terminal-entering pairs:
            # their Q values are not linear in the features there, and nothing
            # can be expanded against an empty basis
            raise InvariantViolation(
                f"no independent state-action features at level {levels[t]}; "
                "the estimator needs features that carry the Q values")
        bases.append([candidates[i] for i in kept])

    segments = len(levels) - 1
    total_pairs = sum(len(b) for b in bases) + k
    accuracy = (eps / (2 * oracle.horizon)) * (2 * oracle.dim) ** (-segments)
    theoretical = math.ceil(math.log(2 * total_pairs / delta) / (2 * accuracy ** 2))
    n_term = min(theoretical, sample_cap)

    q_values: list[np.ndarray] = [None] * len(bases)
    q_values[-1] = np.array([
        oracle.sample_reward_batch(e.state, e.action, n_term) / n_term
        for e in bases[-1]
    ])
    max_residual = 0.0
    # a level every path ends before has an empty basis, never expanded against
    mats = [np.stack([e.features for e in basis], axis=1) if basis else None
            for basis in bases]

    def expand(feat, level_idx):
        nonlocal max_residual
        mat = mats[level_idx]
        alpha, *_ = np.linalg.lstsq(mat, feat, rcond=None)
        resid = float(np.linalg.norm(mat @ alpha - feat))
        max_residual = max(max_residual, resid)
        if resid > RESIDUAL_TOL:
            raise InvariantViolation(
                f"feature expansion residual {resid:.3e} exceeds {RESIDUAL_TOL}; "
                "inconsistent basis system")
        return float(alpha @ q_values[level_idx])

    def backward_estimate(entry: _BasisEntry, t: int) -> float:
        gap = levels[t + 1] - levels[t]
        best = -math.inf
        for tail in product(range(k), repeat=gap - 1):
            kappa, s = _estimate_kappa(oracle, entry.state, (entry.action,) + tail,
                                       KAPPA_SAMPLES)
            if oracle.is_terminal(s):
                best = max(best, kappa)
                continue
            for a in range(k):
                feat = np.asarray(oracle.features_sa(s, a))
                best = max(best, kappa + expand(feat, t + 1))
        return best

    for t in range(segments - 1, -1, -1):
        q_values[t] = np.array([backward_estimate(e, t) for e in bases[t]])

    qest = {}
    basis0 = {e.action: i for i, e in enumerate(bases[0])}
    for a in range(k):
        if a in basis0:
            qest[(s0, a)] = float(q_values[0][basis0[a]])
        else:
            qest[(s0, a)] = expand(root_pairs[a].features, 0)
    info = {"basis_sizes": [len(b) for b in bases],
            "max_residual": max_residual,
            "terminal_samples": n_term,
            "theoretical_terminal_samples": theoretical,
            "levels": levels}
    return qest, info


def horizon_split_policy(oracle, eps: float, delta: float, sample_cap: int = 50_000):
    """Iterate the horizon-split estimator along the induced trajectory: at each
    visited state estimate Q, act on the argmax, repeat. Returns the action
    list, the accumulated Q table (covering every visited state), and info."""
    s = oracle.initial_state()
    level = 0
    actions = []
    q_all: dict = {}
    infos = []
    while not oracle.is_terminal(s):
        qest, info = horizon_split_q(oracle, eps, delta, start=s,
                                     from_level=level, sample_cap=sample_cap)
        q_all.update(qest)
        infos.append(info)
        best = greedy_on_q(q_all, oracle)(s)
        actions.append(best)
        s = oracle.transition(s, best)
        level += 1
    return actions, q_all, infos
