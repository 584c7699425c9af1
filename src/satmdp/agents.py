"""Policies and algorithms against deterministic linear-feature MDP oracles:
the seeded, query-counting oracle of a SAT instance, the distance-greedy
reference policy, the RL-to-SAT reduction driver, and the two brute-force RL
baselines (lattice-cover policy search and the horizon-split basis algorithm).

Two bottom-up passes over an enumerated game tree, or over its summary DAG
(`mdp.summary_tree`), give values at every node at once:
`tree_optimal_values` (V*, backward induction) and `tree_greedy_values` (the
greedy policy's value, equal to `greedy_rollout_value` at each node).

The baselines and the reduction call an oracle through these names only;
`SatOracle` and `toys.ToyLinearMdp` both provide them:
- `initial_state()`, `transition(s, a)`, `is_terminal(s)`: deterministic moves;
- `sample_reward_batch(s, a, count)`: the sum of `count` reward samples at (s, a);
- `features_sa(s, a)`: the feature vector of the pair (s, a), entries in
  [-1, 1]; the lattice-cover search rounds them to integer multiples of 2^-K
  and decides every point on the rounded scores;
- `num_actions`, `horizon`, `dim`: k, H and d.

States are hashable and are their own keys: two are equal exactly when they
are one node of the oracle's tree.

The lattice-cover search's counts depend only on the key (d, H, k, ball
bound B, rounding bits K) and on what it reads: each scored state's rounded
features and whether each walked edge ends a trajectory. `_recordings` keeps
the reads and counts of the last 8 searches, least recently used dropped. A
search replays each recording of its key through its own oracle, walking
every recorded edge and checking where it ends, reading every recorded
state's features and comparing their bytes, and takes the recorded counts
when all match; the oracle sees the same queries either way.

A learner for the reduction is a callable on the oracle. It returns None, or
an action path that `a_sat` then executes from the initial state, since the
reduction also runs the learner's output policy.
"""
from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, product

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
    interfaces. Every query is charged through `_charge` before it runs, and
    every successor it prices or hands out is computed once, by `_successor`.
    The per-kind `counters` are the whole record: this oracle keeps no
    budget and no running total."""

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
    """Exact expected future reward of the greedy policy from s (no sampling):
    the single-state reference that `tree_greedy_values` must equal.

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
    """Optimal values for every node of a tree or summary DAG in one bottom-up
    pass (children indices always exceed the parent's): a running max of
    payout plus value over the node's distinct children. Values start at 0,
    which no payout undercuts, so a terminal, having no children, stays 0."""
    values = [0.0] * len(states)
    for i in range(len(states) - 1, -1, -1):
        for j in children[i]:
            values[i] = max(values[i], reward_mean(inst, states[j]) + values[j])
    return values


def tree_greedy_values(inst: MdpInstance, states, children):
    """`greedy_rollout_value` at every node of a tree or summary DAG in one
    bottom-up pass: a node is worth its greedy child's payout plus that
    child's value. A terminal, having no children, stays 0, and so does every
    node of an instance without w*."""
    values = [0.0] * len(states)
    if inst.wstar is None:
        return values
    for i in range(len(states) - 1, -1, -1):
        if children[i]:
            j = children[i][greedy_action(inst, states[i])]
            values[i] = reward_mean(inst, states[j]) + values[j]
    return values


# --- rollouts ---------------------------------------------------------------------

ACTION_BLOCK = 4096  # actions random_actions draws from its generator at a time


def random_actions(rng: np.random.Generator, k: int):
    """Uniform actions in range(k), drawn from `rng` ACTION_BLOCK at a time
    (read at each refill). A block of N yields the N actions that N calls of
    `int(rng.integers(0, k))` return, and leaves `rng` where those calls do,
    so reading the stream in blocks changes no action. The rest of a block is
    played by the next episode that draws from this iterator, never dropped."""
    while True:
        yield from rng.integers(0, k, size=ACTION_BLOCK).tolist()


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
    """State reached by a fixed action path, stopping early at a terminal, and
    the (state, action) steps taken."""
    s, steps = start, []
    for a in path:
        if oracle.is_terminal(s):
            break
        steps.append((s, a))
        s = oracle.transition(s, a)
    return s, steps


def _mean_reward(oracle, steps, samples: int) -> float:
    """Mean reward collected over (state, action) steps, `samples` draws each,
    sampled in step order."""
    total = 0.0
    for s, a in steps:
        total += oracle.sample_reward_batch(s, a, samples) / samples
    return total


# --- RL-to-SAT reduction ----------------------------------------------------------


class _WitnessFound(Exception):
    def __init__(self, w_mask):
        self.w_mask = w_mask


class _BudgetExhausted(Exception):
    pass


class ReductionOracle(SatOracle):
    """Monitored simulator, an instance without w* and so with zero reward
    everywhere. Its `_successor` takes the engine step and screens the state
    it makes for the gap-satisfied terminal, which `mdp` enters when the
    satisfaction threshold is met, before any pricing, so a witness always
    wins; the initial state is screened the same way. Total oracle queries
    are budgeted: `total` is kept equal to `sum(counters.values())` as each
    query is charged, in O(1), and a query that would take it past the
    budget is refused before it runs."""

    def __init__(self, instance: MdpInstance, seed: int, budget: int):
        if instance.wstar is not None:
            raise ParameterError(
                "the reduction runs against the simulator, which holds no wstar")
        super().__init__(instance, seed)
        self.budget = budget
        self.total = 0

    def _charge(self, kind, count=1):
        total = self.total + count
        if total > self.budget:
            raise _BudgetExhausted
        self.total = total
        self.counters[kind] += count

    def _successor(self, s, a):
        nxt = transition(self.instance, s, a)
        if nxt.stage == GAP_SATISFIED:
            raise _WitnessFound(nxt.w)
        return nxt

    def initial_state(self):
        s = super().initial_state()
        if s.stage == GAP_SATISFIED:
            raise _WitnessFound(s.w)
        return s


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
        actions = random_actions(np.random.Generator(np.random.Philox(key=seed)),
                                 oracle.num_actions)
        for _ in range(episodes):
            _play(oracle, lambda _s: next(actions))

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
LINE_BUDGET = 10_000_000  # most lattice lines epsilon_net_search searches
LINE_CHUNK = 8_192  # root lines searched together, in whole z_0 slabs
RECORDINGS = 8  # searches whose counts epsilon_net_search keeps for replay

# ((d, H, k, B, K), reads) -> (trajectory counts, cover points, lines) of each
# search kept, least recently used first; reads are paths and bytes, never
# states or oracles (`epsilon_net_search`)
_recordings: OrderedDict = OrderedDict()


def _check_accuracy(eps: float, delta: float, sample_cap: int = 1):
    """Refuse accuracy parameters the baselines cannot meet: eps must be
    finite and positive, delta in (0, 1) and sample_cap at least 1. Both
    baselines call it before they ask the oracle anything."""
    if not (math.isfinite(eps) and eps > 0):
        raise ParameterError(f"eps must be finite and positive, got {eps}")
    if not 0 < delta < 1:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    if not sample_cap >= 1:
        raise ParameterError(f"sample_cap must be at least 1, got {sample_cap}")


def cover_radius(eps: float, horizon: int, dim: int) -> float:
    return eps / (2 * horizon * math.sqrt(dim))


def cover_spacing(eps: float, horizon: int, dim: int) -> float:
    """Per-coordinate lattice spacing: (cover radius) / sqrt(d), so the farthest
    point of any cell sits within half the radius."""
    return cover_radius(eps, horizon, dim) / math.sqrt(dim)


def _isqrt(x: np.ndarray) -> np.ndarray:
    """math.isqrt of each entry of a nonnegative int64 array: the float square
    root, corrected by one where it rounded across an integer."""
    root = np.sqrt(x).astype(np.int64)
    root -= root * root > x
    root += (root + 1) * (root + 1) <= x
    return root


def _lattice_lines(dim: int, bound: int):
    """Yield the lines of the integer ball sum(z ** 2) <= bound as (rest, reach)
    chunks. A line fixes z_0 .. z_{d-2}, a column of `rest` ((d - 1, n) floats
    holding integers), and its last coordinate runs over [-reach, reach], with
    reach = isqrt(bound - |rest|^2). A chunk holds whole slabs (a slab is the
    lines at one z_0), z_0 ascending, and at most LINE_CHUNK lines unless one
    slab alone is wider. At dim 1 the ball is one line with an empty rest.

    The (d - 2)-dimensional cube under the slabs is sorted by squared norm once,
    so the slab at z_0 is the prefix of it within bound - z_0^2."""
    top = math.isqrt(bound)
    if dim == 1:
        yield np.empty((0, 1)), np.array([top])
        return
    inner = np.array(list(product(range(-top, top + 1), repeat=dim - 2)),
                     dtype=np.int64)
    inner_sq = (inner * inner).sum(axis=1)
    order = np.argsort(inner_sq, kind="stable")
    inner, inner_sq = inner[order], inner_sq[order]
    firsts = np.arange(-top, top + 1)
    widths = np.searchsorted(inner_sq, bound - firsts * firsts, side="right")

    def chunk(start, stop):
        ws = widths[start:stop]
        first = np.repeat(firsts[start:stop], ws)
        pick = np.arange(ws.sum()) - np.repeat(np.cumsum(ws) - ws, ws)
        # C order: at d >= 4 the stack of inner's transpose is F-ordered, and
        # the cut passes read rest row by row
        rest = np.vstack([first, inner[pick].T]).astype(np.float64, order="C")
        return rest, _isqrt(bound - first * first - inner_sq[pick])

    start = total = 0
    for i, width in enumerate(widths.tolist()):
        if total and total + width > LINE_CHUNK:
            yield chunk(start, i)
            start, total = i, 0
        total += width
    yield chunk(start, len(widths))


def _rounding_bits(dim: int, top: int) -> int:
    """The most bits K with dim * 2^(K + 1) * (top + 1) < 2^52: the search
    rounds features of magnitude at most 1 to integers of magnitude at most
    2^K, so a difference of two rows has entries of magnitude at most
    2^(K + 1), and each of its scores, and every partial sum of one, over a
    ball with |z_j| <= top and |t| <= top + 1 is an integer that a double
    holds exactly."""
    return 51 - (dim * (top + 1)).bit_length()


@cache
def _action_pairs(k: int):
    """The action pairs a < b of k actions as two index arrays, in
    combinations order."""
    return np.triu_indices(k, 1)


def _pair_cuts(features: np.ndarray, rest: np.ndarray, lo: np.ndarray,
               hi: np.ndarray):
    """Where each action pair a < b splits each line of a group, for the
    scores <features[a], z>, z = (rest column, t) and t in [lo, hi].

    `features` holds integers (`_rounding_bits`): every score difference
    g(t) = c + h t on a line is an integer of magnitude below 2^52, exact in
    doubles in any summation order. On one line g is linear, so the points
    where a wins (g >= 0: ties go to the lower action) form a half-line. The
    pair's upper action, a when h >= 0 and b otherwise, takes the points
    t >= cut and its lower action the points t < cut, with the cut ceil(-c/h)
    (h > 0) or floor(-c/h) + 1 (h < 0) clipped to [lo, hi + 1]; at h = 0 a
    takes the whole line where c >= 0 and none of it elsewhere. Returns
    (cuts (P, n) int64, upper (P,), lower (P,)), the P pairs in combinations
    order.

    One float division gives each cut exactly: a non-integer -c/h lies at
    least 1/|h| from every integer, and the division moves it by at most
    |c/h| 2^-53 < 1/|h|, since |c| < 2^53."""
    pair_a, pair_b = _action_pairs(len(features))
    diff = features[pair_a] - features[pair_b]
    top = hi + 1
    cuts = np.empty((len(diff), len(lo)), dtype=np.int64)
    # c stays 0 at d = 1, where a line has no fixed coordinates
    c, t = np.zeros(len(lo)), np.empty(len(lo))
    for p, row in enumerate(diff.tolist()):
        *coefs, h = row
        if coefs:
            np.multiply(rest[0], coefs[0], out=c)
        for dj, zj in zip(coefs[1:], rest[1:]):
            c += np.multiply(zj, dj, out=t)
        if h == 0:
            cuts[p] = np.where(c >= 0, lo, top)
            continue
        np.divide(c, -h, out=t)
        if h > 0:
            np.ceil(t, out=t)
        else:
            np.floor(t, out=t)
            t += 1
        np.maximum(t, lo, out=t)
        np.minimum(t, top, out=t)
        cuts[p] = t
    upper = np.where(diff[:, -1] >= 0, pair_a, pair_b)
    return cuts, upper, pair_a + pair_b - upper


def epsilon_net_search(oracle, eps: float, delta: float):
    """Enumerate a deterministic lattice cover of the unit parameter ball, map
    every candidate to the trajectory its argmax-of-features policy induces,
    and keep the empirically best trajectory.

    The cover is the integer ball sum(z ** 2) <= B, B = floor((radius /
    spacing)^2), scaled by the spacing. The search rounds each state's
    features once, to integer multiples of 2^-K with K from d and the ball
    (`_rounding_bits`), and the point theta = spacing * z takes, at each state,
    the lowest action a that maximises <round(2^K features_sa(s, a)), z>. That
    score is an exact integer, so a point's trajectory never depends on
    summation order, on BLAS or on the points searched with it. Rounding moves
    <features_sa(s, a), theta> by at most |theta|_1 2^-(K + 1). A search where
    that could reach the cover radius is refused with `ResourceLimitError`
    before its first query, and a feature entry above 1 in magnitude with
    `ParameterError`.

    Points are counted per line, not one by one: a line fixes every coordinate
    of z but the last, and on it every action pair splits at one integer cut
    (`_pair_cuts`), so each action takes one interval of the line. Groups of
    lines carry their intervals down the tree; the root lines come in chunks
    of whole z_0 slabs (`_lattice_lines`), so memory grows with LINE_CHUNK,
    not with the ball.

    The counts depend only on (d, H, k, B, K) and on what the search reads:
    the rounded features of each state it scores, and whether each edge it
    walks ends a trajectory (a terminal, or depth H). `_recordings` keeps the
    last RECORDINGS = 8 searches' reads, in the order first made, with their
    counts, and drops the least recently used. A search first replays each
    recording of its key through its own oracle, in recorded order: it walks
    each recorded edge and checks where it ends, and reads each recorded
    state's features and compares their bytes. A full match takes the
    recorded counts and builds no line; the first mismatch falls through to
    counting, which finds every read made so far in the search's caches.
    Every read of a replay follows matched reads of its ancestors, so it is
    one the search makes itself, in the same order: the oracle sees the same
    queries and `info` is the same on a hit and on a miss. Toys of one
    structure seed share their features, so every reward seed after a spec's
    first replays.

    Candidates inducing the same action sequence share one estimate (the
    estimate depends only on the trajectory), so rollouts are spent per
    distinct policy, each sampled enough for a delta/|cover| union bound. A
    rollout samples rewards along the states the search already reached, so
    it takes no transition.

    `info` counts the work: cover points and lines, distinct policies and
    their point counts, oracle transitions (each tree edge the search walks,
    once), `features_sa` calls and reward samples.
    """
    _check_accuracy(eps, delta)
    d, H, k = oracle.dim, oracle.horizon, oracle.num_actions
    spacing = cover_spacing(eps, H, d)
    radius = 1.0 + spacing * math.sqrt(d) / 2  # margin so ball points keep a cover point
    bound = math.floor((radius / spacing) ** 2)
    top = math.isqrt(bound)
    # the search costs per line: bound the lines by those of the cube
    line_bound = (2 * top + 1) ** (d - 1)
    if line_bound > LINE_BUDGET:
        raise ResourceLimitError(
            f"lattice cover needs up to {line_bound} lines, over budget "
            f"{LINE_BUDGET} lines")
    bits = _rounding_bits(d, top)
    # every ball point has |theta|_1 <= sqrt(d) |theta|_2 <= sqrt(d) radius
    slip = math.sqrt(d) * radius * 2.0 ** -(bits + 1)
    cover = cover_radius(eps, H, d)
    if slip >= cover:
        raise ResourceLimitError(
            f"features rounded to {bits} bits move a score by up to {slip:.3g}, "
            f"not under the cover radius {cover:.3g}")
    scale = 2.0 ** bits

    s0 = oracle.initial_state()
    work = {"transitions": 0, "feature_calls": 0}
    # (path, rounded-feature bytes) for each state scored and (path, whether
    # the trajectory ends there) for each edge walked, in the order first read
    reads = []

    @cache
    def sa_features(s, path):
        work["feature_calls"] += k
        feats = np.stack([oracle.features_sa(s, a) for a in range(k)])
        if not (np.abs(feats) <= 1).all():
            raise ParameterError(
                f"features of state {s!r} have an entry outside [-1, 1]")
        rounded = np.rint(feats * scale)
        reads.append((path, rounded.tobytes()))
        return rounded

    @cache
    def child(s, a):
        work["transitions"] += 1
        return oracle.transition(s, a)

    @cache
    def ends(s, path):
        end = oracle.is_terminal(s) or len(path) >= H
        reads.append((path, end))
        return end

    def replays(recorded):
        """Whether each recorded read, made here in its order, gives its
        recorded outcome; stops at the first that differs."""
        states = {(): s0}
        for path, seen in recorded:
            if isinstance(seen, bytes):
                if sa_features(states[path], path).tobytes() != seen:
                    return False
            else:
                s = states[path] = child(states[path[:-1]], path[-1]) if path else s0
                if ends(s, path) != seen:
                    return False
        return True

    def count_trajectories():
        """(trajectory counts, cover points, lines), counted line by line."""
        trajectory_counts: dict = {}

        def settle(s, path, count):
            """Count `count` candidates whose trajectory ends at s; False if it goes on."""
            if not ends(s, path):
                return False
            trajectory_counts[path] = trajectory_counts.get(path, 0) + count
            return True

        cover_points = lines = 0
        for rest, reach in _lattice_lines(d, bound):
            points = int((2 * reach + 1).sum())
            cover_points += points
            lines += len(reach)
            groups = [] if settle(s0, (), points) else [(s0, (), rest, -reach, reach)]
            while groups:
                s, prefix, rest, lo, hi = groups.pop()
                cuts, upper, lower = _pair_cuts(sa_features(s, prefix), rest, lo, hi)
                # action a takes [a_lo, a_end) of each line: above the cuts it
                # is the upper action of, below those it is the lower one of
                a_lo, a_end = [lo] * k, [hi + 1] * k
                for p, (up, down) in enumerate(zip(upper.tolist(), lower.tolist())):
                    a_lo[up] = np.maximum(a_lo[up], cuts[p])
                    a_end[down] = np.minimum(a_end[down], cuts[p])
                for a in range(k):
                    count = int(np.maximum(a_end[a] - a_lo[a], 0).sum())
                    if not count:
                        continue
                    nxt, path = child(s, a), prefix + (a,)
                    # only groups that go on are copied out
                    if not settle(nxt, path, count):
                        keep = a_end[a] > a_lo[a]
                        # rest[:, keep] would come back F-ordered; compress
                        # keeps each row contiguous for the cut passes
                        groups.append((nxt, path, rest.compress(keep, axis=1),
                                       a_lo[a][keep], a_end[a][keep] - 1))
        return trajectory_counts, cover_points, lines

    key = (d, H, k, bound, bits)
    hit = next((entry for entry in reversed(_recordings)
                if entry[0] == key and replays(entry[1])), None)
    if hit:
        _recordings.move_to_end(hit)
        trajectory_counts, cover_points, lines = _recordings[hit]
    else:
        trajectory_counts, cover_points, lines = count_trajectories()
        _recordings[key, tuple(reads)] = trajectory_counts, cover_points, lines
        if len(_recordings) > RECORDINGS:
            _recordings.popitem(last=False)

    n_unique = len(trajectory_counts)
    n_roll = max(MIN_ROLLOUTS,
                 math.ceil(math.log(2 * max(cover_points, 1) / delta)
                           / (2 * eps * eps)))
    best_actions, best_est = None, -math.inf
    for actions in sorted(trajectory_counts):
        # the trajectory's states, all read from the edges `child` cached
        states = accumulate(actions, child, initial=s0)
        total = _mean_reward(oracle, zip(states, actions), n_roll)
        if total > best_est:
            best_actions, best_est = list(actions), total
    info = {"cover_points": cover_points, "lines": lines,
            "unique_policies": n_unique, "rollouts_per_policy": n_roll,
            "best_estimate": best_est, "trajectory_counts": dict(trajectory_counts),
            **work,
            "reward_samples": n_roll * sum(map(len, trajectory_counts))}
    return best_actions, info


# --- horizon-split basis algorithm ------------------------------------------------

KAPPA_SAMPLES = 64  # reward samples per step of a path inside one segment
# largest residual of a basis expansion: every row expanded is a row of the
# matrix its basis was selected from, so only a numerical failure of the
# least-squares solve can exceed it
RESIDUAL_TOL = 1e-8
PIVOT_TOL = 1e-10  # smallest residual norm kept as a new basis direction


def select_independent(vectors):
    """Indices of a maximal independent subset of `vectors` (the rows of a 2-D
    array, or a list of equal-length vectors) by elimination with pivoting:
    repeatedly keep the vector with the largest residual against the running
    orthonormal basis, stopping at pivot tolerance PIVOT_TOL.

    Pivoting matters beyond rank: it keeps the chosen basis well-conditioned so
    downstream least-squares expansion coefficients stay small and sampled
    estimation noise is not amplified."""
    residuals = np.array(vectors, dtype=np.float64)
    if residuals.size == 0:
        return []
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


def horizon_split_q(oracle, eps: float, delta: float, start=None, from_level: int = 0,
                    sample_cap: int = 50_000):
    """Q estimates at a state via sqrt(H)-segment feature bases.

    Builds one <= d sized basis of state-action features per segment boundary,
    learns terminal-layer Q by repeated reward sampling, and back-propagates
    through exact basis expansions combined with sampled path rewards. Returns
    ({(state, action): estimate} at the query state, info).

    The forward pass walks every (basis pair, tail) path once, keeps its
    (state, action) steps and whether it ended, and reads the features of
    every action at its end, one row each of the next level's candidate
    matrix. The backward pass takes no transition: it expands a whole level
    against its basis in one least-squares solve, checks every column's
    residual against RESIDUAL_TOL, and samples each kept path's rewards. The
    root's actions outside its basis are expanded the same way.

    `info` counts the work: oracle transitions (every step of the forward
    walks), `features_sa` calls (each (state, action) pair is read once) and
    reward samples, beside the basis sizes, the largest residual and the
    terminal sample count.
    """
    _check_accuracy(eps, delta, sample_cap)
    s0 = oracle.initial_state() if start is None else start
    k = oracle.num_actions
    levels = _segment_levels(oracle.horizon, from_level)
    work = {"transitions": 0, "feature_calls": 0, "reward_samples": 0}

    def candidates(states):
        """Every (state, action) pair of `states` and their features, one row each."""
        pairs = [(s, a) for s in states for a in range(k)]
        work["feature_calls"] += len(pairs)
        feats = np.array([oracle.features_sa(s, a) for s, a in pairs],
                         dtype=np.float64).reshape(len(pairs), oracle.dim)
        return pairs, feats

    def tails(t):
        """The action paths after a basis pair's own action, level t to t + 1."""
        return product(range(k), repeat=levels[t + 1] - levels[t] - 1)

    pairs, feats = candidates([s0])
    level_feats = [feats]  # each level's candidate features
    walks = [None]  # from level 1: per (basis pair, tail) walk, (steps, ended)
    bases, mats = [], []
    for t in range(len(levels)):
        kept = select_independent(feats)
        if pairs and not kept:
            # e.g. oracles that zero out features on terminal-entering pairs:
            # their Q values are not linear in the features there, and nothing
            # can be expanded against an empty basis
            raise InvariantViolation(
                f"no independent state-action features at level {levels[t]}; "
                "the estimator needs features that carry the Q values")
        bases.append([pairs[i] for i in kept])
        mats.append(feats[kept].T)
        if t + 1 == len(levels):
            break
        states, level_walks = [], []
        for s, a in bases[t]:
            for tail in tails(t):
                end, steps = _walk(oracle, s, (a,) + tail)
                work["transitions"] += len(steps)
                ended = oracle.is_terminal(end)
                level_walks.append((steps, ended))
                if not ended:
                    states.append(end)
        pairs, feats = candidates(states)
        level_feats.append(feats)
        walks.append(level_walks)

    segments = len(levels) - 1
    total_pairs = sum(len(b) for b in bases) + k
    accuracy = (eps / (2 * oracle.horizon)) * (2 * oracle.dim) ** (-segments)
    theoretical = math.ceil(math.log(2 * total_pairs / delta) / (2 * accuracy ** 2))
    n_term = min(theoretical, sample_cap)

    q_values: list[np.ndarray] = [None] * len(bases)
    q_values[-1] = np.array([oracle.sample_reward_batch(s, a, n_term) / n_term
                             for s, a in bases[-1]])
    work["reward_samples"] += n_term * len(bases[-1])
    max_residual = 0.0

    def expand(feats, t):
        """Q values of feature rows, expanded against level t's basis."""
        nonlocal max_residual
        if not len(feats):  # a level every path ends before
            return np.empty(0)
        alpha, *_ = np.linalg.lstsq(mats[t], feats.T, rcond=None)
        resid = np.linalg.norm(mats[t] @ alpha - feats.T, axis=0)
        worst = float(resid.max())
        max_residual = max(max_residual, worst)
        if worst > RESIDUAL_TOL:
            raise InvariantViolation(
                f"feature expansion residual {worst:.3e} exceeds {RESIDUAL_TOL}; "
                "the least-squares expansion failed numerically")
        return q_values[t] @ alpha

    for t in range(segments - 1, -1, -1):
        # the best action's value at the end of each walk that goes on
        best_next = iter(expand(level_feats[t + 1], t + 1).reshape(-1, k)
                         .max(axis=1).tolist())
        estimates = []
        for steps, ended in walks[t + 1]:
            kappa = _mean_reward(oracle, steps, KAPPA_SAMPLES)
            work["reward_samples"] += KAPPA_SAMPLES * len(steps)
            estimates.append(kappa if ended else kappa + next(best_next))
        # each basis pair's best tail
        q_values[t] = np.array(estimates).reshape(
            len(bases[t]), k ** (levels[t + 1] - levels[t] - 1)).max(axis=1)

    root_q = {a: float(q) for (_, a), q in zip(bases[0], q_values[0])}
    rest = [a for a in range(k) if a not in root_q]
    root_q.update(zip(rest, expand(level_feats[0][rest], 0).tolist()))
    qest = {(s0, a): root_q[a] for a in range(k)}
    info = {"basis_sizes": [len(b) for b in bases],
            "max_residual": max_residual,
            "terminal_samples": n_term,
            "theoretical_terminal_samples": theoretical,
            "levels": levels, **work}
    return qest, info


def horizon_split_policy(oracle, eps: float, delta: float, sample_cap: int = 50_000):
    """Iterate the horizon-split estimator along the induced trajectory: at each
    visited state estimate Q, act on the argmax, repeat. Returns the action
    list, the accumulated Q table (covering every visited state), and info."""
    _check_accuracy(eps, delta, sample_cap)
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
