"""Hand-built deterministic tree MDPs with exactly linear optimal values.

A state is its node's heap index: node 0 is the root and the children of node
i are k*i+1 .. k*i+k, so `transition(i, a)` is k*i+1+a, the internal nodes are
0 .. (k^H-1)/(k-1) - 1 and every level lists its action paths in
lexicographic order. Every query reads the planted arrays at an index; none
walks an action path. A single Bernoulli payout arrives on the transition out
of depth H-1. Only state-action pairs have features (`features_sa`, the one
feature name of the oracle protocol), planted as Q*(s,a) * theta + noise
orthogonal to theta, so Q* is exactly linear, feature norms stay <= 1, and
only the theta direction carries value signal. Leaf means are quantized with one
designated optimal path well above the rest, keeping action gaps large enough
for sampled estimates to resolve.

The planted arrays are stored in heap order and depend only on (depth, k,
dim, structure seed): `_planted` draws them once per such spec and every toy
of the spec shares them read-only, so a toy owns only its reward stream.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ParameterError

OPTIMAL_MEAN = 0.9
RUNNER_UP = 0.7
NOISE_SCALE = 0.6


class ToyLinearMdp:
    def __init__(self, depth: int, num_actions: int, dim: int,
                 structure_seed: int = 0, reward_seed: int = 1):
        if depth < 1 or num_actions < 2 or dim < 1:
            raise ParameterError("need depth >= 1, k >= 2, d >= 1")
        self.horizon = depth
        self.num_actions = num_actions
        self.dim = dim
        self._internal = (num_actions ** depth - 1) // (num_actions - 1)
        self._rng = np.random.Generator(np.random.Philox(key=reward_seed))
        (self.theta_star, self.optimal_path, self._value,
         self._psi_sa) = _planted(depth, num_actions, dim, structure_seed)

    def _child(self, s, a) -> int:
        """Heap index of the child that a enters from s; the one check of every
        (s, a) query, refusing a state that is no internal node (a terminal
        leaf, or no node at all) and an action outside range(k)."""
        if not 0 <= s < self._internal:
            raise ParameterError(f"state {s} is not an internal node")
        if not 0 <= a < self.num_actions:
            raise ParameterError(f"action {a} out of range")
        return self.num_actions * s + 1 + a

    # --- oracle interface ---

    def initial_state(self):
        return 0

    def transition(self, s, a):
        return self._child(s, a)

    def is_terminal(self, s) -> bool:
        return s >= self._internal

    def exact_mean(self, s, a) -> float:
        child = self._child(s, a)
        if child < self._internal:
            return 0.0
        return float(self._value[child])

    def sample_reward_batch(self, s, a, count):
        mean = self.exact_mean(s, a)
        if mean == 0.0:
            return 0
        return int(self._rng.binomial(count, mean))

    def features_sa(self, s, a):
        return self._psi_sa[self._child(s, a) - 1]

    # --- exact evaluation for tests ---

    def v_star(self, s=0) -> float:
        if not 0 <= s < len(self._value):
            raise ParameterError(f"state {s} is not a node of the tree")
        if self.is_terminal(s):
            return 0.0
        return float(self._value[s])

    def q_star_table(self) -> dict:
        """{(state, action): Q*} over every non-terminal state, in post-order:
        the pairs below a child come before the pair that enters it."""
        k, value = self.num_actions, self._value.tolist()
        table = {}

        def fill(s):
            for a in range(k):
                child = k * s + 1 + a
                if child < self._internal:
                    fill(child)
                table[(s, a)] = value[child]

        fill(0)
        return table

    def policy_value(self, actions) -> float:
        """Exact value of an explicit action sequence from the root."""
        s = 0
        total = 0.0
        for a in actions:
            if self.is_terminal(s):
                break
            total += self.exact_mean(s, a)
            s = self.transition(s, a)
        return total


# criteria 8-10 and the baselines build each spec again for every reward seed;
# the bound keeps a sweep over many specs from holding every tree alive
@lru_cache(maxsize=8)
def _planted(depth: int, k: int, dim: int, structure_seed: int) -> tuple:
    """The planted half of a toy, drawn from the structure seed alone:
    (theta_star, optimal_path, value, psi_sa), every array read-only, shared
    by every toy of one (depth, k, dim, structure seed).

    value[i] is a leaf's mean payout or an internal node's V*; the leaf means
    are quantized to 0.05 steps in [0.10, RUNNER_UP), the optimal leaf's is
    OPTIMAL_MEAN. psi_sa[i - 1] is the feature of the pair (s, a) that enters
    node i, whose value is Q*(s, a).

    psi_sa is planted in the buffer its normals were copied into, so the
    build peaks where the draw and that copy coexist: at about 2.2x the bytes
    it keeps at (9, 3, 4) and 2.5x at (16, 2, 2)."""
    struct = np.random.Generator(np.random.Philox(key=structure_seed))
    theta = struct.normal(size=dim)
    theta_star = theta / np.linalg.norm(theta)
    optimal_path = tuple(int(a) for a in struct.integers(0, k, size=depth))

    internal = (k ** depth - 1) // (k - 1)
    levels = struct.integers(2, int(RUNNER_UP / 0.05) + 1, size=k ** depth)
    value = np.concatenate([np.zeros(internal), levels * 0.05])
    optimal = 0
    for a in optimal_path:
        optimal = k * optimal + 1 + a
    value[optimal] = OPTIMAL_MEAN
    for t in range(depth - 1, -1, -1):
        first, width = (k ** t - 1) // (k - 1), k ** t
        children = value[first + width:first + width * (k + 1)]
        value[first:first + width] = children.reshape(width, k).max(axis=1)

    # per internal node: one raw vector per action after one unused slot,
    # kept so the stream keeps its layout; cutting the used slots out at once
    # copies them and frees the draw before planting starts
    raw = struct.normal(size=(internal, 1 + k, dim))[:, 1:].reshape(-1, dim)
    psi_sa = _plant(value[1:], raw, theta_star)
    theta_star.flags.writeable = False
    value.flags.writeable = False
    return theta_star, optimal_path, value, psi_sa


def _plant(values: np.ndarray, raw: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Rows values * theta plus the part of `raw` orthogonal to theta, rescaled
    to NOISE_SCALE * sqrt(1 - value^2), planted in `raw` itself, which is
    returned read-only. Each step works one column at a time, so no temporary
    is larger than a column. Rows are reduced with np.vecdot, which runs the
    dot kernel of np.dot and np.linalg.norm on each row; a matrix product sums
    in another order and moves the last bits of the features."""
    along = np.vecdot(raw, theta)
    for j, t in enumerate(theta):
        raw[:, j] -= along * t
    del along
    norm = np.sqrt(np.vecdot(raw, raw))
    # the projection leaves nothing when dim = 1: those vectors get no noise
    budget = NOISE_SCALE * np.sqrt(np.maximum(0.0, 1.0 - values * values))
    scale = np.divide(budget, norm, out=np.zeros_like(norm), where=norm > 0)
    for j, t in enumerate(theta):
        raw[:, j] *= scale
        raw[:, j] += values * t
    raw.flags.writeable = False
    return raw
