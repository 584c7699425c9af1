"""Hand-built deterministic tree MDPs with exactly linear optimal values.

States are action tuples; a single Bernoulli payout arrives on the transition
out of depth H-1. Features are planted as Q*(s,a) * theta + noise orthogonal to
theta, so Q* and V* are exactly linear, feature norms stay <= 1, and only the
theta direction carries value signal. Leaf means are quantized with one
designated optimal path well above the rest, keeping action gaps large enough
for sampled estimates to resolve.

The tree is stored as arrays in heap order: node 0 is the root and the
children of node i are k*i+1 .. k*i+k, so every level lists its action paths
in lexicographic order.
"""
from __future__ import annotations

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
        k = num_actions
        self.horizon = depth
        self.num_actions = k
        self.dim = dim
        self._rng = np.random.Generator(np.random.Philox(key=reward_seed))

        struct = np.random.Generator(np.random.Philox(key=structure_seed))
        theta = struct.normal(size=dim)
        self.theta_star = theta / np.linalg.norm(theta)
        self.optimal_path = tuple(int(a) for a in struct.integers(0, k, size=depth))

        # _value[i] is a leaf's mean payout or an internal node's V*; the
        # means are quantized to 0.05 steps in [0.10, RUNNER_UP)
        internal = (k ** depth - 1) // (k - 1)
        levels = struct.integers(2, int(RUNNER_UP / 0.05) + 1, size=k ** depth)
        self._value = np.concatenate([np.zeros(internal), levels * 0.05])
        self._value[self._node(self.optimal_path)] = OPTIMAL_MEAN
        for t in range(depth - 1, -1, -1):
            first, width = (k ** t - 1) // (k - 1), k ** t
            children = self._value[first + width:first + width * (k + 1)]
            self._value[first:first + width] = children.reshape(width, k).max(axis=1)

        # per internal node: the raw vector of the state, then one per action;
        # the pair (s, a) is stored at the node it enters, whose value is Q*(s, a)
        raw = struct.normal(size=(internal, 1 + k, dim))
        self._psi_s = _plant(self._value[:internal], raw[:, 0], self.theta_star)
        self._psi_sa = _plant(self._value[1:], raw[:, 1:].reshape(-1, dim),
                              self.theta_star)

    def _node(self, s) -> int:
        """Heap index of the state s."""
        i = 0
        for a in s:
            if not 0 <= a < self.num_actions:
                raise ParameterError(f"action {a} out of range")
            i = self.num_actions * i + 1 + a
        return i

    # --- oracle interface ---

    def initial_state(self):
        return ()

    def transition(self, s, a):
        if len(s) >= self.horizon:
            raise ParameterError("cannot act on a terminal state")
        if not 0 <= a < self.num_actions:
            raise ParameterError(f"action {a} out of range")
        return s + (a,)

    def is_terminal(self, s) -> bool:
        return len(s) >= self.horizon

    def exact_mean(self, s, a) -> float:
        if len(s) == self.horizon - 1:
            return float(self._value[self._node(s + (a,))])
        return 0.0

    def sample_reward_batch(self, s, a, count):
        mean = self.exact_mean(s, a)
        if mean == 0.0:
            return 0
        return int(self._rng.binomial(count, mean))

    def features(self, s):
        if self.is_terminal(s):
            return np.zeros(self.dim)
        return self._psi_s[self._node(s)]

    def features_sa(self, s, a):
        if self.is_terminal(s):
            raise ParameterError("no state-action features at a terminal state")
        return self._psi_sa[self._node(s + (a,)) - 1]

    # --- exact evaluation for tests ---

    def v_star(self, s=()) -> float:
        if self.is_terminal(s):
            return 0.0
        return float(self._value[self._node(s)])

    def q_star_table(self) -> dict:
        """{(state, action): Q*} over every non-terminal state, in post-order:
        the pairs below a child come before the pair that enters it."""
        k, value = self.num_actions, self._value.tolist()
        table = {}

        def fill(s, i):
            for a in range(k):
                child = k * i + 1 + a
                if len(s) + 1 < self.horizon:
                    fill(s + (a,), child)
                table[(s, a)] = value[child]

        fill((), 0)
        return table

    def policy_value(self, actions) -> float:
        """Exact value of an explicit action sequence from the root."""
        s = ()
        total = 0.0
        for a in actions:
            if self.is_terminal(s):
                break
            total += self.exact_mean(s, a)
            s = self.transition(s, a)
        return total


def _plant(values: np.ndarray, raw: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Rows values * theta plus the part of `raw` orthogonal to theta, rescaled
    to NOISE_SCALE * sqrt(1 - value^2), as one read-only array. Rows are
    reduced with np.vecdot, which runs the dot kernel of np.dot and
    np.linalg.norm on each row; a matrix product sums in another order and
    moves the last bits of the features."""
    raw = raw - np.vecdot(raw, theta)[..., None] * theta
    norm = np.sqrt(np.vecdot(raw, raw))
    # the projection leaves nothing when dim = 1: those vectors get no noise
    noisy = norm > 0
    budget = NOISE_SCALE * np.sqrt(np.maximum(0.0, 1.0 - values * values))
    scale = np.divide(budget, norm, out=np.zeros_like(norm), where=noisy)
    noise = np.where(noisy[..., None], raw * scale[..., None], 0.0)
    vec = values[..., None] * theta + noise
    vec.flags.writeable = False
    return vec
