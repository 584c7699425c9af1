"""Hand-built deterministic tree MDPs with exactly linear optimal values.

States are action tuples; a single Bernoulli payout arrives on the transition
out of depth H-1. Features are planted as Q*(s,a) * theta + noise orthogonal to
theta, so Q* and V* are exactly linear, feature norms stay <= 1, and only the
theta direction carries value signal. Leaf means are quantized with one
designated optimal path well above the rest, keeping action gaps large enough
for sampled estimates to resolve.
"""
from __future__ import annotations

import numpy as np

from .agents import LinearRlOracle
from .errors import ParameterError


class ToyLinearMdp(LinearRlOracle):
    def __init__(self, depth: int, num_actions: int, dim: int,
                 structure_seed: int = 0, reward_seed: int = 1,
                 bernoulli: bool = True, optimal_mean: float = 0.9,
                 runner_up: float = 0.7, noise_scale: float = 0.6):
        if depth < 1 or num_actions < 2 or dim < 1:
            raise ParameterError("need depth >= 1, k >= 2, d >= 1")
        self.horizon = depth
        self.num_actions = num_actions
        self.dim = dim
        self.bernoulli = bernoulli
        self._rng = np.random.Generator(np.random.Philox(key=reward_seed))

        struct = np.random.Generator(np.random.Philox(key=structure_seed))
        theta = struct.normal(size=dim)
        self.theta_star = theta / np.linalg.norm(theta)

        self._leaf_mean: dict = {}
        optimal_path = tuple(int(struct.integers(0, num_actions))
                             for _ in range(depth))
        for path in _all_paths(depth, num_actions):
            # quantized to 0.05 steps in [0.10, runner_up]
            level = int(struct.integers(2, int(runner_up / 0.05) + 1))
            self._leaf_mean[path] = level * 0.05
        self._leaf_mean[optimal_path] = optimal_mean
        self.optimal_path = optimal_path

        self._q: dict = {}
        self._v: dict = {}
        self._fill_values(())
        self._psi_s: dict = {}
        self._psi_sa: dict = {}
        for path in _all_prefixes(depth, num_actions):
            if len(path) == depth:
                continue  # terminal: features are identically zero
            self._psi_s[path] = self._plant(self._v[path], struct, noise_scale)
            for a in range(num_actions):
                self._psi_sa[(path, a)] = self._plant(
                    self._q[(path, a)], struct, noise_scale)

    def _plant(self, value: float, rng, noise_scale: float) -> np.ndarray:
        raw = rng.normal(size=self.dim)
        raw -= np.dot(raw, self.theta_star) * self.theta_star
        norm = np.linalg.norm(raw)
        if norm > 0 and self.dim > 1:
            budget = noise_scale * np.sqrt(max(0.0, 1.0 - value * value))
            raw *= budget / norm
        else:
            raw = np.zeros(self.dim)
        vec = value * self.theta_star + raw
        vec.flags.writeable = False
        return vec

    def _fill_values(self, path) -> float:
        if len(path) == self.horizon:
            return 0.0  # leaves are past the payout; worth nothing onward
        best = -np.inf
        for a in range(self.num_actions):
            child = path + (a,)
            if len(child) == self.horizon:
                q = self._leaf_mean[child]
            else:
                q = self._fill_values(child)
            self._q[(path, a)] = q
            best = max(best, q)
        self._v[path] = best
        return best

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
            return self._leaf_mean[s + (a,)]
        return 0.0

    def sample_reward(self, s, a):
        mean = self.exact_mean(s, a)
        if not self.bernoulli:
            return mean
        if mean == 0.0:
            return 0
        return int(self._rng.random() < mean)

    def sample_reward_batch(self, s, a, count):
        mean = self.exact_mean(s, a)
        if not self.bernoulli:
            return mean * count
        if mean == 0.0:
            return 0
        return int(self._rng.binomial(count, mean))

    def features(self, s):
        if self.is_terminal(s):
            return np.zeros(self.dim)
        return self._psi_s[s]

    def features_sa(self, s, a):
        if self.is_terminal(s):
            raise ParameterError("no state-action features at a terminal state")
        return self._psi_sa[(s, a)]

    def digest(self, s):
        return s

    # --- exact evaluation for tests ---

    def v_star(self, s=()) -> float:
        if self.is_terminal(s):
            return 0.0
        return self._v[s]

    def q_star_table(self) -> dict:
        """{(digest, action): Q*} over every non-terminal state."""
        return {(path, a): q for (path, a), q in self._q.items()}

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


def _all_paths(depth: int, k: int):
    if depth == 0:
        yield ()
        return
    for prefix in _all_paths(depth - 1, k):
        for a in range(k):
            yield prefix + (a,)


def _all_prefixes(depth: int, k: int):
    for t in range(depth + 1):
        yield from _all_paths(t, k)
