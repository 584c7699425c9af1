import hashlib

import numpy as np
import pytest

from satmdp.errors import ParameterError
from satmdp.toys import ToyLinearMdp, _planted

# one sha256 over the planted draws of the criteria 8-10 and baselines specs
# (depth, k, dim, structure seed): theta_star, the node values, the pair
# features and the optimal path of each, in this order
TOY_PLANTED_SPECS = [(3, 3, 2, 5), (4, 3, 2, 9), (2, 3, 3, 7), (4, 3, 2, 5),
                     (9, 3, 4, 21)]
TOY_PLANTED_SHA256 = \
    "b20b35c92a07d498e5d144b2632b99449a820af21d7c2f97dde150ac16f25724"


@pytest.fixture(scope="module")
def toy():
    return ToyLinearMdp(depth=3, num_actions=3, dim=2, structure_seed=5,
                        reward_seed=11)


# depth=1: the root is the only internal node; dim=1: no room for noise
# orthogonal to theta, so every feature vector is its value times theta
@pytest.fixture(scope="module", params=[
    dict(depth=3, dim=2), dict(depth=1, dim=2), dict(depth=3, dim=1)],
    ids=["depth3-dim2", "depth1", "dim1"])
def planted_toy(request):
    return ToyLinearMdp(num_actions=3, structure_seed=5, reward_seed=11,
                        **request.param)


def test_planted_linearity(planted_toy):
    toy = planted_toy
    for (s, a), q in toy.q_star_table().items():
        assert np.dot(toy.theta_star, toy.features_sa(s, a)) == pytest.approx(
            q, abs=1e-12)


def test_feature_norms_at_most_one(planted_toy):
    toy = planted_toy
    assert np.linalg.norm(toy.theta_star) == pytest.approx(1.0)
    for (s, a) in toy.q_star_table():
        assert np.linalg.norm(toy.features_sa(s, a)) <= 1.0 + 1e-12


def test_bellman_consistency(planted_toy):
    toy = planted_toy
    q_star = toy.q_star_table()
    for path, _a in q_star:
        assert toy.v_star(path) == pytest.approx(
            max(q_star[(path, a)] for a in range(toy.num_actions)))


def test_value_via_backward_induction_matches_q(toy):
    # independent oracle: brute-force over all completions
    def best_leaf(path):
        if len(path) == toy.horizon:
            return 0.0
        best = -1.0
        for a in range(toy.num_actions):
            child = path + (a,)
            if len(child) == toy.horizon:
                val = toy.exact_mean(path, a)
            else:
                val = best_leaf(child)
            best = max(best, val)
        return best

    assert toy.v_star(()) == pytest.approx(best_leaf(()))
    assert toy.v_star(()) == 0.9


def test_policy_value_follows_leaf_mean(toy):
    actions = list(toy.optimal_path)
    assert toy.policy_value(actions) == pytest.approx(toy.v_star())
    other = [(a + 1) % 3 for a in actions]
    assert toy.policy_value(other) <= 0.7 + 1e-12


def test_rewards_only_on_final_transition(toy):
    s = ()
    for a in toy.optimal_path[:-1]:
        assert toy.exact_mean(s, a) == 0.0
        s = toy.transition(s, a)
    assert toy.exact_mean(s, toy.optimal_path[-1]) > 0


def test_bernoulli_sampling_matches_mean(toy):
    s = ()
    for a in toy.optimal_path[:-1]:
        s = toy.transition(s, a)
    a = toy.optimal_path[-1]
    n = 50_000
    ones = toy.sample_reward_batch(s, a, n)
    assert ones / n == pytest.approx(toy.exact_mean(s, a), abs=0.01)


def test_terminal_interface(toy):
    leaf = toy.optimal_path
    assert toy.is_terminal(leaf)
    with pytest.raises(ParameterError):
        toy.transition(leaf, 0)
    with pytest.raises(ParameterError):
        toy.features_sa(leaf, 0)
    # an action outside range(k) would index another node of the tree
    with pytest.raises(ParameterError):
        toy.features_sa((), toy.num_actions)
    # the reward calls refuse what transition refuses, at every depth
    for s in ((), leaf[:1], leaf[:-1]):
        for a in (-1, toy.num_actions):
            with pytest.raises(ParameterError):
                toy.exact_mean(s, a)
            with pytest.raises(ParameterError):
                toy.sample_reward_batch(s, a, 10)
    for a in range(toy.num_actions):
        with pytest.raises(ParameterError):
            toy.exact_mean(leaf, a)
        with pytest.raises(ParameterError):
            toy.sample_reward_batch(leaf, a, 10)


def test_construction_validation():
    with pytest.raises(ParameterError):
        ToyLinearMdp(depth=0, num_actions=3, dim=2)
    with pytest.raises(ParameterError):
        ToyLinearMdp(depth=2, num_actions=1, dim=2)


def test_planted_golden():
    digest = hashlib.sha256()
    for depth, k, dim, seed in TOY_PLANTED_SPECS:
        toy = ToyLinearMdp(depth, k, dim, structure_seed=seed)
        for part in (toy.theta_star, toy._value, toy._psi_sa):
            digest.update(part.tobytes())
        digest.update(bytes(toy.optimal_path))
    assert digest.hexdigest() == TOY_PLANTED_SHA256


def test_toys_of_one_structure_share_their_planted_arrays():
    """A new reward seed is a new reward stream over the very same tree; a
    new structure seed or dim is another tree."""
    spec = dict(depth=4, num_actions=3, dim=2, structure_seed=9)
    a = ToyLinearMdp(reward_seed=1, **spec)
    b = ToyLinearMdp(reward_seed=2, **spec)
    for name in ("theta_star", "optimal_path", "_value", "_psi_sa"):
        assert getattr(a, name) is getattr(b, name)
    s = a.optimal_path[:-1]
    action = a.optimal_path[-1]
    assert [a.sample_reward_batch(s, action, 100) for _ in range(5)] != \
        [b.sample_reward_batch(s, action, 100) for _ in range(5)]
    for other in (dict(spec, structure_seed=10), dict(spec, dim=3)):
        c = ToyLinearMdp(reward_seed=1, **other)
        for name in ("theta_star", "_value", "_psi_sa"):
            assert getattr(c, name) is not getattr(a, name)


def test_shared_planted_arrays_are_read_only(toy):
    for array in (toy.theta_star, toy._value, toy._psi_sa):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_planted_cache_stays_within_its_bound():
    bound = _planted.cache_info().maxsize
    for seed in range(bound + 3):
        ToyLinearMdp(depth=2, num_actions=2, dim=2, structure_seed=100 + seed)
        assert _planted.cache_info().currsize <= bound
    assert _planted.cache_info().currsize == bound
