import hashlib
from functools import reduce

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


def walk(toy, actions):
    """The state that `actions` reach from the root."""
    return reduce(toy.transition, actions, toy.initial_state())


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
    for s, _a in q_star:
        assert toy.v_star(s) == pytest.approx(
            max(q_star[(s, a)] for a in range(toy.num_actions)))


def test_value_via_backward_induction_matches_q(toy):
    # independent oracle: brute-force over all completions
    def best_leaf(s):
        best = -1.0
        for a in range(toy.num_actions):
            child = toy.transition(s, a)
            if toy.is_terminal(child):
                val = toy.exact_mean(s, a)
            else:
                val = best_leaf(child)
            best = max(best, val)
        return best

    root = toy.initial_state()
    assert toy.v_star(root) == pytest.approx(best_leaf(root))
    assert toy.v_star(root) == 0.9


def test_policy_value_follows_leaf_mean(toy):
    actions = list(toy.optimal_path)
    assert toy.policy_value(actions) == pytest.approx(toy.v_star())
    other = [(a + 1) % 3 for a in actions]
    assert toy.policy_value(other) <= 0.7 + 1e-12


def test_rewards_only_on_final_transition(toy):
    s = toy.initial_state()
    for a in toy.optimal_path[:-1]:
        assert toy.exact_mean(s, a) == 0.0
        s = toy.transition(s, a)
    assert toy.exact_mean(s, toy.optimal_path[-1]) > 0


def test_bernoulli_sampling_matches_mean(toy):
    s = walk(toy, toy.optimal_path[:-1])
    a = toy.optimal_path[-1]
    n = 50_000
    ones = toy.sample_reward_batch(s, a, n)
    assert ones / n == pytest.approx(toy.exact_mean(s, a), abs=0.01)


def test_terminal_interface(toy):
    path = toy.optimal_path
    leaf = walk(toy, path)
    assert toy.is_terminal(leaf)
    with pytest.raises(ParameterError):
        toy.transition(leaf, 0)
    with pytest.raises(ParameterError):
        toy.features_sa(leaf, 0)
    # an action outside range(k) would index another node of the tree
    with pytest.raises(ParameterError):
        toy.features_sa(toy.initial_state(), toy.num_actions)
    # the reward calls refuse what transition refuses, at every depth
    for s in (walk(toy, path[:t]) for t in (0, 1, len(path) - 1)):
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


def test_toy_refuses_states_outside_its_tree(planted_toy):
    """Only the internal nodes 0 .. internal - 1 take an action; -1, every
    leaf and every index past the tree would read another node's arrays or
    none at all."""
    toy = planted_toy
    k = toy.num_actions
    internal = (k ** toy.horizon - 1) // (k - 1)
    nodes = internal + k ** toy.horizon
    assert not toy.is_terminal(internal - 1) and toy.is_terminal(internal)
    for s in [-1, *range(internal, nodes + k)]:
        for a in range(k):
            for query in (toy.transition, toy.exact_mean, toy.features_sa):
                with pytest.raises(ParameterError, match="not an internal node"):
                    query(s, a)
            with pytest.raises(ParameterError, match="not an internal node"):
                toy.sample_reward_batch(s, a, 10)
    for s in (-1, nodes):
        with pytest.raises(ParameterError, match="not a node"):
            toy.v_star(s)
    assert toy.v_star(nodes - 1) == 0.0


def test_q_star_table_lists_its_pairs_in_post_order(planted_toy):
    """Criterion 10 pairs its noise draws with the table's order: every
    (internal node, action) pair once, each after every pair below the child
    it enters, siblings in action order."""
    toy = planted_toy

    def post_order(s):
        for a in range(toy.num_actions):
            child = toy.transition(s, a)
            if not toy.is_terminal(child):
                yield from post_order(child)
            yield s, a

    expected = list(post_order(toy.initial_state()))
    assert len(expected) == toy.num_actions * (
        toy.num_actions ** toy.horizon - 1) // (toy.num_actions - 1)
    assert list(toy.q_star_table()) == expected


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
    s = walk(a, a.optimal_path[:-1])
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
