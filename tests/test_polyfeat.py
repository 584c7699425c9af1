import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satmdp.errors import ParameterError
from satmdp.mdp import (
    build_instance,
    enumerate_reachable,
    exact_expected_reward,
    features_state,
)
from satmdp.polyfeat import (
    MultilinearPoly,
    dist_free_poly,
    dist_used_poly,
    feature_dim,
    greedy_value_poly,
    inner_product,
    poly_add,
    poly_mul,
    poly_scale,
    theta_vector,
    to_feature_vector,
)
from satmdp.instances import random_satisfiable_instance
from satmdp.reward import params_for_rounds


def P(subsets):
    """Build a poly from {variable tuple: coeff}."""
    terms = {}
    for variables, c in subsets.items():
        m = 0
        for i in variables:
            m |= 1 << i
        terms[m] = c
    return MultilinearPoly(terms)


x0 = MultilinearPoly.variable(0)
x1 = MultilinearPoly.variable(1)
one = MultilinearPoly.constant(1.0)


def test_poly_add_identity_and_cancellation():
    a = P({(): 1.0, (0,): 2.0})
    assert poly_add(a, MultilinearPoly()) == a
    assert poly_add(a, P({(0,): -2.0})) == P({(): 1.0})


def test_poly_scale():
    a = P({(): 1.0, (0,): 2.0})
    assert poly_scale(a, 0.0) == MultilinearPoly()
    assert poly_scale(a, 2.0) == P({(): 2.0, (0,): 4.0})


def test_poly_mul_involution():
    assert poly_mul(x0, x0, 2) == one  # x^2 -> 1 on {-1,1}
    assert poly_mul(poly_add(one, x0), poly_add(one, poly_scale(x0, -1.0)), 2) \
        == MultilinearPoly()  # (1+x)(1-x) = 1 - x^2 = 0
    assert poly_mul(poly_add(x0, x1), x1, 2) == P({(0, 1): 1.0, (): 1.0})


def test_poly_mul_degree_cap():
    a = P({(0, 1): 1.0})
    b = P({(2, 3): 1.0})
    with pytest.raises(ParameterError):
        poly_mul(a, b, 3)
    assert poly_mul(a, b, 4) == P({(0, 1, 2, 3): 1.0})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_poly_mul_commutative_associative(data):
    def rand_poly(v):
        terms = {}
        n_terms = data.draw(st.integers(0, 4))
        for _ in range(n_terms):
            mask = data.draw(st.integers(0, (1 << v) - 1))
            terms[mask] = data.draw(
                st.floats(-2, 2, allow_nan=False, allow_infinity=False))
        return MultilinearPoly(terms)

    v = 4
    _check_mul_laws(rand_poly(v), rand_poly(v), rand_poly(v), v)


def test_poly_mul_laws_survive_underflow():
    # (ab)c underflows to an exact zero, which is dropped; a(bc) keeps 5e-324
    a = MultilinearPoly({0: 1e-161})
    b = MultilinearPoly({0: 1e-163})
    c = MultilinearPoly({0: 4.0})
    _check_mul_laws(a, b, c, 4)


def _assert_close_polys(p, q):
    """Equal up to 1e-12 per monomial; a missing monomial counts as 0.0, since
    a coefficient that underflows to zero in one order is dropped."""
    for m in set(p.terms) | set(q.terms):
        assert p.terms.get(m, 0.0) == pytest.approx(q.terms.get(m, 0.0),
                                                     abs=1e-12)


def _check_mul_laws(a, b, c, v):
    ab = poly_mul(a, b, v)
    _assert_close_polys(ab, poly_mul(b, a, v))
    _assert_close_polys(poly_mul(ab, c, v), poly_mul(a, poly_mul(b, c, v), v))


def test_dist_free_poly_example():
    got = dist_free_poly((1, 1), {0, 1})
    assert got == P({(): 1.0, (0,): -0.5, (1,): -0.5})
    assert dist_free_poly((1, 1, -1), set()) == MultilinearPoly()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_dist_polys_match_direct_count(data):
    v = data.draw(st.integers(1, 8))
    w = tuple(data.draw(st.sampled_from((-1, 1))) for _ in range(v))
    wstar = tuple(data.draw(st.sampled_from((-1, 1))) for _ in range(v))
    sel = set(data.draw(st.lists(st.integers(0, v - 1), unique=True)))
    free_count = sum(1 for i in sel if w[i] != wstar[i])
    used_count = sum(1 for i in range(v) if i not in sel and w[i] != wstar[i])
    assert dist_free_poly(w, sel).evaluate(wstar) == pytest.approx(free_count)
    assert dist_used_poly(w, sel).evaluate(wstar) == pytest.approx(used_count)


def test_feature_dim_bound():
    for v in range(2, 10):
        for p in (1, 2, 3):
            assert feature_dim(v, p) == sum(
                math.comb(v, i) for i in range(min(2 * p, v) + 1))
            assert feature_dim(v, p) <= 2 * v ** (2 * p)
    assert feature_dim(5, 2) == 31


def test_theta_vector_entries():
    wstar = (1, -1, 1, 1)
    theta = theta_vector(wstar, 4, 1)
    assert set(np.unique(theta)) <= {-1.0, 1.0}
    assert theta[0] == 1.0  # empty product
    assert len(theta) == feature_dim(4, 1)


def test_inner_product_dimension_check():
    with pytest.raises(ParameterError):
        inner_product(np.zeros(3), np.zeros(4))


def test_greedy_value_poly_matches_reward_at_wstar():
    inst, wstar, _ = random_satisfiable_instance(11, v=5, h=2, epsilon=0.125)
    states, _children = enumerate_reachable(inst, budget=10_000)
    from satmdp.agents import greedy_rollout_value
    for s in states:
        if s.is_terminal:
            continue
        poly = greedy_value_poly(s, inst.params)
        assert poly.degree() <= 2 * inst.params.p
        assert poly.evaluate(wstar) == pytest.approx(
            greedy_rollout_value(inst, s), abs=1e-9)


def test_greedy_value_poly_terminal_equals_exact_reward():
    # at a terminal state the polynomial evaluates to the entering payout
    inst, wstar, _ = random_satisfiable_instance(13, v=5, h=2, epsilon=0.125)
    states, _children = enumerate_reachable(inst, budget=10_000)
    terminals = [s for s in states if s.is_terminal]
    assert terminals
    for s in terminals:
        poly = greedy_value_poly(s, inst.params)
        assert poly.evaluate(wstar) == pytest.approx(
            exact_expected_reward(inst, s), abs=1e-12)


def test_feature_theta_inner_product_is_polynomial_evaluation():
    inst, wstar, _ = random_satisfiable_instance(17, v=6, h=2, epsilon=0.125)
    v, p = 6, inst.params.p
    theta = theta_vector(wstar, v, p)
    states, _children = enumerate_reachable(inst, budget=10_000)
    for s in states[:50]:
        if s.is_terminal:
            continue
        poly = greedy_value_poly(s, inst.params)
        psi = to_feature_vector(poly, v, p)
        assert inner_product(psi, theta) == pytest.approx(
            poly.evaluate(wstar), abs=1e-10)


def test_features_never_read_wstar():
    # same formula, two different satisfying assignments: identical features
    from satmdp.cnf import brute_force_sat, formula_from_ints, satisfied_count
    f = formula_from_ints(4, [[1, 2, 3], [2, 3, 4], [-1, 2, 4], [1, -3, 4]])
    first = brute_force_sat(f)
    others = []
    import itertools
    for a in itertools.product((-1, 1), repeat=4):
        if satisfied_count(f, a) == f.m and a != first:
            others.append(a)
    assert others
    params = params_for_rounds(v=4, h=2, p=2, q=4)
    inst1 = build_instance(f, params, wstar=first)
    inst2 = build_instance(f, params, wstar=others[0])
    states, _ = enumerate_reachable(inst1, budget=10_000)
    for s in states:
        assert features_state(inst1, s).tobytes() == \
            features_state(inst2, s).tobytes()

