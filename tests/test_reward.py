import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satmdp import reward
from satmdp.errors import ParameterError
from satmdp.reward import (
    RewardParams,
    expected_reward,
    find_min_passing_v,
    g,
    log_degree,
    params_for_rounds,
    params_from_alpha,
    range_upper_bound,
    taylor_exp,
    verify_claim_monotone_step,
    verify_claim_range,
)


def taylor_reference(p, x):
    return sum(x ** i / math.factorial(i) for i in range(p + 1))


def test_taylor_exp_at_zero():
    for p in (0, 1, 2, 5, 12):
        assert taylor_exp(p, 0.0) == 1.0


def test_taylor_exp_hand_value():
    # 1 - 1/2 + 1/8, all powers of two, so equality is exact
    assert taylor_exp(2, -0.5) == 0.625


def test_taylor_exp_near_exp():
    assert abs(taylor_exp(12, -0.5) - math.exp(-0.5)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12), st.floats(-2, 2, allow_nan=False))
def test_taylor_exp_matches_reference(p, x):
    assert taylor_exp(p, x) == pytest.approx(taylor_reference(p, x), abs=1e-12)


def test_g_examples():
    params = params_for_rounds(v=5, h=5, p=2, q=2)
    for i in range(1, params.h + 2):
        assert g(i, 0.0, params) == 1.0
    # z = 7 / (5 * (3 - 1/5)) = 0.5
    assert g(1, 7.0, params) == pytest.approx(0.625, abs=1e-15)
    with pytest.raises(ParameterError):
        g(0, 1.0, params)
    with pytest.raises(ParameterError):
        g(params.h + 2, 1.0, params)


def test_params_construction():
    params = params_from_alpha(v=10, p=2, q=4, alpha=1 / 16)
    assert params.h == 62 and params.H == 620
    # clamping keeps at least one round
    tiny = params_from_alpha(v=4, p=2, q=2, alpha=0.01)
    assert tiny.h == 1
    with pytest.raises(ParameterError):
        RewardParams(v=5, p=2, q=1, alpha=0.5, h=2)
    with pytest.raises(ParameterError):
        RewardParams(v=5, p=-1, q=2, alpha=0.5, h=2)


def test_log_degree_natural_log():
    assert log_degree(10) == 2 * math.ceil(math.log(10))
    assert log_degree(1000) == 14


def test_expected_reward_matches_product_of_g():
    params = params_for_rounds(v=6, h=3, p=2, q=4)
    dists = (2, 4)
    value = expected_reward(dists, n=3, within_round=1, free_dist=2,
                            used_dist=3, params=params)
    direct = (g(1, 2, params) * g(2, 4, params) * g(3, 1 + 2, params)
              * g(4, 3, params))
    assert value == pytest.approx(direct, abs=1e-15)
    assert 0.0 <= value <= 1.0


def test_expected_reward_first_round_uses_next_factor_at_zero():
    params = params_for_rounds(v=6, h=3, p=2, q=4)
    value = expected_reward((), n=1, within_round=2, free_dist=1,
                            used_dist=0, params=params)
    assert value == pytest.approx(g(1, 3, params), abs=1e-15)  # g(2,0) = 1


def test_expected_reward_validation():
    params = params_for_rounds(v=6, h=3, p=2, q=4)
    with pytest.raises(ParameterError):
        expected_reward((1,), n=1, within_round=0, free_dist=0, used_dist=0,
                        params=params)
    with pytest.raises(ParameterError):
        expected_reward((), n=1, within_round=7, free_dist=0, used_dist=0,
                        params=params)
    with pytest.raises(ParameterError):
        expected_reward((), n=4, within_round=0, free_dist=0, used_dist=0,
                        params=params)


def test_claim_range_passes_default_parameterizations():
    for v in (10, 50):
        for p, q in ((2, 4), (log_degree(v), 2)):
            report = verify_claim_range(params_from_alpha(v, p=p, q=q))
            assert report.passed, report.counterexample
            assert report.details["mode"] == "exhaustive"


def test_claim_range_certified_mode_matches_exhaustive():
    params = params_from_alpha(40, p=2, q=4)  # h = 4000
    full = verify_claim_range(params)
    reduced = verify_claim_range(params, grid_budget=1000)
    assert full.details["mode"] == "exhaustive"
    assert reduced.details["mode"] == "interval-certified"
    assert full.passed and reduced.passed
    assert (full.details["bounds_hold_through_x"]
            == reduced.details["bounds_hold_through_x"])


def test_claim_range_certificate_survives_float_ties():
    # at v=200,000 the round-1 scale is about 2.4e16, so g_1(0) and g_1(1)
    # both round to 1.0; the certificate, not the float rows, decides strict
    # decrease
    report = verify_claim_range(params_from_alpha(200_000, p=2, q=4))
    assert report.details["mode"] == "interval-certified"
    assert report.passed, report.counterexample


def test_claim_range_broken_degree_fails_monotonicity():
    report = verify_claim_range(RewardParams(v=10, p=0, q=4, alpha=1 / 16, h=62))
    assert not report.passed
    assert report.counterexample["kind"] == "not_strictly_decreasing"


def test_claim_range_bounds_on_grid_match_direct_eval():
    params = params_from_alpha(12, p=2, q=4)
    report = verify_claim_range(params)
    assert report.passed
    x_lo = math.ceil(params.epsilon * params.v / params.b)
    upper = range_upper_bound(params)
    for i in (1, params.h // 2, params.h + 1):
        for x in range(x_lo, params.v + 1):
            assert 0.25 <= g(i, x, params) <= upper


def test_g_tracks_exponential_within_taylor_remainder():
    # remainder of the alternating series, with generous (4x) slack
    for v, p, q in ((10, 2, 4), (10, 6, 2), (50, 2, 4)):
        params = params_from_alpha(v, p=p, q=q)
        for i in (1, params.h + 1):
            scale = params.scale(i)
            for x in range(0, 2 * v + 1, max(1, v // 5)):
                z = x / scale
                bound = 4 * (x / (2 * v ** (q - 1))) ** (p + 1) + 1e-15
                assert abs(g(i, x, params) - math.exp(-z)) <= bound


def test_claim_monotone_step_default_passes():
    report = verify_claim_monotone_step(params_from_alpha(64, p=2, q=4),
                                        search_v_min=True, v_cap=128)
    assert report.passed
    assert report.details["v_min"] is not None
    assert report.details["v_min"] <= 64


def test_claim_monotone_step_large_alpha_fails_with_witness():
    report = verify_claim_monotone_step(params_from_alpha(16, p=2, q=2, alpha=1.0),
                                        search_v_min=False)
    assert not report.passed
    ce = report.counterexample
    i, c, d, x = ce["i"], ce["c"], ce["d"], ce["x"]
    params = params_from_alpha(16, p=2, q=2, alpha=1.0)
    assert 1 <= i <= params.h and 0 <= c <= 16 and 1 <= x <= d <= 16
    f_x = g(i, c + x, params) * g(i + 1, d - x, params)
    f_prev = g(i, c + x - 1, params) * g(i + 1, d - x + 1, params)
    assert f_x < f_prev
    assert ce["f_x"] == pytest.approx(f_x)


def test_monotone_grid_matches_brute_force_small():
    # dual route: tensor sweep vs direct four-loop evaluation
    for (p, q, alpha), expect_pass in (((2, 4, 1 / 16), True),
                                       ((2, 2, 1.0), False)):
        params = params_from_alpha(6, p=p, q=q, alpha=alpha)
        violation = reward._monotone_grid_violation(params)
        brute = None
        for i in range(1, params.h + 1):
            for c in range(0, 7):
                for d in range(0, 7):
                    for x in range(1, d + 1):
                        lhs = g(i, c + x, params) * g(i + 1, d - x, params)
                        rhs = g(i, c + x - 1, params) * g(i + 1, d - x + 1, params)
                        if lhs < rhs and brute is None:
                            brute = (i, c, d, x)
        assert (violation is None) == (brute is None)
        assert (violation is None) == expect_pass
        if violation is not None:
            lhs = g(violation["i"], violation["c"] + violation["x"], params) \
                * g(violation["i"] + 1, violation["d"] - violation["x"], params)
            rhs = g(violation["i"], violation["c"] + violation["x"] - 1, params) \
                * g(violation["i"] + 1, violation["d"] - violation["x"] + 1, params)
            assert lhs < rhs


def test_find_min_passing_v_defaults():
    vmin = find_min_passing_v(p=2, q=4, alpha=1 / 16, epsilon=0.25, b=6, v_cap=64)
    assert vmin is not None and 1 <= vmin <= 64


def test_vectorized_taylor_matches_scalar():
    xs = np.linspace(-3, 0, 50)
    for p in (0, 1, 2, 6, 13):
        vec = reward._taylor_exp_vec(p, xs)
        for x, got in zip(xs, vec):
            assert got == pytest.approx(taylor_exp(p, float(x)), abs=1e-14)


def test_truncation_positivity_certificate():
    # even truncations are positive everywhere; odd ones only before their root
    assert reward._truncation_positive_on(2, 100.0)
    assert reward._truncation_positive_on(1, 0.99)
    assert not reward._truncation_positive_on(1, 1.01)
    assert reward._truncation_positive_on(5, 2.0)   # T5(-2) = 0.0667 > 0
    assert not reward._truncation_positive_on(-1, 0.5)
