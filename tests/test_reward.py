import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satmdp import reward
from satmdp.errors import ParameterError, ResourceLimitError
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


def test_params_refuse_an_overflowing_round_scale():
    # 5^499 is past the largest float, so no round scale can be computed
    with pytest.raises(ParameterError, match="v\\^\\(q-1\\)"):
        RewardParams(v=5, p=2, q=500, alpha=1 / 16, h=1)
    with pytest.raises(ParameterError):
        params_from_alpha(5, q=500)
    with pytest.raises(ParameterError):
        params_for_rounds(5, h=2, q=500)
    assert params_for_rounds(2, h=1, q=500).scale(1) == 2.0 ** 499 * 2


@pytest.mark.parametrize("alpha", [0.0, -3.0])
def test_params_refuse_non_positive_alpha(alpha):
    with pytest.raises(ParameterError, match="alpha"):
        params_from_alpha(5, alpha=alpha)
    with pytest.raises(ParameterError, match="alpha"):
        RewardParams(v=5, p=2, q=4, alpha=alpha, h=1)


@pytest.mark.parametrize("key, value", [
    ("v", 5.0), ("p", 2.5), ("q", 4.0), ("h", 1.5), ("b", 6.5), ("p", True),
    ("h", False), ("alpha", math.inf),
])
def test_params_refuse_non_integer_counts_and_infinite_alpha(key, value):
    fields = dict(v=5, p=2, q=4, alpha=1 / 16, h=2, epsilon=0.25, b=6)
    RewardParams(**fields)
    with pytest.raises(ParameterError, match=key):
        RewardParams(**{**fields, key: value})


def test_params_hash_is_computed_once_over_the_compared_fields():
    fields = dict(v=5, p=2, q=4, alpha=1 / 16, h=2, epsilon=0.25, b=6)
    params, twin = RewardParams(**fields), RewardParams(**fields)
    assert params == twin and params is not twin
    # the hash a frozen dataclass generates: its compared fields, in order
    assert hash(params) == hash(twin) == hash(tuple(fields.values()))
    longer = dataclasses.replace(params, h=3)
    assert longer == RewardParams(**{**fields, "h": 3}) != params
    assert hash(longer) == hash(RewardParams(**{**fields, "h": 3}))
    assert hash(longer) != hash(params)


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


def test_expected_reward_refusals_are_not_cached():
    params = params_for_rounds(v=6, h=3, p=2, q=4)
    for _ in range(3):
        with pytest.raises(ParameterError, match="inter-round distances"):
            expected_reward((1,), 1, 0, 0, 0, params)
        with pytest.raises(ParameterError, match="outside"):
            expected_reward((7,), 2, 0, 0, 0, params)


def test_terminal_mean_cache_stays_within_its_bound():
    bound = expected_reward.cache_info().maxsize
    params = params_for_rounds(v=100, h=2, p=2, q=4)
    for k in range(bound + 3):  # bound + 3 distinct round summaries
        expected_reward((k % 101,), 2, k // 101, 0, 0, params)
        assert expected_reward.cache_info().currsize <= bound
    assert expected_reward.cache_info().currsize == bound


def test_claim_range_passes_default_parameterizations():
    for v in (10, 50):
        for p, q in ((2, 4), (log_degree(v), 2)):
            report = verify_claim_range(params_from_alpha(v, p=p, q=q))
            assert report.passed, report.counterexample


def range_sweep_passes(params):
    """The range claim on every row i in [1, h+1], in floats."""
    v = params.v
    inv = 1.0 / np.array([params.scale(i) for i in range(1, params.h + 2)])
    G = taylor_exp(params.p, -np.outer(inv, np.arange(2 * v + 1.0)))
    band = G[:, math.ceil(params.epsilon * v / params.b):v + 1]
    return bool(np.all(G[:, :-1] > G[:, 1:]) and np.all((G > 0.0) & (G <= 1.0))
                and np.all((band >= 0.25) & (band <= range_upper_bound(params))))


def test_claim_range_certified_mode_matches_exhaustive():
    # the certificate plus the two extreme rows against a sweep of every row
    verdicts = []
    for p in (0, 1, 2, 3, log_degree(40)):
        for q in (2, 4):
            for alpha in (1 / 16, 1 / 4):
                params = params_from_alpha(40, p=p, q=q, alpha=alpha)
                verdicts.append(verify_claim_range(params).passed)
                assert verdicts[-1] == range_sweep_passes(params), (p, q, alpha)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("alpha", [1 / 16, 1 / 4])
def test_claim_range_certificate_accepts_a_root_at_z_max(alpha):
    # h = 1 and z_max = 1, so the degree-1 certificate T_1(-z_max) is exactly 0:
    # T_2 still decreases strictly on [0, z_max]
    params = params_from_alpha(2, p=2, q=3, alpha=alpha)
    report = verify_claim_range(params)
    assert params.h == 1 and report.details["z_max"] == 1.0
    assert report.passed, report.counterexample


def test_claim_range_without_certificate_matches_sweep():
    # even p with z_max past the root of T_(p-1)(-z): the certificate fails and
    # rows 1 and h+1 decide; h > 2v at q = 2 puts every row past that root
    verdicts = []
    for v, p, q, alpha in ((1, 2, 3, 4.0), (2, 2, 2, 2.0), (2, 2, 2, 4.0),
                           (3, 2, 2, 16.0), (8, 2, 2, 100.0), (24, 2, 2, 4.0),
                           (2, 4, 2, 0.25), (1, 4, 4, 1.0), (2, 2, 2, 0.25)):
        params = params_from_alpha(v, p=p, q=q, alpha=alpha)
        z_max = Fraction(2 * v * params.h, v ** (q - 1) * (2 * params.h - 1))
        assert not reward._truncation_positive_on(p - 1, z_max)
        verdicts.append(verify_claim_range(params).passed)
        assert verdicts[-1] == range_sweep_passes(params), (v, p, q, alpha)
    assert verdicts[2] and any(verdicts) and not all(verdicts)


def test_claim_range_certificate_survives_float_ties():
    # at v=200,000 the round-1 scale is about 2.4e16, so g_1(0) and g_1(1)
    # both round to 1.0; the certificate, not the float rows, decides strict
    # decrease
    report = verify_claim_range(params_from_alpha(200_000, p=2, q=4))
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
    report = verify_claim_monotone_step(params_from_alpha(64, p=2, q=4))
    assert report.passed
    assert report.details["v_min"] is not None
    assert report.details["v_min"] <= 64


def test_claim_monotone_step_large_alpha_fails_with_witness():
    report = verify_claim_monotone_step(params_from_alpha(16, p=2, q=2, alpha=1.0))
    assert not report.passed
    ce = report.counterexample
    i, c, d, x = ce["i"], ce["c"], ce["d"], ce["x"]
    params = params_from_alpha(16, p=2, q=2, alpha=1.0)
    assert 1 <= i <= params.h and 0 <= c <= 16 and 1 <= x <= d <= 16
    f_x = g(i, c + x, params) * g(i + 1, d - x, params)
    f_prev = g(i, c + x - 1, params) * g(i + 1, d - x + 1, params)
    assert f_x < f_prev
    assert ce["f_x"] == pytest.approx(f_x)


def scaled_g(params, i, x):
    """p! * S^p * g_i(x) with S = v^(q-1) (3h - i) = h * scale(i): an integer."""
    p, h = params.p, params.h
    s = params.v ** (params.q - 1) * (3 * h - i)
    return sum(math.factorial(p) // math.factorial(k) * (-h * x) ** k * s ** (p - k)
               for k in range(p + 1))


def test_monotone_grid_matches_brute_force_small():
    # verifier vs direct four-loop evaluation in exact integers; the oracle
    # stops after the first violating round and keeps all of its cells
    for v, p, q, alpha, expect_pass in (
            (6, 2, 4, 1 / 16, True), (6, 2, 2, 1.0, False),
            # sets that fail in round 1
            (16, 1, 4, 1 / 16, False), (8, 2, 2, 1.0, False),
            (32, 1, 3, 1 / 16, False),
            # (1,1,1,1) is an exact tie, (1,2,1,1) the first strict violation
            (2, 1, 3, 1.0, False),
            # first violations past round 1: i = 100 of h = 128, i = 362 of h = 400
            (2, 2, 4, 16.0, False), (5, 3, 3, 16.0, False),
            # several cells fail past round 1; the least (i, u, e) is neither
            # the last failing cell in (u, e) order nor, at (12, 3, 2), the first
            (4, 2, 2, 1.0, False), (12, 3, 2, 1 / 4, False)):
        params = params_from_alpha(v, p=p, q=q, alpha=alpha)
        s1 = params.v ** (q - 1) * (3 * params.h - 1)
        exact = Fraction(scaled_g(params, 1, v), math.factorial(p) * s1 ** p)
        assert float(exact) == pytest.approx(g(1, v, params), rel=1e-12)
        violation = reward._monotone_grid_violation(params)
        brute = set()  # (u, e) = (c + x, d - x) of the first violating round
        for r in range(1, params.h + 1):
            for c in range(0, v + 1):
                for d in range(0, v + 1):
                    for x in range(1, d + 1):
                        lhs = scaled_g(params, r, c + x) * scaled_g(params, r + 1, d - x)
                        rhs = (scaled_g(params, r, c + x - 1)
                               * scaled_g(params, r + 1, d - x + 1))
                        if lhs < rhs:
                            brute.add((c + x, d - x))
            if brute:
                break
        assert (violation is None) == (not brute) == expect_pass
        if violation is not None:
            i, c, d, x = (violation[k] for k in ("i", "c", "d", "x"))
            assert 0 <= c <= v and 1 <= x <= d <= v
            assert (i, c + x, d - x) == (r, *min(brute))


def test_monotone_round_one_at_v512_is_decided_exactly():
    # h = 8,388,608: round 1's relative margins are below float resolution, so
    # float64 products of the two rows flag cells (3,545 of them) that hold in
    # exact arithmetic; the integer verifier clears the full grid
    params = params_from_alpha(512, p=2, q=4)
    v = params.v
    inv = 1.0 / np.array([params.scale(1), params.scale(2)])
    G = taylor_exp(2, -np.outer(inv, np.arange(2 * v + 1.0)))
    lhs = G[0, 1:, None] * G[1, None, :v]
    rhs = G[0, :-1, None] * G[1, None, 1:v + 1]
    valid = np.add.outer(np.arange(1, 2 * v + 1), np.arange(v)) <= 2 * v
    assert np.count_nonzero((lhs < rhs) & valid) > 0
    assert reward._monotone_grid_violation(params) is None


@pytest.mark.parametrize("v, p, q, alpha", [
    (256, 2, 4, 1 / 16),   # h = 1,048,576
    (64, 2, 4, 16.0),      # h = 4,194,304
    (128, 4, 4, 1 / 4),
    (128, 6, 4, 1 / 4),
])
def test_monotone_grid_decides_every_round_at_once(v, p, q, alpha):
    assert reward._monotone_grid_violation(
        params_from_alpha(v, p=p, q=q, alpha=alpha)) is None


def test_monotone_step_refuses_work_over_its_limits(monkeypatch):
    # (32, 1, 3): 1,552 cells * (p+1)^2 = 6,208, with a violation in round 1
    params = params_from_alpha(32, p=1, q=3)
    monkeypatch.setattr(reward, "MAX_STEP_WORK", 6_208)
    assert reward._monotone_grid_violation(params) is not None
    monkeypatch.setattr(reward, "MAX_STEP_WORK", 6_207)
    with pytest.raises(ResourceLimitError, match="cells\\*\\(p\\+1\\)\\^2 > 6207"):
        reward._monotone_grid_violation(params)


def test_range_claim_refuses_points_over_its_limit(monkeypatch):
    # v = 50 at p = 2, q = 4: one range check evaluates 2v + 1 = 101 points a row
    params = params_from_alpha(50, p=2, q=4)
    monkeypatch.setattr(reward, "MAX_RANGE", 101)
    assert verify_claim_range(params).passed
    monkeypatch.setattr(reward, "MAX_RANGE", 100)
    with pytest.raises(ResourceLimitError, match="v=50: 2v \\+ 1 is over 100"):
        verify_claim_range(params)


def poly_value(c, t):
    return sum(cj * t ** j for j, cj in enumerate(c))


def poly_from_roots(scale, roots, offset):
    """Coefficients of scale * prod (t - r) + offset."""
    c = [scale]
    for r in roots:
        c = [a - r * b for a, b in zip([0] + c, c + [0])]
    c[0] += offset
    return c


@pytest.mark.parametrize("c, hi, expected", [
    # 4(2t - 101)^2 - 1 dips below 0 only on (50.25, 50.75)
    (poly_from_roots(16, [50, 51], 3), 200, None),
    # (t - 37)^2 (t^2 + 1): a double root at an integer
    ([1369, -74, 1370, -74, 1], 100, None),
    # 2(t - 37)^2 - 1 is negative at t = 37 alone
    (poly_from_roots(2, [37, 37], -1), 100, 37),
    ([-1, 5], 0, 0), ([0, -5], 0, None), ([3], 0, None),
    (poly_from_roots(2, [3 * 2 ** 998 + 12345] * 2, -1), 2 ** 1000, 3 * 2 ** 998 + 12345),
    (poly_from_roots(1, [2 ** 999 + 1] * 2, 0), 2 ** 1001, None),
    ([2 ** 1000 + 7, -1], 2 ** 1001, 2 ** 1000 + 8),
])
def test_first_negative_cases(c, hi, expected):
    assert reward._first_negative(c, hi) == expected


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-60, 60), min_size=1, max_size=13),
    st.builds(poly_from_roots, st.sampled_from([-2, -1, 1, 2, 4]),
              st.lists(st.integers(0, 120), max_size=12), st.integers(-3, 3))),
    st.integers(0, 120))
def test_first_negative_matches_direct_evaluation(c, hi):
    # degree <= 12 = 2p at p = 6; integer roots and small offsets give ties,
    # double roots and dips between integers
    expected = next((t for t in range(hi + 1) if poly_value(c, t) < 0), None)
    assert reward._first_negative(c, hi) == expected


@pytest.mark.parametrize("p, q, alpha, expected", [
    (3, 3, 16, 6),    # doubling passes 8, bisection settles on 6
    (3, 3, 4, 2),
    (1, 2, 4, None),  # every doubling up to V_CAP fails
])
def test_find_min_passing_v_search(p, q, alpha, expected):
    assert find_min_passing_v(p=p, q=q, alpha=alpha, epsilon=0.25, b=6) == expected
    if expected is not None:
        # a linear scan agrees, and every larger v passes, as the search assumes
        passing = [v for v in range(1, 17) if reward._monotone_grid_violation(
            params_from_alpha(v, p=p, q=q, alpha=alpha)) is None]
        assert passing == list(range(expected, 17))


def test_find_min_passing_v_defaults():
    vmin = find_min_passing_v(p=2, q=4, alpha=1 / 16, epsilon=0.25, b=6)
    assert vmin is not None and 1 <= vmin <= 64


def test_vectorized_taylor_matches_scalar():
    xs = np.linspace(-3, 0, 50)
    for p in (0, 1, 2, 6, 13):
        vec = taylor_exp(p, xs)
        assert vec.shape == xs.shape
        for x, got in zip(xs, vec):
            assert got == pytest.approx(taylor_exp(p, float(x)), abs=1e-14)
    assert taylor_exp(0, np.zeros((2, 3))).shape == (2, 3)


@pytest.mark.parametrize("k", [0, 1, 2, 5])
@pytest.mark.parametrize("z", [Fraction(0), Fraction(1), Fraction(16, 15),
                               Fraction(3, 7)])
def test_taylor_exp_is_exact_on_fractions(k, z):
    expected = sum((-z) ** j / math.factorial(j) for j in range(k + 1))
    got = taylor_exp(k, -z)
    assert isinstance(got, Fraction) and got == expected


def test_truncation_positivity_certificate():
    # even truncations are positive everywhere; odd ones only before their root
    assert reward._truncation_positive_on(2, 100.0)
    assert reward._truncation_positive_on(1, 0.99)
    assert reward._truncation_positive_on(1, 1)      # T1(-1) = 0, a root at z_hi
    assert not reward._truncation_positive_on(1, 1.01)
    assert reward._truncation_positive_on(5, 2.0)   # T5(-2) = 0.0667 > 0
    assert not reward._truncation_positive_on(-1, 0.5)
