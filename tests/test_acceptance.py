"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 2 share a pool of 50 seeded random satisfiable instances, built
once per session in `conftest.criterion_1_pool`, whose sweeps over each
round summary are computed once in a module fixture. Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""
import time

import numpy as np
import pytest

from conftest import POOL_COMBOS, random_lenient_formula
from satmdp import reward
from satmdp.agents import (
    SatOracle,
    a_sat,
    epsilon_net_search,
    greedy_on_q,
    greedy_reference_learner,
    horizon_split_policy,
    random_actions,
    random_learner,
    tree_greedy_values,
    tree_optimal_values,
)
from satmdp.cnf import (
    brute_force_max_sat,
    brute_force_sat,
    occurrence_bound,
    satisfied_count,
)
from satmdp.gapsat import PromiseKind, bounded_occurrence_transform, check_gap_promise
from satmdp.instances import (
    random_gap_unsat_formula,
    random_satisfiable_instance,
    regular_planted_formula,
)
from satmdp.mdp import (
    LAST_LEVEL,
    MODE_SIMULATOR,
    STAGE_ONE,
    build_instance,
    encode_state,
    enumerate_reachable,
    features_state,
    initial_state,
    reward_mean,
    stage_one_floor,
    summary_tree,
    transition,
)
from satmdp.polyfeat import theta_vector
from satmdp.reward import (
    find_min_passing_v,
    log_degree,
    params_for_rounds,
    params_from_alpha,
    verify_claim_monotone_step,
    verify_claim_range,
)
from satmdp.toys import ToyLinearMdp

LINE = "ACCEPTANCE {num:>2} ({name}): {verdict}  {detail}"


def report(num, name, passed, detail=""):
    print(LINE.format(num=num, name=name,
                      verdict="PASS" if passed else "FAIL", detail=detail))
    assert passed, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------- criteria 1+2


@pytest.fixture(scope="module")
def linearity_sweep(criterion_1_pool):
    """The 50 seeded random satisfiable gap-checked instances of the shared
    criterion-1 pool, v in 4..7 and h in {2,3} (p=2, q=4); greedy values,
    DP optima, and feature/theta inner products at every round summary of
    each whole tree (`summary_tree`'s nodes), whose multiplicities sum to
    the tree's states. `elapsed` counts the pool's build."""
    pool, build_seconds = criterion_1_pool
    t0 = time.perf_counter()
    # claim gate: the structural inequalities hold for every parameterization
    for v, h, _eps in POOL_COMBOS:
        params = params_for_rounds(v=v, h=h, p=2, q=4)
        assert verify_claim_monotone_step(params).passed
        assert verify_claim_range(params).passed
    max_lin = 0.0
    max_opt = 0.0
    total_states = 0
    for inst, _states, _children in pool:
        params = inst.params
        assert check_gap_promise(inst.formula, params.epsilon).kind \
            is PromiseKind.SATISFIABLE
        theta = theta_vector(inst.wstar_assignment(), params.v, params.p)
        nodes, children, mult = summary_tree(inst, 20_000)
        optimal = tree_optimal_values(inst, nodes, children)
        greedy = tree_greedy_values(inst, nodes, children)
        for s, opt, greedy_val in zip(nodes, optimal, greedy):
            lin_err = abs(float(features_state(inst, s) @ theta) - greedy_val)
            max_lin = max(max_lin, lin_err)
            max_opt = max(max_opt, abs(opt - greedy_val))
        total_states += sum(mult)
    elapsed = build_seconds + time.perf_counter() - t0
    return {"max_lin": max_lin, "max_opt": max_opt, "states": total_states,
            "instances": len(pool), "elapsed": elapsed}


def test_criterion_1_linearity(linearity_sweep):
    sw = linearity_sweep
    ok = sw["max_lin"] <= 1e-8 and sw["elapsed"] <= 120.0
    report(1, "linearity", ok,
           f"max|<psi,theta>-V_greedy|={sw['max_lin']:.2e} over "
           f"{sw['states']} states / {sw['instances']} instances "
           f"in {sw['elapsed']:.1f}s")


def test_criterion_2_greedy_optimality(linearity_sweep):
    sw = linearity_sweep
    ok = sw["max_opt"] <= 1e-9
    report(2, "greedy optimality", ok,
           f"max|V*-V_greedy|={sw['max_opt']:.2e}")


# ------------------------------------------------------------------ criterion 3


def test_criterion_3_claim_range():
    worst = None
    for v in (10, 100, 1000):
        for p, q in ((2, 4), (log_degree(v), 2)):
            rep = verify_claim_range(params_from_alpha(v, p=p, q=q))
            if not rep.passed:
                worst = (v, p, q, rep.counterexample)
                break
    report(3, "claim range", worst is None,
           "zero violations at v in {10,100,1000}, both parameterizations"
           if worst is None else f"violation {worst}")


# ------------------------------------------------------------------ criterion 4


def test_criterion_4_claim_monotone_step():
    t0 = time.perf_counter()
    v_min = find_min_passing_v(p=2, q=4, alpha=1 / 16, epsilon=0.25, b=6)
    failures = []
    if v_min is None or v_min > 64:
        failures.append(f"v_min={v_min}")
    else:
        for v in range(v_min, 65):
            params = params_from_alpha(v, p=2, q=4)
            violation = reward._monotone_grid_violation(params)
            if violation is not None:
                failures.append((v, violation))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed <= 300.0
    report(4, "claim monotone step", ok,
           f"v_min={v_min}, full grid verified for v in [{v_min},64] "
           f"in {elapsed:.1f}s" if not failures else f"failures={failures[:2]}")


# ------------------------------------------------------------------ criterion 5


def test_criterion_5_reward_decay():
    # random play on a planted regular formula hovers near 7/8 satisfaction,
    # far below the 1 - 1/64 threshold, so the seeded rollouts run full horizon
    v = 768
    f, planted = regular_planted_formula(v, seed=7)
    params = params_for_rounds(v=v, h=2, p=2, q=4, epsilon=1 / 64, b=6)
    inst = build_instance(f, params, wstar=planted)
    start_sat = satisfied_count(f, (-1,) * v)
    assert start_sat < inst.gap_threshold_count
    floor = stage_one_floor(inst, round_start=start_sat)
    bound = (1 - params.epsilon / (6 * params.b * v ** (params.q - 2))) ** params.h
    actions = random_actions(np.random.Generator(np.random.Philox(key=2027)), 3)
    mean_violations = 0
    stage_violations = 0
    early_terminations = 0
    assert floor >= 4  # the stage-one check is substantive at this scale
    for _ in range(1000):
        s = initial_state(inst)
        stage_one_run = 0
        round_start_sat = s.sat_count
        while not s.is_terminal:
            in_stage_one = s.stage == STAGE_ONE
            s = transition(inst, s, next(actions))
            if in_stage_one:
                stage_one_run += 1
            if not s.is_terminal and s.step % v == 0:
                # completed round
                if stage_one_run < stage_one_floor(inst, round_start_sat):
                    stage_violations += 1
                stage_one_run = 0
                round_start_sat = s.sat_count
        if s.terminal_kind != LAST_LEVEL:
            early_terminations += 1
            continue
        if stage_one_run < floor:  # final (h-th) round also completed
            stage_violations += 1
        if reward_mean(inst, s) > bound:
            mean_violations += 1
    ok = (mean_violations == 0 and stage_violations == 0
          and early_terminations == 0)
    report(5, "reward decay", ok,
           f"1000 full-horizon rollouts, terminal mean <= {bound:.12f}, "
           f"stage-one floor {floor}; violations: mean={mean_violations} "
           f"stage={stage_violations} early={early_terminations}")


# ------------------------------------------------------------------ criterion 6


def test_criterion_6_reduction_end_to_end():
    eps, b = 1 / 16, 8
    yes_ok = 0
    for i in range(20):
        inst, wstar, _ = random_satisfiable_instance(
            5000 + i, v=6 + (i % 3), h=2, p=2, q=4, epsilon=eps, b=b)
        result = a_sat(inst.formula, greedy_reference_learner(wstar),
                       inst.params, seed=i)
        if result.answer == "YES" and result.witness is not None:
            if satisfied_count(inst.formula, result.witness) \
                    >= inst.gap_threshold_count:
                yes_ok += 1
    rng = np.random.default_rng(6000)
    no_ok = 0
    gap_formulas = []
    while len(gap_formulas) < 20:
        fml = random_gap_unsat_formula(rng, v=int(rng.integers(6, 10)))
        if check_gap_promise(fml, eps).kind is PromiseKind.GAP_UNSATISFIABLE:
            gap_formulas.append(fml)
    for i, fml in enumerate(gap_formulas):
        params = params_for_rounds(v=fml.v, h=2, p=2, q=4, epsilon=eps, b=b)
        result = a_sat(fml, random_learner(episodes=4, seed=i), params, seed=i)
        if result.answer == "NO":
            no_ok += 1
    false_yes = 0
    for i in range(100):
        fml = gap_formulas[i % 20]
        params = params_for_rounds(v=fml.v, h=2, p=2, q=4, epsilon=eps, b=b)
        result = a_sat(fml, random_learner(episodes=2, seed=100 + i), params,
                       seed=100 + i)
        if result.answer == "YES":
            false_yes += 1
    ok = yes_ok == 20 and no_ok == 20 and false_yes == 0
    report(6, "reduction end-to-end", ok,
           f"greedy YES {yes_ok}/20, gap-unsat NO {no_ok}/20, "
           f"false YES {false_yes}/100 random-learner runs")


# ------------------------------------------------------------------ criterion 7


def test_criterion_7_simulator_consistency():
    mismatch = 0
    nonzero_sim_rewards = 0
    states_compared = 0
    for i in range(3):
        inst, _, _ = random_satisfiable_instance(
            7000 + i, v=4 + i, h=2, p=2, q=4, epsilon=0.125, tree_budget=6_000)
        sim = build_instance(inst.formula, inst.params, mode=MODE_SIMULATOR)
        full_states, full_children = enumerate_reachable(inst, budget=6_000)
        sim_states, sim_children = enumerate_reachable(sim, budget=6_000)
        if [encode_state(inst, s) for s in full_states] != \
                [encode_state(sim, s) for s in sim_states]:
            mismatch += 1
            continue
        if full_children != sim_children:
            mismatch += 1
            continue
        for sf, ss in zip(full_states, sim_states):
            if features_state(inst, sf).tobytes() != \
                    features_state(sim, ss).tobytes():
                mismatch += 1
                break
            states_compared += 1
        oracle = SatOracle(sim, seed=i)
        for idx, s in enumerate(sim_states):
            for a, j in enumerate(sim_children[idx]):
                child = sim_states[j]
                if child.is_terminal and child.terminal_kind == LAST_LEVEL:
                    if oracle.sample_reward_batch(s, a, 1) != 0:
                        nonzero_sim_rewards += 1
    ok = mismatch == 0 and nonzero_sim_rewards == 0
    report(7, "simulator consistency", ok,
           f"{states_compared} states bit-identical across modes, "
           f"last-level simulator rewards all zero")


# ------------------------------------------------------------------ criterion 8


def test_criterion_8_epsilon_net():
    t0 = time.perf_counter()
    toys = [("H=3 k=3 d=2", dict(depth=3, num_actions=3, dim=2, structure_seed=5)),
            ("H=4 k=3 d=2", dict(depth=4, num_actions=3, dim=2, structure_seed=9)),
            ("H=2 k=3 d=3", dict(depth=2, num_actions=3, dim=3, structure_seed=7))]
    results = []
    all_ok = True
    for name, spec in toys:
        wins = 0
        # the fixed work: a wall-time FAIL with unchanged counts means a loaded box
        work = set()
        for trial in range(20):
            toy = ToyLinearMdp(reward_seed=8000 + trial, **spec)
            actions, info = epsilon_net_search(toy, eps=0.1, delta=0.1)
            work.add((info["cover_points"], info["unique_policies"]))
            if toy.policy_value(actions) >= toy.v_star() - 0.1:
                wins += 1
        points = "/".join(str(p) for p in sorted({p for p, _ in work}))
        policies = "/".join(str(u) for u in sorted({u for _, u in work}))
        results.append(f"{name}: {wins}/20 ({points} points, {policies} policies)")
        all_ok &= wins >= 18
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed <= 120.0
    report(8, "epsilon-net search", ok,
           f"{'; '.join(results)} in {elapsed:.1f}s")


# ------------------------------------------------------------------ criterion 9


def test_criterion_9_horizon_split():
    toys = [("H=4 d=2", dict(depth=4, num_actions=3, dim=2, structure_seed=5)),
            ("H=9 d=4", dict(depth=9, num_actions=3, dim=4, structure_seed=21))]
    results = []
    all_ok = True
    max_resid = 0.0
    max_basis_excess = 0
    for name, spec in toys:
        wins = 0
        for trial in range(20):
            toy = ToyLinearMdp(reward_seed=9000 + trial, **spec)
            actions, q_all, infos = horizon_split_policy(
                toy, eps=0.2, delta=0.1, sample_cap=20_000)
            for info in infos:
                max_resid = max(max_resid, info["max_residual"])
                max_basis_excess = max(
                    max_basis_excess,
                    max(info["basis_sizes"]) - toy.dim)
            if toy.policy_value(actions) >= toy.v_star() - 0.1:
                wins += 1
        results.append(f"{name}: {wins}/20")
        all_ok &= wins >= 18
    ok = all_ok and max_resid <= 1e-8 and max_basis_excess <= 0
    report(9, "horizon split", ok,
           f"{'; '.join(results)}, max residual {max_resid:.1e}, "
           f"basis sizes within d")


# ----------------------------------------------------------------- criterion 10


def test_criterion_10_perturbed_q_policies():
    eps = 0.2
    losses = []
    specs = [dict(depth=4, num_actions=3, dim=2, structure_seed=5),
             dict(depth=9, num_actions=3, dim=4, structure_seed=21)]
    rng = np.random.default_rng(1010)
    for spec in specs:
        toy = ToyLinearMdp(reward_seed=1, **spec)
        exact = toy.q_star_table()
        bound = eps / (2 * toy.horizon)
        for _ in range(50):
            noise = rng.uniform(-bound, bound, size=len(exact)).tolist()
            q = {k: val + e for (k, val), e in zip(exact.items(), noise)}
            policy = greedy_on_q(q, toy)
            s, actions = toy.initial_state(), []
            while not toy.is_terminal(s):
                a = policy(s)
                actions.append(a)
                s = toy.transition(s, a)
            losses.append(toy.v_star() - toy.policy_value(actions))
    worst = max(losses)
    ok = len(losses) == 100 and worst <= eps + 1e-12
    report(10, "bounded-perturbation policies", ok,
           f"100 perturbations, worst value loss {worst:.4f} <= {eps}")


# ----------------------------------------------------------------- criterion 11


def test_criterion_11_transform_properties():
    rng = np.random.default_rng(1111)
    checked = 0
    occ_viol = sat_viol = deficit_viol = ratio_viol = 0
    while checked < 200:
        v = int(rng.integers(3, 9))
        m = int(rng.integers(max(3, v), 2 * v + 3))
        f = random_lenient_formula(rng, v, m)
        psi = bounded_occurrence_transform(f, 6)
        if psi.v > 22:
            continue  # keep the output brute-forceable
        checked += 1
        if occurrence_bound(psi) > 6:
            occ_viol += 1
        if psi.m / f.m > 10.0:
            ratio_viol += 1
        if (brute_force_sat(f) is None) != (brute_force_sat(psi) is None):
            sat_viol += 1
        max_in, _ = brute_force_max_sat(f)
        max_out, _ = brute_force_max_sat(psi)
        if max_out > max_in + psi.m - f.m:
            deficit_viol += 1
    ok = occ_viol == sat_viol == deficit_viol == ratio_viol == 0
    report(11, "bounded-occurrence transform", ok,
           f"200 formulas: occurrence/equivalence/ratio/deficit violations = "
           f"{occ_viol}/{sat_viol}/{ratio_viol}/{deficit_viol}")
