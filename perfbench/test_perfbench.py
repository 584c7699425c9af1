"""Tests of the benchmark itself: a short run of every workload emits every
declared metric, and every check rejects a deliberately wrong answer.

    python3 -m pytest -q perfbench/
"""
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from satmdp import agents, instances, mdp, polyfeat, reward  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-layer metrics that must be > 0 on each workload (the layers it calls)
LAYERS = {
    "tree_sweep": [
        "mdp.transition.calls", "mdp.transition.self_us", "mdp.encode_state.calls",
        "mdp.encode_state.self_us", "mdp.enumerate_reachable.states",
        "mdp.enumerate_reachable.self_ms", "mdp.features_state.calls",
        "mdp.features_state.self_ms", "polyfeat.greedy_value_poly.ms",
        "polyfeat.greedy_value_poly.terms", "polyfeat.to_feature_vector.ms",
        "agents.greedy_rollout_value.self_ms", "agents.tree_optimal_values.ms",
        "cnf.brute_force_sat.ms", "instances.random_satisfiable_instance.attempts"],
    "feature_map": [
        "mdp.transition.calls", "mdp.transition.self_us", "mdp.features_state.calls",
        "mdp.features_state.self_ms", "polyfeat.greedy_value_poly.ms",
        "polyfeat.greedy_value_poly.terms", "polyfeat.to_feature_vector.ms",
        "polyfeat.theta_vector.ms", "agents.greedy_rollout_value.self_ms"],
    "long_episodes": [
        "mdp.transition.calls", "mdp.transition.self_us", "mdp.encode_state.calls",
        "mdp.encode_state.self_us", "mdp.state_digest.self_us", "mdp.state_digest.bytes",
        "agents.a_sat.ms", "agents.a_sat.queries", "cnf.parse_dimacs.ms", "cli.main.ms",
        "reporting.make_report.ms", "cli.run.trajectory_bytes_per_step"],
    "baselines": [
        "agents.epsilon_net_search.self_ms", "agents.epsilon_net_search.cover_points",
        "agents.epsilon_net_search.unique_policies",
        "agents.epsilon_net_search.features_sa_calls",
        "agents.horizon_split_policy.self_ms", "agents.horizon_split_policy.basis_size_max",
        "toys.ToyLinearMdp.init_ms"],
}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def short_runs():
    jobs = [(w["name"], t) for w in SPEC["workloads"] for t in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: _run(*job), jobs))
    return dict(zip(jobs, results))


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_short_run_emits_every_metric(short_runs, workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = short_runs[(workload, trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        metrics = result["metrics"]
        assert set(metrics) == {m["name"] for m in declared}
        for m in declared:
            assert metrics[m["name"]]["unit"] == m["unit"]
        positive = ([m["name"] for m in declared] if trace == 0
                    else LAYERS[workload] + ["trace.overhead_ratio"])
        for name in positive:
            assert metrics[name]["value"] > 0, (workload, name)


def test_run_refuses_without_package_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --- every check rejects a wrong answer ------------------------------------------------


@pytest.fixture(scope="module")
def small_tree():
    inst, wstar, _ = instances.random_satisfiable_instance(
        1002, v=4, h=3, p=2, q=4, epsilon=0.25, tree_budget=20_000)
    return inst, wstar


def test_theta_matches_the_package(small_tree):
    inst, wstar = small_tree
    assert np.array_equal(checks.theta(wstar, 4, 2), polyfeat.theta_vector(wstar, 4, 2))


def test_linearity_rejects_a_flipped_theta_coordinate(small_tree):
    inst, wstar = small_tree
    theta = checks.theta(wstar, 4, 2)
    sweep = workloads.TreeSweep(0, HERE / "out")
    assert sweep.check(None, sweep.operate((inst, theta))) == []
    root = mdp.initial_state(inst)
    flipped = theta.copy()
    k = int(np.argmax(np.abs(mdp.features_state(inst, root))))
    flipped[k] = -flipped[k]
    assert sweep.check(None, sweep.operate((inst, flipped)))


def test_linearity_rejects_nonzero_terminal_features():
    assert checks.check_linearity([0.5, 0.0], [0.5, 0.0], [False, True], [False, True]) == []
    assert checks.check_linearity([0.5, 0.0], [0.5, 0.0], [False, True], [False, False])


def test_optimality_rejects_greedy_above_or_far_below_vstar():
    assert checks.check_optimality([0.5, 0.25], [0.5, 0.25]) == []
    assert checks.check_optimality([0.5, 0.25 + 1e-12], [0.5, 0.25])
    assert checks.check_optimality([0.5, 0.25], [0.5, 0.25 + 1e-6])


def test_witness_rejects_an_unsatisfied_clause():
    clauses = [(1, 2, 3), (-1, 2, -3), (1, -2, 3)]
    good, bad = (1, 1, 1), (-1, -1, -1)
    assert checks.count_satisfied(clauses, bad) == 2
    assert checks.check_witness(clauses, good, checks.gap_threshold(3, 0.25)) == []
    assert checks.check_witness(clauses, bad, checks.gap_threshold(3, 0.25))
    assert checks.check_witness(clauses, None, 1)


def test_terminal_mean_agrees_with_the_package_and_bound_rejects_no_decay():
    f, planted = instances.regular_planted_formula(48, seed=1)
    params = reward.params_for_rounds(v=48, h=2, p=2, q=4, epsilon=1 / 64, b=6)
    inst = mdp.build_instance(f, params, wstar=planted)
    mask = sum(1 << i for i, x in enumerate(planted) if x == 1)
    rng = np.random.default_rng(0)
    s = mdp.initial_state(inst)
    while not s.is_terminal:
        s = mdp.transition(inst, s, int(rng.integers(0, 3)))
    assert checks.terminal_mean(s, mask, 48, 2, 4, 2) == pytest.approx(
        mdp.exact_expected_reward(inst, s), rel=1e-12)
    # a last-level terminal that never left w*: mean 1, no decay at all
    still = SimpleNamespace(w=mask, w_round=mask, free=0, n=2, round_dists=(0,))
    assert checks.check_decay(still, mask, 48, 2, 4, 2, 1 / 64, 6)


def test_episode_check_rejects_tampered_trajectories():
    steps, keys = [0, 1, 2, 3], [b"a", b"b", b"c", b"d"]
    end = SimpleNamespace(terminal_kind="last_level", step=4)
    assert checks.check_episode(steps, keys, "d3", "d3", end, 4) == []
    assert checks.check_episode(steps[:3], keys[:3], "d2", "d2", end, 4)
    assert checks.check_episode([0, 2, 1, 3], keys, "d3", "d3", end, 4)
    assert checks.check_episode(steps, [b"a", b"b", b"a", b"d"], "d3", "d3", end, 4)
    assert checks.check_episode(steps, keys, "d3", "other", end, 4)
    assert checks.check_episode(steps, keys, "d3", "d3", None, 4)
    early = SimpleNamespace(terminal_kind="gap_satisfied", step=4)
    assert checks.check_episode(steps, keys, "d3", "d3", early, 4)


def test_cover_count_matches_the_package_and_rejects_a_wrong_count():
    from satmdp import toys
    toy = toys.ToyLinearMdp(depth=3, num_actions=3, dim=2, structure_seed=5)
    _, info = agents.epsilon_net_search(toy, eps=0.1, delta=0.1)
    expected = checks.lattice_ball_count(0.1, 3, 2)
    assert checks.check_cover(info["cover_points"], expected) == []
    assert checks.check_cover(info["cover_points"] + 1, expected)


def test_horizon_split_check_rejects_residual_and_oversized_basis():
    ok = [{"max_residual": 1e-15, "basis_sizes": [3, 4]}]
    assert checks.check_horizon_split(ok, 4) == []
    assert checks.check_horizon_split([{"max_residual": 1e-6, "basis_sizes": [3]}], 4)
    assert checks.check_horizon_split([{"max_residual": 0.0, "basis_sizes": [5]}], 4)


def test_win_check_allows_two_misses_in_twenty():
    assert checks.check_wins([True] * 18 + [False] * 2) == []
    assert checks.check_wins([True] * 17 + [False] * 3)
    assert checks.check_wins([True] * 20 + [False] * 3)
