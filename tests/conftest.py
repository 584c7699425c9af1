import pytest

import satmdp.cli
import satmdp.mdp
from satmdp.cnf import formula_from_ints
from satmdp.instances import random_satisfiable_instance
from satmdp.mdp import build_instance, enumerate_reachable
from satmdp.reward import params_for_rounds

# (a | ~b | c)(c | d | e)(a | d | e)(a | ~b | ~c)(a | ~b | ~e), a..e -> vars 1..5
FIGURE_CLAUSES = [[1, -2, 3], [3, 4, 5], [1, 4, 5], [1, -2, -3], [1, -2, -5]]

FIGURE_DIMACS = """c example formula
p cnf 5 5
1 -2 3 0
3 4 5 0
1 4 5 0
1 -2 -3 0
1 -2 -5 0
"""


def brute_satisfied_count(int_clauses, assignment):
    """Independent truth-table oracle: assignment is a {-1,+1} tuple, clauses
    are signed 1-based literal lists."""
    count = 0
    for clause in int_clauses:
        ok = False
        for lit in clause:
            value = assignment[abs(lit) - 1]
            if (lit > 0 and value == 1) or (lit < 0 and value == -1):
                ok = True
                break
        count += ok
    return count


@pytest.fixture
def figure_formula():
    return formula_from_ints(5, FIGURE_CLAUSES)


@pytest.fixture
def figure_instance(figure_formula):
    params = params_for_rounds(v=5, h=2, p=2, q=2)
    return build_instance(figure_formula, params)


@pytest.fixture
def sat_solves(monkeypatch):
    """Every formula the package hands to the exhaustive SAT oracle from here
    on, through each module that imports it."""
    calls = []
    for module in (satmdp.mdp, satmdp.cli):
        def spy(f, real=module.brute_force_sat):
            calls.append(f)
            return real(f)
        monkeypatch.setattr(module, "brute_force_sat", spy)
    return calls


@pytest.fixture(scope="session")
def pool_trees():
    """The criterion-1 pool (50 instances, seeds 1000 + k) and the 16
    tree_sweep instances (per (v, h, eps), the first seed 1000 + k,
    1016 + k, ... whose tree has at least 32 states), each as
    (instance, states, children)."""
    combos = [(v, h, eps) for v in (4, 5, 6, 7) for h in (2, 3)
              for eps in (0.25, 0.125)]
    built = {}

    def tree(seed):
        if seed not in built:
            v, h, eps = combos[(seed - 1000) % len(combos)]
            inst, _, _ = random_satisfiable_instance(
                seed, v=v, h=h, p=2, q=4, epsilon=eps, tree_budget=20_000)
            built[seed] = inst, *enumerate_reachable(inst, budget=20_000)
        return built[seed]

    pool = [tree(1000 + k) for k in range(50)]
    sweep = []
    for k in range(len(combos)):
        seed = 1000 + k
        while len(tree(seed)[1]) < 32:
            seed += len(combos)
        sweep.append(tree(seed))
    return pool, sweep
