import time

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


def random_lenient_formula(rng, v, m):
    """m random clauses of 1 to 3 distinct variables of v, each literal signed
    at random, built without the strict 3-CNF check."""
    clauses = []
    for _ in range(m):
        width = int(rng.integers(1, 4))
        variables = rng.choice(v, size=min(width, v), replace=False)
        clauses.append([-(int(x) + 1) if rng.integers(0, 2) else int(x) + 1
                        for x in variables])
    return formula_from_ints(v, clauses, strict=False)


def merge_by_summary(states, children):
    """`enumerate_reachable`'s breadth-first tree with the states of each round
    summary (`mdp._summary`) merged into one node: ((nodes, children, mult),
    at), where node i is the first state of its summary, children[i] lists
    its child nodes in action order, mult[i] counts its states and at[j] is
    the node of tree state j. Asserts the facts the merge rests on: the
    states are distinct, the children lists split range(1, n) in order, and
    every state of a summary has the same child summaries in action order."""
    assert len(set(states)) == len(states)
    assert [j for kids in children for j in kids] == list(range(1, len(states)))
    index = {}
    at = [index.setdefault(satmdp.mdp._summary(s), len(index)) for s in states]
    nodes, merged, mult = [None] * len(index), [None] * len(index), [0] * len(index)
    for s, kids, i in zip(states, children, at):
        kids = [at[j] for j in kids]
        if mult[i]:
            assert merged[i] == kids
        else:
            nodes[i], merged[i] = s, kids
        mult[i] += 1
    return (nodes, merged, mult), at


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


POOL_COMBOS = [(v, h, eps) for v in (4, 5, 6, 7) for h in (2, 3)
               for eps in (0.25, 0.125)]


def pool_tree(seed):
    """(instance, states, children) for seed 1000 + k, k cycling through
    POOL_COMBOS (p=2, q=4): children[i] holds node i's distinct child
    indices in action order."""
    v, h, eps = POOL_COMBOS[(seed - 1000) % len(POOL_COMBOS)]
    inst, _, _ = random_satisfiable_instance(
        seed, v=v, h=h, p=2, q=4, epsilon=eps, tree_budget=20_000)
    return inst, *enumerate_reachable(inst, budget=20_000)


@pytest.fixture(scope="session")
def criterion_1_pool():
    """The criterion-1 pool, built once per session: the 50 trees of seeds
    1000 + k, and the seconds their build took, which criterion 1 counts."""
    t0 = time.perf_counter()
    pool = [pool_tree(1000 + k) for k in range(50)]
    return pool, time.perf_counter() - t0


@pytest.fixture(scope="session")
def pool_trees(criterion_1_pool):
    """The criterion-1 pool and the 16 tree_sweep instances (per (v, h, eps),
    the first seed 1000 + k, 1016 + k, ... whose tree has at least 32
    states), each as `pool_tree` builds it."""
    pool, _seconds = criterion_1_pool
    built = {1000 + k: tree for k, tree in enumerate(pool)}

    def tree(seed):
        if seed not in built:
            built[seed] = pool_tree(seed)
        return built[seed]

    sweep = []
    for k in range(len(POOL_COMBOS)):
        seed = 1000 + k
        while len(tree(seed)[1]) < 32:
            seed += len(POOL_COMBOS)
        sweep.append(tree(seed))
    return pool, sweep
