import pytest

import satmdp.cli
import satmdp.mdp
from satmdp.cnf import formula_from_ints
from satmdp.mdp import build_instance
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
