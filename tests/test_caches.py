"""Every functools cache in the package has a finite maxsize, or its key space
is small by construction and stated here; the one memo that is no functools
cache, `satmdp.agents._recordings`, is checked against its bound by name."""
import importlib
import inspect
import pkgutil
from collections import OrderedDict

import pytest

import satmdp
from satmdp import agents, polyfeat, reward
from satmdp.agents import epsilon_net_search, tree_optimal_values
from satmdp.mdp import features_state
from satmdp.toys import ToyLinearMdp

# caches with no maxsize, each with the key space that bounds it
UNBOUNDED = {
    "satmdp.polyfeat._subset_layout": "one entry per (v, 2p+1), each about "
                                      "2p v blocks of a d of at most "
                                      "DENSE_VECTOR_BYTES / 8",
    "satmdp.polyfeat._cell_index_cache": "one entry per (v, 2p+1), each a "
                                         "cache of at most INDEX_CACHE_BYTES",
    "satmdp.agents._action_pairs": "one entry per action count k",
    "satmdp.cli.build_parser": "takes no arguments",
}


def _package_caches():
    """{qualified name: cache} for every module-level and class-level object
    with `cache_info` defined in a satmdp module."""
    caches = {}
    for info in pkgutil.iter_modules(satmdp.__path__):
        module = importlib.import_module(f"satmdp.{info.name}")
        owners = [(module.__name__, vars(module))]
        owners += [(f"{module.__name__}.{name}", vars(cls))
                   for name, cls in vars(module).items()
                   if inspect.isclass(cls) and cls.__module__ == module.__name__]
        for prefix, namespace in owners:
            for name, obj in namespace.items():
                if (hasattr(obj, "cache_info")
                        and getattr(obj, "__module__", None) == module.__name__):
                    caches[f"{prefix}.{name}"] = obj
    return caches


def test_every_package_cache_is_bounded_or_states_its_key_space():
    caches = _package_caches()
    # the walk finds the bounded caches too
    assert {"satmdp.polyfeat._coefficient_table",
            "satmdp.reward.expected_reward",
            "satmdp.toys._planted"} <= set(caches)
    unbounded = {name for name, fn in caches.items()
                 if fn.cache_parameters()["maxsize"] is None}
    assert unbounded == set(UNBOUNDED)


@pytest.mark.parametrize("trees, tables, means", [
    ("sweep", 1_076, 1_524),  # the 16 tree_sweep trees
    ("pool", 1_834, 3_635),   # the 50 criterion-1 trees
])
def test_a_second_pass_over_a_sweep_of_trees_builds_no_value(
        pool_trees, trees, tables, means):
    """Round summaries do not depend on the formula, so a sweep's trees
    share them; the value caches hold a whole sweep's, and every pass after
    the first reads each coefficient table and terminal mean from them."""
    pool, sweep = pool_trees
    polyfeat._coefficient_table.cache_clear()
    reward.expected_reward.cache_clear()
    misses = []
    for _ in range(2):
        for inst, states, children in {"sweep": sweep, "pool": pool}[trees]:
            for s in states:
                features_state(inst, s)
            tree_optimal_values(inst, states, children)
        misses.append((polyfeat._coefficient_table.cache_info().misses,
                       reward.expected_reward.cache_info().misses))
    # the first pass builds each distinct summary's value once, the second none
    assert misses == [(tables, means)] * 2


def test_the_epsilon_net_memo_keeps_its_most_recently_used_recordings(monkeypatch):
    """`agents._recordings` holds at most `agents.RECORDINGS` = 8 lattice
    partitions and drops the least recently used: after 9 structures the
    first is gone, and a structure searched again outlives older ones."""
    monkeypatch.setattr(agents, "_recordings", OrderedDict())
    built = []

    def lattice(*args, real=agents._lattice_lines):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(agents, "_lattice_lines", lattice)

    def misses(*structure_seeds):
        """Whether each search built the lattice, that is found no recording."""
        out = []
        for seed in structure_seeds:
            count = len(built)
            epsilon_net_search(ToyLinearMdp(depth=2, num_actions=2, dim=2,
                                            structure_seed=seed, reward_seed=1),
                               eps=1.0, delta=0.1)
            out.append(len(built) > count)
        return out

    assert misses(*range(9)) == [True] * 9
    assert len(agents._recordings) == agents.RECORDINGS == 8
    # structure 0 went; structure 1 is read again, so structure 2 goes next
    assert misses(1, 9) == [False, True]
    assert len(agents._recordings) == 8
    assert misses(1, 3, 9, 2, 0) == [False, False, False, True, True]
