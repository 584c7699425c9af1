"""The four workloads. Each builds a fixed pool of operations from its seed in
``setup``; ``operate`` runs one operation through the package's public
functions (or ``cli.main``) and returns what the checks need; ``check``
verifies it with the independent references in ``checks``; ``finish``
checks what only the whole run can show.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

import checks
from satmdp import agents, cli, instances, mdp, polyfeat, reporting, reward, toys


class Workload:
    name = ""
    PASS_S: float  # seconds per pass on the reference 2-CPU box; sets the pass count
    YARDSTICK = "interpreter"  # what bounds the operations; see run.py

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.pool: list = []

    def setup(self):
        raise NotImplementedError

    def operate(self, item, tick):
        """Run one operation; a long one calls tick() between its parts."""
        raise NotImplementedError

    def check(self, item, out) -> list:
        raise NotImplementedError

    def finish(self) -> list:
        return []


class TreeSweep(Workload):
    """Whole game trees of the criterion-1/2 pool shape. The instances are the
    same in every run: for each (v, h, eps) combination, the first instance of
    the criterion-1 seed sequence (1000 + k, 1016 + k, ...) whose tree has at
    least MIN_STATES states, so no operation is a sub-millisecond call. The
    seed only orders the sweep: tree sizes span 39 to 13,219 states, and a
    seed-dependent pool (or planted assignment, which changes every greedy
    rollout's length) moved throughput by 20% from seed to seed."""

    name = "tree_sweep"
    COMBOS = [(v, h, eps) for v in (4, 5, 6, 7) for h in (2, 3) for eps in (0.25, 0.125)]
    MIN_STATES = 32
    TREE_BUDGET = 20_000
    PASS_S = 3.0

    def setup(self):
        for k, (v, h, eps) in enumerate(self.COMBOS):
            gen_seed = 1000 + k
            while True:
                inst, wstar, _ = instances.random_satisfiable_instance(
                    gen_seed, v=v, h=h, p=2, q=4, epsilon=eps,
                    tree_budget=self.TREE_BUDGET)
                states, _ = mdp.enumerate_reachable(inst, budget=self.TREE_BUDGET)
                if len(states) >= self.MIN_STATES:
                    break
                gen_seed += len(self.COMBOS)
            self.pool.append((inst, checks.theta(wstar, v, 2)))
        np.random.default_rng(self.seed).shuffle(self.pool)

    def operate(self, item, tick=lambda: None):
        inst, theta = item
        states, children = mdp.enumerate_reachable(inst, budget=self.TREE_BUDGET)
        vstar = agents.tree_optimal_values(inst, states, children)
        lin, greedy, terminal, zero = [], [], [], []
        for s in states:
            phi = mdp.features_state(inst, s)
            lin.append(float(phi @ theta))
            greedy.append(agents.greedy_rollout_value(inst, s))
            terminal.append(s.is_terminal)
            zero.append(s.is_terminal and not phi.any())
        return lin, greedy, vstar, terminal, zero

    def check(self, item, out):
        lin, greedy, vstar, terminal, zero = out
        return (checks.check_linearity(lin, greedy, terminal, zero)
                + checks.check_optimality(greedy, vstar))


class FeatureMap(Workload):
    """Single states at v = 48 (d = 213,053) on a planted regular formula made
    from the seed. Feature cost depends on where in a round the state sits, so
    the pool holds one state at every STRIDE-th step of the horizon, taken
    from seeded random rollouts (a rollout that ends early leaves its missing
    steps to the next one); every run has the same step profile."""

    name = "feature_map"
    V, ROUNDS, EPS, STRIDE = 48, 2, 1 / 64, 4
    PASS_S = 2.5

    def setup(self):
        f, planted = instances.regular_planted_formula(self.V, seed=self.seed)
        params = reward.params_for_rounds(v=self.V, h=self.ROUNDS, p=2, q=4,
                                          epsilon=self.EPS, b=6)
        self.inst = mdp.build_instance(f, params, wstar=planted)
        self.theta = checks.theta(planted, self.V, 2)
        self.theta_problems = []
        if not np.array_equal(polyfeat.theta_vector(planted, self.V, 2), self.theta):
            self.theta_problems.append("polyfeat.theta_vector differs from theta(w*)")
        mdp.features_state(self.inst, mdp.initial_state(self.inst))  # fills the subset index
        rng = np.random.default_rng(self.seed)
        wanted = set(range(0, params.H, self.STRIDE))
        while wanted:
            s, found = mdp.initial_state(self.inst), []
            while not s.is_terminal:
                if s.step in wanted:
                    found.append(s)
                s = mdp.transition(self.inst, s, int(rng.integers(0, 3)))
            wanted -= {x.step for x in found}
            self.pool += [(x, s) for x in found]
        self.pool.sort(key=lambda item: item[0].step)

    def operate(self, item, tick=lambda: None):
        s, end = item
        phi = mdp.features_state(self.inst, s)
        lin = float(phi @ self.theta)
        greedy = agents.greedy_rollout_value(self.inst, s)
        end_zero = not mdp.features_state(self.inst, end).any()
        end_greedy = agents.greedy_rollout_value(self.inst, end)
        return [lin, 0.0], [greedy, end_greedy], end_zero

    def check(self, item, out):
        lin, greedy, end_zero = out
        return self.theta_problems + checks.check_linearity(
            lin, greedy, [False, True], [False, end_zero])


class LongEpisodes(Workload):
    """The criterion-5 instance (v = 768, m = 1536, h = 2, eps = 1/64,
    H = 1536). One operation per seed: one random episode through
    ``satmdp run``, then the reduction with the greedy reference learner
    (YES) and with the random learner (NO)."""

    name = "long_episodes"
    V, FORMULA_SEED, ROUNDS, EPS, B = 768, 7, 2, 1 / 64, 6
    POOL = 4
    PASS_S = 3.5

    def setup(self):
        self.formula, self.planted = instances.regular_planted_formula(
            self.V, seed=self.FORMULA_SEED)
        self.params = reward.params_for_rounds(v=self.V, h=self.ROUNDS, p=2, q=4,
                                               epsilon=self.EPS, b=self.B)
        self.clauses = checks.clause_ints(self.formula)
        self.threshold = checks.gap_threshold(len(self.clauses), self.EPS)
        self.wstar_mask = sum(1 << i for i, x in enumerate(self.planted) if x == 1)
        self.inst = mdp.build_instance(self.formula, self.params, wstar=self.planted)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        cnf_path = self.work_dir / "f768.cnf"
        cnf_path.write_text(checks.dimacs_text(self.V, self.clauses))
        # absolute paths: a bundle's cnf_path is read relative to the working directory
        self.bundle = self.work_dir / "bundle" / "instance.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "gen", "--cnf", str(cnf_path.resolve()),
                "--out", str(self.bundle.parent.resolve()),
                "--rounds", str(self.ROUNDS), "--epsilon", str(self.EPS),
                "--p", "2", "--q", "4", "--b", str(self.B),
                "--wstar", "".join("1" if x == 1 else "0" for x in self.planted)])
        if code != 0:
            raise RuntimeError(f"satmdp gen exited {code}")
        seeds = np.random.default_rng(self.seed).integers(0, 2**31, size=self.POOL)
        self.pool = [int(x) for x in seeds]
        self.bytes_per_step: list = []

    def operate(self, seed, tick=lambda: None):
        out = self.work_dir / "episode"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--instance", str(self.bundle.resolve()),
                             "--agent", "random", "--episodes", "1",
                             "--seed", str(seed), "--out", str(out.resolve())])
        tick()
        yes = agents.a_sat(self.formula, agents.greedy_reference_learner(self.planted),
                           self.params, seed=seed)
        tick()
        no = agents.a_sat(self.formula, agents.random_learner(1, seed=seed),
                          self.params, seed=seed)
        return code, out, yes, no

    def check(self, seed, out):
        code, out_dir, yes, no = out
        try:
            return self._check(code, out_dir, yes, no)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check(self, code, out_dir, yes, no):
        if code != 0:
            return [f"satmdp run exited {code}"]
        H = self.params.H
        path = out_dir / "trajectories.jsonl"
        self.bytes_per_step.append(path.stat().st_size / H)
        # streamed, keeping a short key per digest, so the check adds little
        # to the process's peak memory
        steps, keys, last_written = [], [], None
        s, prev = mdp.initial_state(self.inst), None
        with path.open() as fh:
            for line in fh:
                rec = json.loads(line)
                steps.append(rec["step"])
                last_written = rec["state_digest"]
                keys.append(hashlib.blake2b(last_written.encode(), digest_size=16).digest())
                if s is not None and not s.is_terminal:
                    prev, s = s, mdp.transition(self.inst, s, rec["action"])
                else:
                    s = None
        replayed = s if s is not None and s.is_terminal else None
        last_replayed = mdp.state_digest(self.inst, prev) if prev is not None else None
        problems = checks.check_episode(steps, keys, last_written, last_replayed,
                                        replayed, H)
        if replayed is not None and replayed.terminal_kind == "last_level":
            problems += checks.check_decay(replayed, self.wstar_mask, self.V, 2, 4,
                                           self.ROUNDS, self.EPS, self.B)
        report = json.loads((out_dir / "report.json").read_text())
        try:
            reporting.validate_report(report)
        except Exception as exc:  # jsonschema.ValidationError, kept out of the imports
            problems.append(f"run report fails its schema: {exc}")
        if yes.answer != "YES":
            problems.append(f"greedy reference learner answered {yes.answer}")
        else:
            problems += checks.check_witness(self.clauses, yes.witness, self.threshold)
        if no.answer != "NO":
            problems.append(f"random learner answered {no.answer}")
        return problems


class Baselines(Workload):
    """The criterion-8 and criterion-9 toy specs, one reward seed per
    operation: a fresh toy per spec, epsilon-net search on the three d <= 3
    specs and the horizon-split policy on the two others."""

    name = "baselines"
    EPS_NET = [dict(depth=3, num_actions=3, dim=2, structure_seed=5),
               dict(depth=4, num_actions=3, dim=2, structure_seed=9),
               dict(depth=2, num_actions=3, dim=3, structure_seed=7)]
    SPLIT = [dict(depth=4, num_actions=3, dim=2, structure_seed=5),
             dict(depth=9, num_actions=3, dim=4, structure_seed=21)]
    NET_EPS, SPLIT_EPS, DELTA, SAMPLE_CAP = 0.1, 0.2, 0.1, 20_000
    POOL = 2
    PASS_S = 5.0
    YARDSTICK = "mixed"

    def setup(self):
        self.cover = [checks.lattice_ball_count(self.NET_EPS, spec["depth"], spec["dim"])
                      for spec in self.EPS_NET]
        seeds = np.random.default_rng(self.seed).integers(0, 2**31, size=self.POOL)
        self.pool = [int(x) for x in seeds]
        self.wins = [[] for _ in self.EPS_NET + self.SPLIT]

    def operate(self, seed, tick=lambda: None):
        net, split = [], []
        for spec in self.EPS_NET:
            toy = toys.ToyLinearMdp(reward_seed=seed, **spec)
            net.append((toy, *agents.epsilon_net_search(toy, eps=self.NET_EPS,
                                                        delta=self.DELTA)))
            tick()
        for spec in self.SPLIT:
            toy = toys.ToyLinearMdp(reward_seed=seed, **spec)
            actions, _q, infos = agents.horizon_split_policy(
                toy, eps=self.SPLIT_EPS, delta=self.DELTA, sample_cap=self.SAMPLE_CAP)
            split.append((toy, actions, infos))
            tick()
        return net, split

    def check(self, seed, out):
        net, split = out
        problems = []
        for k, ((toy, actions, info), expected) in enumerate(zip(net, self.cover)):
            problems += checks.check_cover(info["cover_points"], expected)
            self.wins[k].append(toy.policy_value(actions)
                                >= toy.v_star() - checks.WIN_MARGIN)
        for k, (toy, actions, infos) in enumerate(split, start=len(net)):
            problems += checks.check_horizon_split(infos, toy.dim)
            self.wins[k].append(toy.policy_value(actions)
                                >= toy.v_star() - checks.WIN_MARGIN)
        return problems

    def finish(self):
        return [f"spec {k}: {p}" for k, outcomes in enumerate(self.wins)
                for p in checks.check_wins(outcomes)]


WORKLOADS = {cls.name: cls for cls in (TreeSweep, FeatureMap, LongEpisodes, Baselines)}
