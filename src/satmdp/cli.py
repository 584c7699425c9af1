"""Command-line front end: instance generation, claim verification, rollouts,
the RL-to-SAT reduction, and the bounded-occurrence transform.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
error (an unreadable or unwritable path included), 3 resource refusal,
4 internal error (a broken invariant).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import agents, gapsat, instances, mdp, reporting, reward
from .cnf import brute_force_sat, occurrence_bound, parse_dimacs, to_dimacs
from .errors import (
    FormulaError,
    ParameterError,
    ParseError,
    ResourceLimitError,
    SatMdpError,
)
from .polyfeat import theta_vector

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_INTERNAL = 4
LINEARITY_CASES = ((4, 2), (5, 2))  # (v, h) of verify-claims' tiny instances


def _params_from_args(args, v: int) -> reward.RewardParams:
    if getattr(args, "rounds", None) is not None:
        return reward.params_for_rounds(v=v, h=args.rounds, p=args.p, q=args.q,
                                        epsilon=args.epsilon, b=args.b)
    return reward.params_from_alpha(v=v, p=args.p, q=args.q, alpha=args.alpha,
                                    epsilon=args.epsilon, b=args.b)


def _signs(bits):
    """A 0/1 string as a {-1,+1} assignment; None when absent."""
    if not bits:
        return None
    if not isinstance(bits, str) or set(bits) - {"0", "1"}:
        raise ParameterError(f"assignment {bits!r} is not a string of 0s and 1s")
    return tuple(1 if c == "1" else -1 for c in bits)


def _bits(assignment):
    """A {-1,+1} assignment as a 0/1 string, the inverse of _signs; None when absent."""
    if assignment is None:
        return None
    return "".join("1" if x == 1 else "0" for x in assignment)


def _require_positive(**counts):
    for flag, value in counts.items():
        if value < 1:
            raise ParameterError(f"--{flag} must be at least 1, got {value}")


def _require_seed(seed):
    # np.random.Philox takes a key in [0, 2**128)
    if not 0 <= seed < 2**128:
        raise ParameterError(f"--seed must be in [0, 2**128), got {seed}")


def _write_report(report: dict, out: str | None):
    payload = reporting.report_to_json(report)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)


def _build_instance(f, params, wstar, mode, start) -> mdp.MdpInstance:
    """`mdp.build_instance`, refusing a start assignment (given or the default
    all-false one) that already meets the satisfaction threshold: its episode
    would end before the first step."""
    inst = mdp.build_instance(f, params, wstar=wstar, mode=mode, start=start)
    if mdp.initial_state(inst).is_terminal:
        raise ParameterError(
            "start assignment already meets the satisfaction threshold "
            f"({inst.gap_threshold_count} of {f.m} clauses)")
    return inst


def cmd_gen(args) -> int:
    data = Path(args.cnf).read_bytes()
    f = parse_dimacs(data)
    params = _params_from_args(args, f.v)
    t0 = time.perf_counter()
    inst = _build_instance(f, params, wstar=_signs(args.wstar), mode=args.mode,
                           start=_signs(args.start))
    out_dir = Path(args.out)
    config = {
        # relative to the bundle, so the bundle and its CNF move together
        "cnf_path": os.path.relpath(Path(args.cnf).resolve(), out_dir.resolve()),
        "cnf_sha256": hashlib.sha256(data).hexdigest(),
        "p": params.p, "q": params.q, "alpha": params.alpha, "h": params.h,
        "epsilon": params.epsilon, "b": params.b,
        "mode": args.mode,
        "start_assignment": args.start,
        "wstar": args.wstar,
    }
    metadata = {
        "v": f.v, "m": f.m, "b_achieved": occurrence_bound(f),
        "h": params.h, "H": params.H, "d": inst.d,
        # undecided in simulator mode, which never solves the formula
        "satisfiable": (None if args.mode == mdp.MODE_SIMULATOR
                        else inst.wstar is not None),
        "wstar": _bits(inst.wstar_assignment()),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "instance.json").write_text(
        json.dumps({"config": config, "metadata": metadata}, indent=2,
                   sort_keys=True) + "\n")
    report = reporting.make_report("gen", config, None, metadata,
                                   time.perf_counter() - t0)
    _write_report(report, str(out_dir / "report.json"))
    print(f"instance written to {out_dir}/instance.json "
          f"(v={f.v}, m={f.m}, H={params.H}, d={inst.d})")
    return EXIT_OK


def load_instance_bundle(path: str) -> mdp.MdpInstance:
    """Rebuild the instance of a `gen` bundle. `cnf_path` is resolved against
    the bundle's directory and the file must match `cnf_sha256`; a malformed
    or mismatched bundle is a ParameterError, and an unreadable bundle or CNF
    an OSError (both exit 2 from `main`)."""
    try:
        cfg = json.loads(Path(path).read_bytes())["config"]
        cnf_path = Path(path).parent / cfg["cnf_path"]
        data = cnf_path.read_bytes()
        if hashlib.sha256(data).hexdigest() != cfg["cnf_sha256"]:
            raise ParameterError(
                f"{cnf_path} does not match the bundle's cnf_sha256; "
                "the formula changed since the bundle was made")
        f = parse_dimacs(data)
        params = reward.RewardParams(v=f.v, p=cfg["p"], q=cfg["q"],
                                     alpha=cfg["alpha"], h=cfg["h"],
                                     epsilon=cfg["epsilon"], b=cfg["b"])
        wstar = _signs(cfg.get("wstar"))
        start = _signs(cfg.get("start_assignment"))
        mode = cfg["mode"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed bundle {path}: {exc!r}") from exc
    return _build_instance(f, params, wstar=wstar, mode=mode, start=start)


def _linearity_suite(seed: int) -> dict:
    """Max deviation between the feature/theta inner product and the greedy
    value, and between the DP optimum and the greedy value, on tiny instances."""
    max_lin = 0.0
    max_opt = 0.0
    states_checked = 0
    for i, (v, h) in enumerate(LINEARITY_CASES):
        # wrapped, so the largest --seed still gives valid Philox keys
        inst, wstar, _ = instances.random_satisfiable_instance(
            (seed + i) % 2**128, v=v, h=h, tree_budget=8_000)
        theta = theta_vector(wstar, v, inst.params.p)
        states, children = mdp.enumerate_reachable(inst, budget=8_000)
        optimal = agents.tree_optimal_values(inst, states, children)
        for s, opt_val in zip(states, optimal):
            greedy_val = agents.greedy_rollout_value(inst, s)
            lin = abs(float(mdp.features_state(inst, s) @ theta) - greedy_val)
            max_lin = max(max_lin, lin)
            max_opt = max(max_opt, abs(opt_val - greedy_val))
            states_checked += 1
    return {"states_checked": states_checked,
            "max_linearity_error": max_lin,
            "max_optimality_gap": max_opt,
            "pass": max_lin <= 1e-8 and max_opt <= 1e-9}


def cmd_verify_claims(args) -> int:
    t0 = time.perf_counter()
    v = args.v

    def params(v, p, q):
        return reward.params_from_alpha(v, p=p, q=q, alpha=args.alpha,
                                        epsilon=args.epsilon, b=args.b)

    v_step = min(v, 64)
    claims = {
        "claim_range_q4": reward.verify_claim_range(params(v, 2, 4)),
        "claim_range_q2_logp": reward.verify_claim_range(
            params(v, reward.log_degree(v), 2)),
        "claim_monotone_step": reward.verify_claim_monotone_step(
            params(v_step, 2, 4)),
        "claim_monotone_step_q2_logp": reward.verify_claim_monotone_step(
            params(v_step, reward.log_degree(v_step), 2)),
    }
    outcomes = {name: claim.to_dict() for name, claim in claims.items()}
    linearity = _linearity_suite(args.seed)
    outcomes["linearity_and_optimality"] = linearity
    all_pass = linearity["pass"] and all(c.passed for c in claims.values())
    config = {"v": v, "alpha": args.alpha, "epsilon": args.epsilon, "b": args.b}
    report = reporting.make_report("verify-claims", config, args.seed, outcomes,
                                   time.perf_counter() - t0)
    _write_report(report, args.out)
    print("verify-claims: " + ("all pass" if all_pass else "FAILURES (see report)"))
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


def cmd_run(args) -> int:
    _require_positive(episodes=args.episodes)
    t0 = time.perf_counter()
    inst = load_instance_bundle(args.instance)
    oracle = agents.SatOracle(inst, args.seed)
    if args.agent == "greedy":
        if inst.wstar is None:
            raise ParameterError("greedy agent needs a satisfying assignment")
        policy = agents.greedy_policy(inst)
    else:
        # a child of the seed, so the policy shares no bits with the
        # oracle's Philox(key=seed) reward stream
        rng = np.random.default_rng(np.random.SeedSequence(args.seed).spawn(1)[0])

        def policy(_s):
            return int(rng.integers(0, 3))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    totals = []
    kinds = []
    with open(out_dir / "trajectories.jsonl", "w") as fh:
        for _episode in range(args.episodes):
            total = 0
            # _build_instance refuses a terminal start, so every episode steps
            for s, a, r, nxt in agents.rollout(oracle, policy):
                # the bytes json.dumps writes for this dict of ints and a hex string
                fh.write(f'{{"step": {s.step}, "state_digest": '
                         f'"{mdp.state_digest(inst, s)}", "action": {a}, '
                         f'"reward": {r}}}\n')
                total += r
            totals.append(total)
            kinds.append(nxt.terminal_kind)
    config = {"instance": str(args.instance), "agent": args.agent,
              "episodes": args.episodes}
    outcomes = {"episode_rewards": totals, "terminal_kinds": kinds,
                "queries": dict(oracle.counters)}
    report = reporting.make_report("run", config, args.seed, outcomes,
                                   time.perf_counter() - t0)
    _write_report(report, str(out_dir / "report.json"))
    print(f"{args.episodes} episode(s) done; rewards={totals}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    _require_positive(episodes=args.episodes, budget=args.budget)
    t0 = time.perf_counter()
    f = parse_dimacs(Path(args.cnf).read_bytes())
    params = _params_from_args(args, f.v)
    if args.learner == "greedy":
        wstar = brute_force_sat(f)
        if wstar is None:
            raise ParameterError(
                "greedy learner demo needs a satisfiable formula; use --learner random")
        learner = agents.greedy_reference_learner(wstar)
    else:
        learner = agents.random_learner(args.episodes, seed=args.seed)
    result = agents.a_sat(f, learner, params, budget=args.budget, seed=args.seed)
    config = {"cnf": str(args.cnf), "learner": args.learner,
              "budget": args.budget, "p": params.p, "q": params.q,
              "alpha": params.alpha, "epsilon": params.epsilon, "b": params.b}
    outcomes = {"witness": _bits(result.witness),
                "queries": result.queries, "note": result.note}
    report = reporting.make_report("reduce", config, args.seed, outcomes,
                                   time.perf_counter() - t0, answer=result.answer)
    _write_report(report, args.out)
    print(result.answer)
    return EXIT_OK


def cmd_transform(args) -> int:
    t0 = time.perf_counter()
    f = parse_dimacs(Path(args.cnf).read_bytes(), strict=not args.lenient)
    psi = gapsat.bounded_occurrence_transform(f, args.b)
    if args.emit:
        Path(args.emit).write_text(to_dimacs(psi))
    outcomes = gapsat.transform_report(f, psi, args.b)
    config = {"cnf": str(args.cnf), "b": args.b}
    report = reporting.make_report("transform", config, None, outcomes,
                                   time.perf_counter() - t0)
    _write_report(report, args.out)
    print(f"transform: m {f.m} -> {psi.m}, occurrence bound "
          f"{occurrence_bound(f)} -> {occurrence_bound(psi)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satmdp",
        description="SAT-parameterized hard MDPs: build, verify, run, reduce.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(sp):
        sp.add_argument("--p", type=int, default=2)
        sp.add_argument("--q", type=int, default=4)
        sp.add_argument("--alpha", type=float, default=1 / 16)
        sp.add_argument("--rounds", type=int, default=None,
                        help="pin the round count h directly (overrides --alpha)")
        sp.add_argument("--epsilon", type=float, default=0.25)
        sp.add_argument("--b", type=int, default=6)

    sp = sub.add_parser("gen", help="build an instance bundle from a DIMACS file")
    sp.add_argument("--cnf", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--mode", choices=[mdp.MODE_FULL, mdp.MODE_SIMULATOR],
                    default=mdp.MODE_FULL)
    sp.add_argument("--start", default=None,
                    help="start assignment as a 0/1 string (default all-false)")
    sp.add_argument("--wstar", default=None,
                    help="satisfying assignment as a 0/1 string")
    add_params(sp)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("verify-claims", help="run the structural-claim verifiers")
    sp.add_argument("--v", type=int, default=50)
    sp.add_argument("--alpha", type=float, default=1 / 16)
    sp.add_argument("--epsilon", type=float, default=0.25)
    sp.add_argument("--b", type=int, default=6)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_verify_claims)

    sp = sub.add_parser("run", help="roll out an agent on an instance bundle")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--agent", choices=["greedy", "random"], default="greedy")
    sp.add_argument("--episodes", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("reduce", help="decide a gap formula via the simulator")
    sp.add_argument("--cnf", required=True)
    sp.add_argument("--learner", choices=["greedy", "random"], default="greedy")
    sp.add_argument("--episodes", type=int, default=8,
                    help="episodes for the random learner")
    sp.add_argument("--budget", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    add_params(sp)
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("transform", help="bounded-occurrence rewrite of a formula")
    sp.add_argument("--cnf", required=True)
    sp.add_argument("--b", type=int, default=6)
    sp.add_argument("--emit", default=None, help="path for the transformed DIMACS")
    sp.add_argument("--lenient", action="store_true",
                    help="accept clauses with fewer than 3 literals")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_transform)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:
            _require_seed(args.seed)
        return args.func(args)
    except (ParseError, ParameterError, FormulaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except SatMdpError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
