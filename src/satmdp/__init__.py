"""SAT-parameterized hard MDPs for linearly-realizable reinforcement learning.

Submodules: cnf (formulas and exhaustive oracles), gapsat (bounded-occurrence
transform and gap promise), reward (per-round polynomials and claim
verifiers), polyfeat (the greedy value polynomial in closed form, and the
feature / theta vectors that make the value linear), mdp (the
deterministic game engine), agents (policies, DP oracle, the reduction, and
the two brute-force RL baselines), toys (planted linear tree MDPs), cli.
"""

__version__ = "0.1.0"
