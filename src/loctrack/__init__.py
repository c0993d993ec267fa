"""Performance bounds and information-coupling analysis for multi-surface
multi-user localisation and tracking.

The package computes, for a fleet of users tracked through reconfigurable
reflecting surfaces under a spatio-temporal prior:

* the Bayesian CRB of every (step, user) position, jointly and marginally;
* the efficiency of coupling (EoC): how much of a state's own information
  survives once all other states are marginalised out, with an absorbing
  random-walk interpretation over the information graph;
* a per-step recursive form of the bound, its monotone-convergence
  condition, and the closed-form stationary point under constant inputs;
* closed-form behaviour in the extreme spatial/temporal correlation
  regimes;
* a seeded Monte Carlo experiment harness with CSV/JSON artifacts.

Import each name from the module that defines it, e.g.
``from loctrack.fim import bcrb``.
"""

__version__ = "0.1.0"
