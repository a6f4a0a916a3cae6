"""Numerical diagnostics for central limit theorems of random sums.

Condition functionals (Lyapunov, Lindeberg, Feller, infinitesimality, and the
normal-comparison tail functional) with their index-randomized counterparts,
seeded Monte Carlo simulation of normalized random sums, and approximation-
rate audits against the index-averaged bound shapes.
"""

__version__ = "0.1.0"
