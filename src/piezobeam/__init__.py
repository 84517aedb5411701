"""Voltage-actuated piezoelectric beam models, fully dynamic or electrostatic.

Four beam variants (single layer or symmetric patch pair, each under
Euler-Bernoulli or Mindlin-Timoshenko kinematics) are discretized from their
energy functionals, so the assembled matrices inherit the continuous energy
balance exactly.  An implicit midpoint integrator, modal analysis, structure
checks and a small CLI sit on top.
"""

__version__ = "0.1.0"
