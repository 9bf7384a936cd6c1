"""Feasibility planner for annealer-offloaded cellular baseband processing.

Models the compute demand of baseband tasks across cell configurations,
the power of silicon and annealer-offloaded deployments, the qubit counts
an annealer needs to keep up, and the economics and timeline of switching.
Each name is imported from the module that defines it, such as
`qaplan.workload` or `qaplan.economics`; the package itself holds none.
"""

__version__ = "0.1.0"
