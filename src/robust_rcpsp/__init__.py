"""Two-stage robust RCPSP under budgeted duration uncertainty.

First-stage decisions add precedence arcs until all resource conflicts are
resolved; the second stage evaluates the worst-case makespan over a
budgeted uncertainty set.  The package parses PSPLIB instances, evaluates
selections by dynamic programming, builds the compact MILP counterpart,
solves instances exactly with a branch-and-bound, and benchmarks variants.
"""

__version__ = "0.1.0"
