"""eoslab: a laboratory for constant-stepsize gradient descent on
separable classification, where the stepsize may be large enough that the
loss oscillates before it stabilizes.

Subpackages
-----------
numerics   seeded randomness, 1-D minimization
losses     loss families, their regularity constants, conformance checks
data       datasets, CSV ingestion, max-margin certification
descent    GD/SGD engines, trajectories, phase detection
ntk        two-layer ReLU network trained in the lazy regime
bounds     closed-form evaluators for every rate and transition-time bound
analysis   rate fitting, bound-vs-trajectory comparison, acceleration score
cli        the ``eos-lab`` command line front end
"""

from . import analysis, bounds, data, descent, losses, ntk, numerics

__all__ = ["analysis", "bounds", "data", "descent", "losses", "ntk", "numerics"]
__version__ = "0.1.0"
