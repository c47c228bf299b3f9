"""Population-transfer laboratory.

Simulation and statistics toolkit for the population-transfer (PT)
protocol in transverse-field spin systems: exact state-vector dynamics
on small instances, closed-form down-folded impurity-band Hamiltonians,
preferred-basis Levy-matrix ensemble statistics, the analog multi-target
Grover comparison, and the hybrid PT + steepest-descent pipeline.

Every name is imported from the submodule that defines it, e.g.
``from pt_lab.pblm import sample_pblm``. This package imports nothing,
so ``import pt_lab`` loads no numpy: the CLI sets its BLAS thread count
before the first numpy import, and that must also hold under
``python -m pt_lab.cli``, which imports this package first.
"""

__version__ = "0.1.0"
