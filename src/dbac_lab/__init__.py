"""dbac-lab: a desk-scale laboratory for double-bracket algorithmic cooling.

Library layout:

* :mod:`dbac_lab.qmath` - dense linear algebra for small qubit registers
* :mod:`dbac_lab.states` - states and the cooling Hamiltonian
* :mod:`dbac_lab.dme` - density-matrix exponentiation channel, Trotterization, noise model
* :mod:`dbac_lab.dbac` - the cooling protocol, recursion, step-size optimization
* :mod:`dbac_lab.circuits` - gates, circuits and native-ZZ compilation
* :mod:`dbac_lab.tomography` - Pauli transfer matrices, fidelities, noise channels
* :mod:`dbac_lab.baselines` - compression-round and two-copy purification references
* :mod:`dbac_lab.acceptance` - the numbered acceptance criteria
* :mod:`dbac_lab.cli` - config-driven experiment runner (`dbac-lab` entry point)
"""

__version__ = "0.1.0"

from .dbac import (  # noqa: F401
    CoolingRecord,
    DbacSchedule,
    basin_min_fidelity,
    check_step_sizes,
    copies_accounting,
    dbac_energy_analytic,
    dbac_recursive_exact,
    dbac_via_dme,
    descent_bound_residual,
    final_fidelities_over_s,
    optimal_step,
    step_size_grid,
)
from .dme import (  # noqa: F401
    bloch_planes,
    density_matrices,
    dme_errors,
    partial_swap,
    partial_swap_power,
    rotation_operands,
    swap_coefficients,
    swap_operands,
    swap_z,
)
from .states import (  # noqa: F401
    DensityMatrix,
    HamiltonianSpec,
    PureState,
    pseudo_pure,
    rx_init,
)
