"""dbac-lab: a desk-scale laboratory for double-bracket algorithmic cooling.

Library layout:

* :mod:`dbac_lab.qmath` - dense linear algebra for small qubit registers
* :mod:`dbac_lab.states` - states, the cooling Hamiltonian, imaginary-time evolution
* :mod:`dbac_lab.dme` - density-matrix exponentiation channel and Trotterization
* :mod:`dbac_lab.dbac` - the cooling protocol, recursion, step-size optimization
* :mod:`dbac_lab.circuits` - native-ZZ compilation and the cooling circuit layouts
* :mod:`dbac_lab.tomography` - Pauli transfer matrices, fidelities, noise model
* :mod:`dbac_lab.baselines` - compression-round and two-copy purification references
* :mod:`dbac_lab.acceptance` - the numbered acceptance criteria
* :mod:`dbac_lab.cli` - config-driven experiment runner (`dbac-lab` entry point)
"""

__version__ = "0.1.0"

from .dbac import (  # noqa: F401
    BasinResult,
    CoolingRecord,
    DbacSchedule,
    basin_min_fidelity,
    best_final_fidelity,
    copies_accounting,
    dbac_energy_analytic,
    dbac_recursive_exact,
    dbac_step_exact,
    dbac_via_dme,
    descent_bound_residual,
    final_fidelities_over_s,
    optimal_step,
    step_size_grid,
    synthesize_uk,
)
from .dme import (  # noqa: F401
    bloch_planes,
    density_matrices,
    dme_errors,
    dme_step_exact,
    exact_conjugation,
    partial_swap,
    reflector,
    swap_coefficients,
    swap_operands,
)
from .states import (  # noqa: F401
    BlochVector,
    DensityMatrix,
    HamiltonianSpec,
    PureState,
    bloch_vector,
    energy,
    excess_energy,
    fidelity,
    ite_evolve,
    pseudo_pure,
    rx_init,
)
