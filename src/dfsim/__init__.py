"""Numerical simulator for small arrays of dipole-coupled two-level
emitters: collective level structure, conditional and master-equation
dynamics, pulse protocols on the decoherence-free logical pair, robustness
sweeps, and cluster-chain growth."""

__version__ = "0.1.0"

from .cluster import expected_growth, grow_chain, verify_cluster_state_small
from .coupling import (CouplingSet, SpectralParams, coupling_matrices,
                       dicke_coupling, spectral_params, xi_coefficient)
from .dynamics import (DriveSpec, IntegrationError, JumpSet, Tone, Trajectory,
                       evolve_lindblad, evolve_nojump, jump_operators)
from .geometry import (DisorderSpec, Geometry, linear_array, linear_array_xi,
                       sample_disorder)
from .hilbert import (CollectiveBasis, collective_eigenbasis, dfs4_states,
                      fidelity, fidelity_raw)
from .protocols import (CPhaseResult, ProtocolError, ProtocolResult,
                        ReadoutResult, calibrate_detuning, cphase4,
                        effective_prep_coupling, effective_rotation_couplings,
                        prepare_b, readout_coupling, readout_fluorescence,
                        rotate_logical)
from .robustness import (ScenarioBase, SweepSpec, SweepResult, ToleranceTable,
                         sweep, tolerance, tolerance_table)

__all__ = [
    "CollectiveBasis", "CouplingSet", "CPhaseResult", "DisorderSpec",
    "DriveSpec", "Geometry", "IntegrationError", "JumpSet", "ProtocolError",
    "ProtocolResult", "ReadoutResult", "ScenarioBase", "SpectralParams",
    "SweepResult", "SweepSpec", "ToleranceTable", "Tone", "Trajectory",
    "calibrate_detuning", "collective_eigenbasis",
    "coupling_matrices", "cphase4", "dfs4_states", "dicke_coupling",
    "effective_prep_coupling", "effective_rotation_couplings",
    "evolve_lindblad", "evolve_nojump", "expected_growth", "fidelity",
    "fidelity_raw", "grow_chain", "jump_operators", "linear_array",
    "linear_array_xi", "prepare_b", "readout_coupling",
    "readout_fluorescence", "rotate_logical", "sample_disorder",
    "spectral_params", "sweep", "tolerance", "tolerance_table",
    "verify_cluster_state_small", "xi_coefficient",
]
