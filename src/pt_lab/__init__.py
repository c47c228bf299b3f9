"""Population-transfer laboratory.

Simulation and statistics toolkit for the population-transfer (PT)
protocol in transverse-field spin systems: exact state-vector dynamics
on small instances, closed-form down-folded impurity-band Hamiltonians,
preferred-basis Levy-matrix ensemble statistics, the analog multi-target
Grover comparison, and the hybrid PT + steepest-descent pipeline.

The names below are imported from their submodule on first use (PEP 562),
so ``import pt_lab`` loads no numpy: the CLI sets its BLAS thread count
before the first numpy import, and that must also hold under
``python -m pt_lab.cli``, which imports this package first.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "instances": (
        "ImpurityBandInstance", "SpinGlassInstance", "gen_impurity_band",
        "gen_spin_glass", "classical_energy", "ib_energy", "spectrum_summary",
        "save_instance", "load_instance"),
    "bits": ("hamming",),
    "statevector": (
        "StateVector", "EvolutionConfig", "evolve_trotter", "exact_eigs",
        "transition_probability", "survival_probability", "run_pt_protocol"),
    "downfold": (
        "TunnelingParams", "DownfoldedMatrix", "theta", "v_typ",
        "tunneling_amplitude", "build_downfolded", "pdf_w", "sample_w",
        "extract_numeric_elements"),
    "pblm": (
        "PBLMConfig", "LevyStableParams", "MinibandDiagnostics", "sample_pblm",
        "classify_phase", "omega_predicted", "sigma_omega", "mu_omega",
        "predicted_gamma_law", "stable_pdf", "stable_sample",
        "cauchy_shift_pdf", "extract_gamma", "site_self_energies",
        "participation_ratios", "fit_stable_quantiles", "pt_time"),
    "grover": (
        "GroverSetup", "grover_time", "build_reduced_hamiltonian",
        "perturbative_transfer", "pt_time_with_error"),
    "optimize": (
        "LocalMinimumRecord", "AnnealSchedule", "steepest_descent",
        "enumerate_local_minima", "basin_distribution", "enrichment_ratio",
        "simulated_annealing"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:  # pt_lab.pblm etc. after a bare ``import pt_lab``
        return importlib.import_module(f".{name}", __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
