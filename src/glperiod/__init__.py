"""Pseudo-spectral period-map solver and stability harness for the forced
cubic complex Ginzburg-Landau equation u_t - (1+i) Lap u = |u|^2 u + g on a
centered periodic box."""

__version__ = "0.1.0"

from .errors import (ConfigError, GLPeriodError, NonFiniteField, OddnessViolation,
                     SeamDecayViolation)
from .spectral import (FieldSeries, Grid, GridConfig, SpectralField, make_grid,
                       read_snapshot, write_snapshot)
from .operators import (CutoffSpec, LinearOperatorSpec, auto_cutoffs, make_cutoffs,
                        make_operator)
from .norms import (NormSuite, forcing_bracket, lp_norm, sobolev_norm,
                    spacetime_norm, x_weighted_gradient_norm, z_norm)
from .forcing import ForcingSpec, PerturbationSpec, realize_forcing, realize_perturbation
from .periodic_solver import (PeriodicSolveReport, SolveOptions, equation_residual,
                              solve_periodic)
from .stability import (DecayReport, StabilityRunConfig, fit_decay_rate,
                        run_stability)
from .verification import CheckReport, run_all_checks

__all__ = [
    "CheckReport", "ConfigError", "CutoffSpec", "DecayReport", "FieldSeries",
    "ForcingSpec", "GLPeriodError", "Grid", "GridConfig", "LinearOperatorSpec",
    "NonFiniteField", "NormSuite", "OddnessViolation", "PeriodicSolveReport",
    "PerturbationSpec", "SeamDecayViolation", "SolveOptions", "SpectralField",
    "StabilityRunConfig", "auto_cutoffs", "equation_residual",
    "fit_decay_rate", "forcing_bracket", "lp_norm", "make_cutoffs", "make_grid",
    "make_operator", "read_snapshot", "realize_forcing", "realize_perturbation",
    "run_all_checks", "run_stability", "sobolev_norm", "solve_periodic",
    "spacetime_norm", "write_snapshot", "x_weighted_gradient_norm", "z_norm",
]
