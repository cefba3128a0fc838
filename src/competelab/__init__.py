"""Finite-difference laboratory for competing-species energy minimization."""

from .geometry import (Grid, DomainMask, build_rectangle, build_disc,
                       build_wedge, scale_mask)
from .model import (Nonlinearity, ScaledFamily, Coupling, logistic,
                    scaled_family, identical_family, coupling_quartic,
                    cutoff_phi)
from .energy import (DensityField, SpeciesSystem, EnergyReport, Objective,
                     energy_total, energy_gradient, single_species_energy,
                     lambda1, rescaled_copy, bilinear_sample, field_to_csv,
                     field_to_pgm)
from .solve import (SolverConfig, MinimizeResult, minimize_free,
                    minimize_partition, minimize_multistart,
                    default_initializers, kappa_continuation,
                    segregation_projection, merged_system, alive_flags)

__version__ = "0.1.0"
