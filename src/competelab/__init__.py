"""Finite-difference laboratory for competing-species energy minimization."""

import ctypes

_M_TRIM_THRESHOLD = -1     # mallopt(3) parameter numbers of glibc
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> bool:
    """Keep freed heap memory in the process, so that a solver step reuses
    the pages of the step before instead of faulting fresh zeroed ones in.

    glibc gives the top of the heap back to the kernel once 128 KiB of it
    are free, and serves blocks of 128 KiB and more from fresh mappings.
    Its own rule raises both limits as larger blocks are freed, up to
    32 MiB and 64 MiB; this sets them there at once.  Returns whether
    both were set; without ``mallopt`` (a C library other than glibc) it
    does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, 32 << 20),
                mallopt(_M_TRIM_THRESHOLD, 64 << 20)])


_keep_freed_memory()

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
