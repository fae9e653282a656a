"""Numerics toolkit for random quantum circuits with compact symplectic
blocks: Pauli-string algebra, Lie closures, Haar samplers for SP(d/2) and
friends, exact diagram twirls, circuit simulation, Gaussian-process
statistics, and an exact second-moment propagator in the Brauer-diagram
basis.
"""

__version__ = "0.1.0"

from .errors import CapacityError, DomainError
from .pauli import PauliString, enumerate_sp_basis, sp_dimension
from .sampler import RngStream, sample_orthogonal, sample_sp, sample_unitary

__all__ = [
    "__version__",
    "CapacityError",
    "DomainError",
    "PauliString",
    "enumerate_sp_basis",
    "sp_dimension",
    "RngStream",
    "sample_orthogonal",
    "sample_sp",
    "sample_unitary",
]
