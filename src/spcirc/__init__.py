"""Numerics toolkit for random quantum circuits with compact symplectic
blocks: Pauli-string algebra, Lie closures, Haar samplers for SP(d/2) and
friends, exact diagram twirls, circuit simulation, Gaussian-process
statistics, and an exact second-moment propagator in the Brauer-diagram
basis.

The package imports none of its modules: import the one you use, e.g.
``from spcirc import moment``. ``spcirc.cli`` executes only the modules a
subcommand reads.
"""

__version__ = "0.1.0"
