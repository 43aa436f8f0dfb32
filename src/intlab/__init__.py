"""Numerical laboratory for classical integrable many-body systems.

Submodules group by system family: calogero holds the rational
Calogero-Moser system; sutherland holds the trigonometric BC_n Sutherland
system, its rational dual and the rational deformed family.  Shared
kernels live in linalg and dynamics; errors holds the exception types.
"""

__version__ = "0.1.0"
