"""Exact arithmetic for shifted BC-symmetric interpolation polynomials,
invariant-operator eigenvalues, and their positivity regions.

The public names are each module's __all__, re-exported here."""

from .exactnum import *
from .limits import *
from .okounkov import *
from .partitions import *
from .rank2 import *
from .shimura import *

__version__ = "0.1.0"
