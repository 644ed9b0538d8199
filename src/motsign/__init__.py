"""Exact arithmetic for the family of multiplications on Z x Z-graded
homotopy rings: cocycle twists of the reference product, the induced
graded-commutativity laws, translation between sign conventions,
realization-compatibility checks, and a weight-parity table scanner.

Each module's __all__ is the one list of its public names; the package
republishes them all."""

from .algebra import *
from .catalog import *
from .cocycles import *
from .conventions import *
from .errors import *
from .realize import *
from .scan import *
from .units import *

__version__ = "0.1.0"
