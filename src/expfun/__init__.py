"""Fundamental solutions of constant-coefficient ODE operators and their inequalities.

Build an evaluator from a frequency vector, certify sign hypotheses of high
derivatives, test polynomial dominance and Hankel positive-definiteness,
bound the squared-derivative ratio, and push nonnegative measures through the
basis transform into verified truncated moment sequences with recoverable
atomic representatives.
"""

from . import frequencies, fundamental, inequalities, moments
from .frequencies import *
from .fundamental import *
from .inequalities import *
from .moments import *

__version__ = "0.1.0"

# Each layer's __all__ alone decides what is public; a new name goes there only.
__all__ = [*frequencies.__all__, *fundamental.__all__, *inequalities.__all__,
           *moments.__all__, "__version__"]
