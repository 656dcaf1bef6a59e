"""Fundamental solutions of constant-coefficient ODE operators and their inequalities.

Build an evaluator from a frequency vector, certify sign hypotheses of high
derivatives, test polynomial dominance and Hankel positive-definiteness,
bound the squared-derivative ratio, and push nonnegative measures through the
basis transform into verified truncated moment sequences with recoverable
atomic representatives.

The layers load on first use (PEP 562): ``import expfun`` imports none of
them.  A public name imports the layers in dependency order until one lists
it in its ``__all__``, and that search repeats on every access, so a
rebinding in the layer, or a name leaving its ``__all__``, shows through;
``expfun.__all__``, ``dir(expfun)`` and ``from expfun import *`` import all
four.  A submodule attribute (``expfun.quadrature``, ``expfun.cli``) imports
that submodule.
"""

import importlib
import sys

__version__ = "0.1.0"

#: The layers whose ``__all__`` make up the package's, in this order.
_LAYERS = ("frequencies", "fundamental", "inequalities", "moments")
_SUBMODULES = frozenset(_LAYERS) | {"quadrature", "cli"}


def _submodule(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name == "__all__":
        # Each layer's __all__ alone decides what is public; a new name goes there only.
        return [*(n for layer in _LAYERS for n in _submodule(layer).__all__), "__version__"]
    if not name.startswith("__"):
        for layer in map(_submodule, _LAYERS):
            if name in layer.__all__:
                return getattr(layer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(sys.modules[__name__].__all__) | _SUBMODULES)
