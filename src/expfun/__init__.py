"""Fundamental solutions of constant-coefficient ODE operators and their inequalities.

Build an evaluator from a frequency vector, certify sign hypotheses of high
derivatives, test polynomial dominance and Hankel positive-definiteness,
bound the squared-derivative ratio, and push nonnegative measures through the
basis transform into verified truncated moment sequences with recoverable
atomic representatives.

The layers load on first use (PEP 562): ``import expfun`` imports none of
them.  A public name imports the layers in dependency order until one lists
it, and is looked up in that layer on every access, so a rebinding there
shows through; ``expfun.__all__``, ``dir(expfun)`` and ``from expfun import *``
import all four.  A submodule attribute (``expfun.quadrature``,
``expfun.cli``) imports that submodule.
"""

import importlib
import sys

__version__ = "0.1.0"

#: The layers whose ``__all__`` make up the package's, in this order.
_LAYERS = ("frequencies", "fundamental", "inequalities", "moments")
_SUBMODULES = frozenset(_LAYERS) | {"quadrature", "cli"}


def _submodule(name: str):
    return importlib.import_module(f"{__name__}.{name}")


#: Public name -> the layer that lists it, filled on first access.  The value is
#: read from the layer each time, so a rebinding there shows through.
_owners = {}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name == "__all__":
        # Each layer's __all__ alone decides what is public; a new name goes there only.
        public = [*(n for layer in _LAYERS for n in _submodule(layer).__all__), "__version__"]
        globals()["__all__"] = public
        return public
    owner = _owners.get(name)
    if owner is None and not name.startswith("__"):
        owner = next((m for m in map(_submodule, _LAYERS) if name in m.__all__), None)
        if owner is not None:
            _owners[name] = owner
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(owner, name)


def __dir__():
    return sorted(set(globals()) | set(sys.modules[__name__].__all__) | _SUBMODULES)
