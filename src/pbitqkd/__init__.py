"""pbitqkd: private-state quantum key distribution, numerically.

Dense linear-algebra simulation of key distribution drawn from *private
states* (twisted maximally-entangled states whose key is protected by a
shield subsystem), including:

* construction of qubit-key pbits, the hiding-state family rho_H(p, kappa),
  and the specific twisting whose untwisted marginal is an explicit two-qubit
  state (`states`, `twist`);
* a six-branch Kraus channel on the B/B' factors that binds key noise to the
  shield, reproducing rho_H exactly (`channels`);
* LOCC estimation of the twisted phase error via two-local product
  decompositions of the twisted observable (`estimation`);
* finite-size security-bound evaluators (kept verbatim, evaluated in log2
  space) and the protocol parameter solver (`bounds`);
* toy error correction and Toeplitz privacy amplification (`ecpa`);
* deterministic end-to-end protocol runs -- entanglement-based and
  prepare-and-measure -- emitting versioned JSON transcripts (`protocol`);
* a CLI front end (`cli`, console script ``pbitqkd``).

The namespace is lazy (PEP 562): ``import pbitqkd`` loads no submodule, a
submodule name loads that submodule alone, and the first exported name used
loads the eight exporting submodules (and numpy) at once.
"""

import importlib

__version__ = "0.1.0"

# in import order; each lists its exports in its own __all__
_EXPORTING = ("linalg", "states", "twist", "estimation", "channels", "bounds", "ecpa", "protocol")
_SUBMODULES = frozenset(_EXPORTING + ("canonical", "cli"))


def _load_exports() -> None:
    """Bind every submodule's exports, and ``__all__``, in the package namespace."""
    if "__all__" in globals():
        return
    names = ["__version__"]
    for mod in _EXPORTING:
        module = importlib.import_module(f".{mod}", __name__)
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__" or not name.startswith("__"):
        _load_exports()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _load_exports()
    return sorted(globals())
