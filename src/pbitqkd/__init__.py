"""pbitqkd: private-state quantum key distribution, numerically.

Dense linear-algebra simulation of key distribution drawn from *private
states* (twisted maximally-entangled states whose key is protected by a
shield subsystem), including:

* construction of pbits/pdits, the hiding-state family rho_H(p, kappa), and
  the specific twisting whose untwisted marginal is an explicit two-qubit
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
"""

from . import linalg, states, twist, estimation, channels, bounds, ecpa, protocol
from .linalg import *
from .states import *
from .twist import *
from .estimation import *
from .channels import *
from .bounds import *
from .ecpa import *
from .protocol import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (linalg, states, twist, estimation, channels, bounds, ecpa, protocol)
    for name in module.__all__
]
