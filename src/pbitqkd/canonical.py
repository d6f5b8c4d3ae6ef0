"""The one JSON writer, shared by transcripts and CLI documents.

Standard library only, so a command that never touches numpy can emit with
it: numpy's floating scalars register as ``numbers.Real`` (and its integers
as ``numbers.Integral``), so they are caught without importing numpy.
"""

from __future__ import annotations

import json
import math
from numbers import Integral, Real


def canonical_json(payload) -> str:
    """Sorted keys, no spaces, non-finite floats as null."""
    return json.dumps(_jsonsafe(payload), sort_keys=True, separators=(",", ":"))


def _jsonsafe(obj):
    """Replace non-finite floats by None so the document stays valid JSON."""
    if isinstance(obj, dict):
        return {k: _jsonsafe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonsafe(v) for v in obj]
    if isinstance(obj, float) or (isinstance(obj, Real) and not isinstance(obj, Integral)):
        x = float(obj)
        return x if math.isfinite(x) else None
    return obj
