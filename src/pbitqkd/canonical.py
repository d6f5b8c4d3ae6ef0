"""The one JSON writer, shared by transcripts and CLI documents, and the
readers of integer and real config values.

Standard library only, so a command that never touches numpy can use it:
numpy's floating scalars register as ``numbers.Real`` (and its integers as
``numbers.Integral``), so they are caught without importing numpy.
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


def json_int(value) -> int:
    """An integer config value: an int, or an integral float such as 1e7.

    A bool or a non-number raises TypeError; a fraction or a non-finite float
    raises ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"need an integer, got {value!r}")
    if not (isinstance(value, Integral) or float(value).is_integer()):
        raise ValueError(f"need an integer, got {value!r}")
    return int(value)


def json_real(value) -> float:
    """A real config value: an int or a float, as a float.

    A bool or a non-number raises TypeError; the range is the caller's to check.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"need a real number, got {value!r}")
    return float(value)
