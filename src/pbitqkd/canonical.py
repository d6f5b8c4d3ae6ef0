"""The one JSON writer, shared by transcripts and CLI documents, the readers
of integer and real config values, and the one reader of config objects.

Standard library only, so a command that never touches numpy can use it:
numpy's floating scalars register as ``numbers.Real`` (and its integers as
``numbers.Integral``), so they are caught without importing numpy.
"""

from __future__ import annotations

import json
import math
from collections.abc import Container, Iterable, Mapping
from dataclasses import MISSING, fields
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


def read_entries(d, parsers: Mapping, keep_none: Container = (), near: Iterable = ()) -> dict:
    """The entries of the JSON object ``d``, each through its parser.

    ``parsers`` maps every key ``d`` may hold to its parser (None: the value
    as it is); a null under a key in ``keep_none`` stays None.  Each key not
    in ``parsers`` and each value its parser refuses is named in one error:
    a TypeError if each of them is one, else a ValueError.  A refused key
    names the closest of ``parsers``' keys and ``near``, the keys that
    another reader took from the same object.
    """
    if not isinstance(d, Mapping):
        raise TypeError(f"need a JSON object, got {d!r}")
    out, errors = {}, []
    for key, value in d.items():
        try:
            if key not in parsers:
                import difflib  # only a refused key pays for it

                close = difflib.get_close_matches(str(key), [*parsers, *near], n=1)
                raise ValueError("unknown key" + "".join(f" (did you mean {c!r}?)" for c in close))
            parse = parsers[key]
            keep = parse is None or (value is None and key in keep_none)
            out[key] = value if keep else parse(value)
        except (TypeError, ValueError) as exc:
            errors.append((key, exc))
    if errors:
        kind = TypeError if all(isinstance(exc, TypeError) for _, exc in errors) else ValueError
        raise kind("; ".join(f"{key}: {exc}" for key, exc in errors))
    return out


def from_fields(cls, d, parsers: Mapping, near: Iterable = ()):
    """The dataclass ``cls`` read from the JSON object ``d``, whose keys are its fields.

    ``read_entries`` reads ``d`` with ``parsers`` and ``near``; an absent field
    keeps its default, and one with no default is a TypeError that names it.
    A null is None only where the default is None; anywhere else it fails in
    the field's parser (or the constructor).
    """
    known = fields(cls)
    values = read_entries(d, {f.name: parsers.get(f.name) for f in known},
                          {f.name for f in known if f.default is None}, near)
    missing = [repr(f.name) for f in known
               if f.name not in values and f.default is f.default_factory is MISSING]
    if missing:
        raise TypeError(f"missing {' and '.join(missing)}")
    return cls(**values)
