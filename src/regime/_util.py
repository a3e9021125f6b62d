"""Shared helpers: JSON-friendly conversion and aligned text rendering."""

from __future__ import annotations

import enum

import numpy as np


def jsonify(obj):
    """Recursively convert numpy scalars/arrays, enums, and tuples for json.dump."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonify(obj.tolist())
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def render_text(doc: dict, indent: int = 0) -> str:
    """Aligned key/value rendering of a (jsonified) report document.

    Produced from the same dictionary that is serialised to JSON, so the two
    forms agree field by field.
    """
    lines = []
    pad = "  " * indent
    width = max((len(str(k)) for k in doc), default=0)
    for key, value in doc.items():
        label = f"{pad}{str(key).ljust(width)}"
        if isinstance(value, dict):
            lines.append(f"{label}:")
            lines.append(render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{label}:")
            for item in value:
                lines.append(render_text(item, indent + 1))
                lines.append("")
            while lines and lines[-1] == "":
                lines.pop()
        elif isinstance(value, list):
            flat = ", ".join(_fmt(v) if not isinstance(v, list)
                             else "[" + ", ".join(map(_fmt, v)) + "]" for v in value)
            lines.append(f"{label}: [{flat}]")
        else:
            lines.append(f"{label}: {_fmt(value)}")
    return "\n".join(lines)
