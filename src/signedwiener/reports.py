"""Line-oriented key-value rendering for scripted consumers.

A report flattens to `dotted.path = token` lines.  Parsing those lines
rebuilds the same nested tree, so machine-readable output of any
command round-trips exactly.  Leaves are integers, true/false, none,
inf, bare words, or bracketed lists of those.
"""

from __future__ import annotations

import dataclasses
import math

from .graphs import Graph


def scalar_token(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if math.isnan(value):
            raise ValueError("nan is not representable")
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        if not value or any(ch.isspace() for ch in value) \
                or any(ch in value for ch in "[]="):
            raise ValueError(f"string not representable as a token: {value!r}")
        return value
    raise ValueError(f"unsupported leaf value {value!r}")


def parse_token(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    if text == "none":
        return None
    if text == "inf":
        return math.inf
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _is_leaf_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        not isinstance(item, (list, tuple, dict)) for item in value)


def as_tree(obj):
    """Nested dicts/lists of leaf scalars from a report object."""
    if isinstance(obj, Graph):
        return {"n": obj.n, "edges": [list(e) for e in obj.edges]}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: as_tree(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(key): as_tree(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        if _is_leaf_list(obj):
            return list(obj)
        return [as_tree(item) for item in obj]
    return obj


def render_kv(tree: dict) -> str:
    """Flatten a tree into sorted-stable `path = token` lines."""
    if not isinstance(tree, dict):
        raise ValueError("top level must be a mapping")
    lines = []

    def emit(path: str, node) -> None:
        if isinstance(node, dict):
            if not node:
                raise ValueError(f"empty mapping at {path!r} cannot "
                                 "round-trip")
            for key, value in node.items():
                if not isinstance(key, str) or "." in key \
                        or scalar_token(key) != key:
                    raise ValueError(f"unusable key {key!r} at {path!r}")
                emit(f"{path}.{key}" if path else key, value)
            return
        if isinstance(node, (list, tuple)) and not _is_leaf_list(node):
            for index, item in enumerate(node):
                emit(f"{path}.{index}", item)
            return
        if isinstance(node, (list, tuple)):
            body = " ".join(scalar_token(item) for item in node)
            lines.append(f"{path} = [{body}]")
            return
        lines.append(f"{path} = {scalar_token(node)}")

    emit("", tree)
    return "\n".join(lines) + "\n" if lines else ""


def _listify(node):
    if not isinstance(node, dict):
        return node
    rebuilt = {key: _listify(value) for key, value in node.items()}
    if rebuilt and all(key.isdigit() for key in rebuilt):
        indices = sorted(int(key) for key in rebuilt)
        if indices == list(range(len(indices))):
            return [rebuilt[str(i)] for i in indices]
    return rebuilt


def parse_kv(text: str) -> dict:
    """Rebuild the tree from rendered lines.

    Dict nodes whose keys are exactly 0..len-1 come back as lists, so
    renderers must not emit mappings of that shape (list-valued report
    fields are lists to begin with).
    """
    root: dict = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"malformed line {raw!r}")
        value = value.strip()
        if value.startswith("[") and value.endswith("]"):
            body = value[1:-1].strip()
            parsed = [parse_token(tok) for tok in body.split()] if body \
                else []
        else:
            parsed = parse_token(value)
        node = root
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"path {key!r} descends through a leaf")
        if parts[-1] in node:
            raise ValueError(f"duplicate path {key!r}")
        node[parts[-1]] = parsed
    return _listify(root)
