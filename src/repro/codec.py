"""One JSON codec for every frozen spec dataclass.

Scenario specs, the cluster config, the cost model and the loss/failure
specs all inherit :class:`Codec`, which derives both directions from the
dataclass fields and their annotations:

* **encode** (:meth:`Codec.to_dict`) writes every field whose value
  differs from its default (a field without a default is always
  written); tuples become lists and nested codecs encode recursively;
* **decode** (:meth:`Codec.from_dict`) follows the annotations: nested
  ``Codec`` types rebuild through their own ``from_dict``, and
  ``X | None``, ``tuple[T, ...]``, fixed tuples and ``dict`` are rebuilt
  element by element.  Unknown keys, missing required keys and values of
  the wrong JSON type raise :class:`~repro.errors.ConfigError` naming the
  dotted path (``workload.group[0] must be int, got '1'``).  An ``int``
  is accepted for ``float``; a ``bool`` never counts as an ``int``.

Range and cross-field checks stay in each class's ``__post_init__``; the
codec only gets the JSON shape right.  This module imports nothing from
``repro`` but the error types, so every layer may use it.
"""

from __future__ import annotations

import dataclasses
import functools
import re
import types
import typing
from typing import Any, TypeVar

from repro.errors import ConfigError

__all__ = ["Codec"]

_C = TypeVar("_C", bound="Codec")


class Codec:
    """Mixin giving a frozen dataclass a generic JSON ``to_dict``/``from_dict``."""

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict of the fields that differ from their defaults."""
        out: dict[str, Any] = {}
        for name, _, default in _schema(type(self)):
            value = getattr(self, name)
            if default is dataclasses.MISSING or value != default:
                out[name] = _encode(value)
        return out

    @classmethod
    def from_dict(cls: type[_C], data: Any, path: str = "") -> _C:
        """Rebuild an instance from :meth:`to_dict` output (or hand-written
        JSON); *path* locates *data* in the enclosing document."""
        return cls(**cls._decode_fields(data, path))

    @classmethod
    def _decode_fields(cls, data: Any, path: str) -> dict[str, Any]:
        """The decoded constructor keywords *data* spells out."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"{_label(cls, path)} must be an object, got {data!r}"
            )
        schema = _schema(cls)
        unknown = set(data) - {name for name, _, _ in schema}
        if unknown:
            raise ConfigError(
                f"unknown {_label(cls, path, 'keys')}: "
                f"{', '.join(sorted(unknown))}"
            )
        missing = [
            name for name, _, default in schema
            if default is dataclasses.MISSING and name not in data
        ]
        if missing:
            raise ConfigError(
                f"missing {_label(cls, path, 'keys')}: {', '.join(missing)}"
            )
        return {
            name: _decode(hint, data[name], f"{path}.{name}" if path else name)
            for name, hint, _ in schema
            if name in data
        }


def _label(cls: type, path: str, noun: str = "") -> str:
    """``"loss spec keys at cluster.loss"``: the capitalised words of the
    class name (acronyms dropped: ``GMCostModel`` is a "cost model")."""
    words = re.findall(r"[A-Z][a-z]+", cls.__name__) + ([noun] if noun else [])
    return " ".join(words).lower() + (f" at {path}" if path else "")


@functools.cache
def _schema(cls: type) -> tuple[tuple[str, Any, Any], ...]:
    """``(name, resolved annotation, default)`` per field of *cls*."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        default = f.default
        if f.default_factory is not dataclasses.MISSING:
            default = f.default_factory()
        out.append((f.name, hints[f.name], default))
    return tuple(out)


def _encode(value: Any) -> Any:
    if isinstance(value, Codec):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def _decode(hint: Any, value: Any, path: str) -> Any:
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if hint is Any:
        return value
    if origin is types.UnionType or origin is typing.Union:
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _decode(inner, value, path)
    if isinstance(hint, type) and issubclass(hint, Codec):
        return hint.from_dict(value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigError(
                f"{path} must be a list of {len(args)}, got {value!r}"
            )
        return tuple(
            _decode(t, v, f"{path}[{i}]")
            for i, (t, v) in enumerate(zip(args, value))
        )
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object, got {value!r}")
        key_type, value_type = args
        return {
            _decode(key_type, k, path): _decode(value_type, v, f"{path}.{k}")
            for k, v in value.items()
        }
    if isinstance(value, bool) and hint is not bool:
        ok = False
    elif hint is float:
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, hint)
    if not ok:
        raise ConfigError(f"{path} must be {hint.__name__}, got {value!r}")
    return value
