"""Record: the one base class of qcff's result types.

A result type lists its fields as class annotations, in order, each with an
optional default, as in

    class Relation(Record):
        left: str
        right: str
        epsilon_exponent: int = -1

and Record collects their names into the class tuple _fields at class
creation. That tuple is the report schema: report._json writes one key per
name, in that order.

Records are built by keyword or by position, with TypeError for a missing
or unknown field. An instance keeps its keyword arguments, the dict the call
made, as its __dict__, so building one by keyword costs one keys check and
one store; a field left to its default is read from the class attribute
that declares it. A record equals only a record of its own class with
equal fields, hashes its field values, reprs as Name(field=value, ...) and
raises AttributeError when a field is assigned. A class made with
frozen=False (``class SuiteResult(Record, frozen=False)``) is mutable and
unhashable.
"""

from __future__ import annotations

from typing import Any


class Record:
    _fields: tuple[str, ...] = ()
    _keys: frozenset[str] = frozenset()
    _field_defaults: dict[str, Any] = {}
    _required: frozenset[str] = frozenset()

    def __init_subclass__(cls, frozen: bool = True, **kwargs: Any):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)  # its own: since 3.10 none inherited
        cls._keys = frozenset(cls._fields)
        cls._field_defaults = {name: cls.__dict__[name]
                               for name in cls._fields if name in cls.__dict__}
        cls._required = cls._keys.difference(cls._field_defaults)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args: Any, **values: Any):
        if args or values.keys() != self._keys and values.keys() != self._required:
            values = self._complete(args, values)
        _set_dict(self, values)

    def _complete(self, args: tuple, values: dict[str, Any]) -> dict[str, Any]:
        """values, the call's own dict, with args added in field order;
        TypeError for too many args, a field given twice, an unknown field
        or a missing one without a default."""
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, {len(args)} given")
        for field, value in zip(fields, args):
            if field in values:
                raise TypeError(f"{name}() got field {field!r} twice")
            values[field] = value
        unknown = values.keys() - self._keys
        if unknown:
            raise TypeError(f"{name}() has no field {min(unknown)!r}")
        missing = self._required - values.keys()
        if missing:
            raise TypeError(f"{name}() is missing field {min(missing, key=fields.index)!r}")
        return values

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


# the setter of the instance __dict__, which Record.__setattr__ would refuse
_set_dict = Record.__dict__["__dict__"].__set__
