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

Records are built by keyword only, with TypeError for a positional
argument, a missing field or an unknown one. An instance keeps the dict the
call made as its __dict__, so building one costs one keys check and one
store; a field left to its default is read from the class attribute that
declares it. Every record is immutable: assigning or deleting a field
raises AttributeError. A record equals only a record of its own class with
equal fields, hashes its field values (one holding a list is unhashable)
and reprs as Name(field=value, ...).
"""

from __future__ import annotations

from typing import Any


class Record:
    _fields: tuple[str, ...] = ()
    _keys: frozenset[str] = frozenset()
    _field_defaults: dict[str, Any] = {}
    _required: frozenset[str] = frozenset()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)  # its own: since 3.10 none inherited
        cls._keys = frozenset(cls._fields)
        cls._field_defaults = {name: cls.__dict__[name]
                               for name in cls._fields if name in cls.__dict__}
        cls._required = cls._keys.difference(cls._field_defaults)

    def __init__(self, **values: Any):
        if values.keys() != self._keys and values.keys() != self._required:
            self._check_fields(values)
        _set_dict(self, values)

    def _check_fields(self, values: dict[str, Any]) -> None:
        """TypeError for an unknown field, or a missing one without a default."""
        name = type(self).__name__
        unknown = values.keys() - self._keys
        if unknown:
            raise TypeError(f"{name}() has no field {min(unknown)!r}")
        missing = self._required - values.keys()
        if missing:
            raise TypeError(f"{name}() is missing field {min(missing, key=self._fields.index)!r}")

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
