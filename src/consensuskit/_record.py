"""One base class for the package's immutable value types; defining a record
generates no code, so importing the package stays cheap."""

from __future__ import annotations


class Record:
    """Immutable record over the annotated class attributes of its subclass.

    The fields are the subclass's own annotations, in order; a field with a
    class attribute defaults to it.  Construction takes the fields by position
    or keyword, raises ``TypeError`` on a missing, unknown or repeated field,
    then calls ``__post_init__``, which may normalize a field with
    ``object.__setattr__``.  Assigning or deleting an attribute raises
    ``AttributeError``.  ``==`` and ``hash`` compare the tuple of field values
    of two records of one type; ``eq=False`` in the class statement keeps
    object identity instead.
    """

    _fields: tuple = ()  # the field names, in declaration order
    _defaults: dict = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)} positional arguments")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in values:
                raise TypeError(f"{name}() got {'a repeated' if key in values else 'an unknown'} field {key!r}")
            values[key] = value
        if len(values) < len(fields):
            missing = [key for key in fields if key not in values and key not in self._defaults]
            if missing:
                raise TypeError(f"{name}() missing field {', '.join(map(repr, missing))}")
            values = {**self._defaults, **values}
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check and normalize the fields; runs after every construction and ``replace``."""

    def replace(self, **changes):
        """A new record with this one's fields and ``changes``."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{key}={getattr(self, key)!r}' for key in self._fields)})"

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
