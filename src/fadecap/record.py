"""Frozen value records: the part of ``dataclasses`` fadecap uses, without importing it.

A subclass's fields are its own annotations, in order; a class attribute with
a field's name is that field's default, and unannotated ones stay plain attributes.
"""


class Record:
    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        for key, value in zip(fields, args):
            if key in kwargs:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            kwargs[key] = value
        for key in fields:
            if key in kwargs:
                object.__setattr__(self, key, kwargs.pop(key))
            elif key in self._defaults:
                object.__setattr__(self, key, self._defaults[key])
            else:
                raise TypeError(f"{name}() missing required argument {key!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected keyword argument {next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return asdict(self) == asdict(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(asdict(self).values()))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in asdict(self).items())})"


def fields(record) -> tuple:
    """The field names of a record class or instance, in order."""
    return record._fields


def asdict(record) -> dict:
    """The fields of ``record`` by name, in order (not recursive)."""
    return {name: getattr(record, name) for name in record._fields}


def replace(record, **changes):
    """A new ``record`` with ``changes`` applied, validated as on construction."""
    return type(record)(**{**asdict(record), **changes})
