"""`Record`, the base of the package's frozen value classes.

It generates no code at import and imports nothing, unlike the standard
library's class generator, whose import loads `inspect`, `ast` and `dis`:

* a class's annotated names are its fields, in order, and its
  constructor's parameters; a field's class attribute, when reading it
  does not raise `AttributeError`, is its default, and `__post_init__`
  runs after the fields are set;
* ==, hash and repr read every field but those named by the class
  keyword `hidden`;
* assigning or deleting an attribute raises `AttributeError`, so private
  constructors build records with `object.__new__` and fill the instance
  dict directly.
"""


class Record:
    def __init_subclass__(cls, hidden: tuple[str, ...] = ()) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._compared = tuple(name for name in cls._fields if name not in hidden)
        missing = object()
        cls._defaults = {name: default for name in cls._fields
                         if (default := getattr(cls, name, missing)) is not missing}

    def __init__(self, *args, **kwargs) -> None:
        fields, defaults, name = self._fields, self._defaults, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for field in fields[len(args):]:
            if field in kwargs:
                values[field] = kwargs.pop(field)
            elif field in defaults:
                values[field] = defaults[field]
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected keyword argument {next(iter(kwargs))!r}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._compared])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
