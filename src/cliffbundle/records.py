"""Plain value classes from their annotated fields.

``record`` gives a class the ``__init__``, ``__repr__``, ``__eq__`` and
``__hash__`` its field list implies, as ``dataclasses.dataclass`` does,
but as closures over the field names: no code is generated per class,
and ``dataclasses`` (with the ``inspect`` and ``ast`` machinery it
imports) stays out of the process.  A method the class body defines
itself is kept.
"""

from operator import attrgetter


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(frozen: bool = False, compare: tuple = ()):
    """Class decorator for a record of the fields the class annotates,
    in order; a class attribute of the same name is the field's default.

    ``__init__`` takes the fields positionally or by keyword, then calls
    ``__post_init__`` if the class has one.  ``__eq__`` compares the
    ``compare`` fields (all fields by default) of two instances of one
    class, and ``__repr__`` shows every field.  A frozen record refuses
    assignment and deletion and hashes the compared fields; any other
    record is unhashable.
    """

    def deco(cls):
        names = tuple(cls.__dict__.get("__annotations__", {}))
        defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        count = len(names)
        post = getattr(cls, "__post_init__", None)
        key = attrgetter(*(compare or names))
        setter = object.__setattr__

        def bind(args, kwargs):
            title = cls.__qualname__
            if len(args) > count:
                raise TypeError(f"{title}() takes {count} arguments, got {len(args)}")
            values = list(args)
            for name in names[len(args):]:
                if name in kwargs:
                    values.append(kwargs.pop(name))
                elif name in defaults:
                    values.append(defaults[name])
                else:
                    raise TypeError(f"{title}() missing argument {name!r}")
            if kwargs:
                raise TypeError(f"{title}() got an unexpected or repeated "
                                f"argument {next(iter(kwargs))!r}")
            return values

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != count:
                args = bind(args, kwargs)
            # object.__setattr__ keeps the instance's compact attribute
            # storage, which reading self.__dict__ would turn into a dict
            for name, value in zip(names, args):
                setter(self, name, value)
            if post is not None:
                post(self)

        def __repr__(self):
            shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
            return f"{self.__class__.__qualname__}({shown})"

        def __eq__(self, other):
            if other is self:
                return True
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__,
                   "__hash__": __hash__ if frozen else None}
        if frozen:
            methods.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
        for name, method in methods.items():
            if name not in cls.__dict__:
                setattr(cls, name, method)
        return cls

    return deco
