"""Frozen records: the part of ``dataclass(frozen=True)`` that pelab uses.

Every CLI command is a fresh interpreter.  ``dataclasses`` pulls in
``inspect`` at import and ``exec``s the generated methods of every class
it decorates, which together cost more than the exact-only commands'
arithmetic.  :func:`record` builds the same methods from closures.
"""

from __future__ import annotations

from operator import attrgetter


def record(cls=None, *, computed: tuple = ()):
    """Make cls a frozen record over its annotated fields, in order.

    The record gets an ``__init__`` that takes the fields positionally or
    by keyword (a class attribute named like a field is its default) and
    then calls ``self.__post_init__()`` if the class defines one; the call
    is looked up on the instance, so a method patched in later is the one
    that runs.  It also gets ``__eq__`` and ``__hash__`` over the fields,
    the dataclass ``__repr__``, and ``__setattr__``/``__delattr__`` that
    raise ``AttributeError``.  Fields named in computed stay out of
    ``__init__``; ``__post_init__`` sets them with ``object.__setattr__``.
    """
    if cls is None:
        return lambda cls: record(cls, computed=computed)
    owner = cls.__qualname__
    fields = tuple(cls.__annotations__)
    params = tuple(name for name in fields if name not in computed)
    defaults = {name: cls.__dict__[name] for name in params if name in cls.__dict__}
    has_post_init = hasattr(cls, "__post_init__")
    get = attrgetter(*fields)
    values = get if len(fields) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if len(args) > len(params):
            raise TypeError(f"{owner}.__init__() takes {len(params) + 1} positional arguments but {len(args) + 1} were given")
        bound = dict(zip(params, args))
        for name, value in kwargs.items():
            if name not in params:
                raise TypeError(f"{owner}.__init__() got an unexpected keyword argument {name!r}")
            if name in bound:
                raise TypeError(f"{owner}.__init__() got multiple values for argument {name!r}")
            bound[name] = value
        missing = [name for name in params if name not in bound and name not in defaults]
        if missing:
            raise TypeError(f"{owner}.__init__() missing required arguments: {', '.join(map(repr, missing))}")
        state = self.__dict__
        for name in params:
            state[name] = bound[name] if name in bound else defaults[name]
        if has_post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{owner}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
