"""``record``: frozen value classes, built without generated code.

``@record`` gives a class what ``@dataclass(frozen=True)`` gives it: fields
from its annotations, in MRO order, with class-level values as defaults; an
``__init__`` that takes them by position or keyword and then calls
``__post_init__``; field-by-field ``__eq__`` and ``__hash__`` within one
class; a ``Name(field=value, ...)`` repr; ``__match_args__``; and assignment
and deletion refused.  A method the class defines itself is kept.  Nothing is
compiled at import, and neither the dataclass module nor the ``inspect`` it
loads is imported, so a CLI process starts sooner.  Instances keep their
``__dict__``, which holds the fields and any ``cached_property``.

The generic ``__init__`` binds its arguments in Python: a call costs about
0.25 µs more than a generated one by position, and 0.5 µs with keywords.
A record built several times per operation (``ClosedSubset``,
``ElementPieces``, ``GraphPoint``, ``Motion``, ``Stage``, the oracle's
``_ScaledGraph``) defines its own ``__init__``, taking its fields in order
and storing each with ``setfield``; that is faster than the generated one.
Such an ``__init__`` calls ``__post_init__`` itself, if the class has one.
"""

from operator import attrgetter

# fields go in as object.__setattr__ stores them: a write through self.__dict__
# would make every later read of a field slower
setfield = object.__setattr__


def record(cls):
    names = tuple(dict.fromkeys(name for c in reversed(cls.__mro__)
                                for name in c.__dict__.get("__annotations__", {})))
    defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
    n, title, key = len(names), cls.__name__, attrgetter(*names)
    post = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        for name, value in zip(names, args):
            setfield(self, name, value)
        if kwargs or len(args) != n:
            if len(args) > n:
                raise TypeError(f"{title}() takes {n} arguments but {len(args)} were given")
            for name in names[len(args):]:
                if name in kwargs:
                    setfield(self, name, kwargs.pop(name))
                elif name in defaults:
                    setfield(self, name, defaults[name])
                else:
                    raise TypeError(f"{title}() missing argument {name!r}")
            if kwargs:
                name = next(iter(kwargs))
                kind = "a second value for" if name in names else "an unknown"
                raise TypeError(f"{title}() got {kind} argument {name!r}")
        if post is not None:
            self.__post_init__()

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{k}={getattr(self, k)!r}' for k in names)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a {title} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a {title} is frozen")

    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": lambda self: hash(key(self)),
               "__repr__": __repr__, "__setattr__": __setattr__, "__delattr__": __delattr__,
               "__match_args__": names}
    for attr, value in methods.items():
        if cls.__dict__.get(attr) is None:  # defining __eq__ alone leaves __hash__ None
            setattr(cls, attr, value)
    return cls
