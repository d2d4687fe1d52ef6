"""Record classes: the part of ``dataclasses.dataclass`` that semigeom uses.

``@record`` reads a class's annotated fields once and installs
  - an ``__init__`` taking the fields in order, positionally or by name,
    filling defaults and then calling ``__post_init__`` when the class has
    one;
  - a ``Name(field=value, ...)`` repr;
  - equality that compares the fields of two instances of the same class,
    so records of different classes with equal fields differ.
``@record(frozen=True)`` also hashes by the field values and refuses
assignment and deletion; any other record is unhashable.  A field default
written ``field(default_factory=f)`` is built afresh, by ``f()``, for each
instance.

dataclasses generates each class's methods as source and ``exec``s it,
and importing it imports ``inspect``: a fixed cost of every cold CLI call.
The methods here are closures over the field names, so a record class
costs one function definition per method.
"""


class field:
    """A field default built for each instance by calling default_factory."""

    def __init__(self, *, default_factory):
        self.default_factory = default_factory


def record(cls=None, *, frozen=False):
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    name = cls.__qualname__
    # the class's own annotations (since Python 3.10 never its bases'), which
    # Python 3.14 evaluates lazily on this first read
    names = tuple(cls.__annotations__)
    defaults = {}
    for f in names:
        if f in cls.__dict__:
            defaults[f] = cls.__dict__[f]
            if isinstance(defaults[f], field):
                delattr(cls, f)
    post_init = getattr(cls, "__post_init__", None)

    def values(self):
        return tuple([getattr(self, f) for f in names])

    def fill(args, kwargs):
        """All the field values, in order, from a call that omits some."""
        if len(args) > len(names):
            raise TypeError("%s() takes %d arguments but %d were given"
                            % (name, len(names), len(args)))
        given = dict(zip(names, args))
        for f, value in kwargs.items():
            if f not in names or f in given:
                raise TypeError("%s() got an unexpected or repeated argument %r" % (name, f))
            given[f] = value
        for f in names:
            if f in given:
                continue
            if f not in defaults:
                raise TypeError("%s() missing argument %r" % (name, f))
            default = defaults[f]
            given[f] = default.default_factory() if isinstance(default, field) else default
        return [given[f] for f in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = fill(args, kwargs)
        # the instance dict, not setattr, which a frozen record refuses
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        return "%s(%s)" % (name, ", ".join("%s=%r" % (f, getattr(self, f)) for f in names))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    cls.__init__ = __init__
    cls.__repr__ = __repr__
    cls.__eq__ = __eq__
    if frozen:
        def __hash__(self):
            return hash(values(self))

        def refuse(self, f, *value):
            raise AttributeError("cannot change field %r of frozen %s" % (f, name))

        cls.__hash__ = __hash__
        cls.__setattr__ = refuse
        cls.__delattr__ = refuse
    else:
        cls.__hash__ = None
    return cls
