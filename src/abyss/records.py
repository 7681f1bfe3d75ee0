"""Record classes: `__init__`, `__eq__`, `__hash__` and `__repr__` read off a
class's annotations.

The methods are closures over the field names, so declaring a record
compiles no generated source; this keeps a CLI process from paying for
code generation of every record class it imports.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def record(cls: type):
    """Class decorator: the class's own annotated names, in order, become its
    fields; a class attribute of the same name is that field's default, and
    fields with defaults come last.

    Records compare equal only to records of the same class with equal
    fields.  A record refuses assignment with `AttributeError` and hashes by
    its fields."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    n_fields = len(names)
    required = n_fields - len(defaults)
    tail = tuple(defaults[n] for n in names[required:])
    if n_fields == 1:
        get = attrgetter(names[0])

        def fields_of(self):
            return (get(self),)
    else:
        fields_of = attrgetter(*names)

    def bind(args, kwargs):
        """The field values in order, from __init__'s arguments."""
        if len(args) > n_fields:
            raise TypeError("%s() takes %d positional arguments but %d were given"
                            % (cls.__name__, n_fields, len(args)))
        values = dict(zip(names, args))
        for key, value in kwargs.items():
            if key not in names:
                raise TypeError("%s() got an unexpected keyword argument %r"
                                % (cls.__name__, key))
            if key in values:
                raise TypeError("%s() got multiple values for argument %r"
                                % (cls.__name__, key))
            values[key] = value
        missing = [n for n in names[:required] if n not in values]
        if missing:
            raise TypeError("%s() missing required arguments: %s"
                            % (cls.__name__, ", ".join(map(repr, missing))))
        return [values[n] if n in values else defaults[n] for n in names]

    def __init__(self, *args, **kwargs):
        if kwargs or not required <= len(args) <= n_fields:
            args = bind(args, kwargs)
        elif len(args) < n_fields:
            args += tail[len(args) - required:]
        for name, value in zip(names, args):
            _set(self, name, value)  # past the refusing __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields_of(self) == fields_of(other)
        return NotImplemented

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (n, v) for n, v in zip(names, fields_of(self))))

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise AttributeError("cannot assign to field %r" % name)
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise AttributeError("cannot delete field %r" % name)
        super(cls, self).__delattr__(name)

    def __hash__(self):
        return hash(fields_of(self))

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__setattr__, cls.__delattr__, cls.__hash__ = __setattr__, __delattr__, __hash__
    return cls
