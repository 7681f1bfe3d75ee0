"""Shared exception types; the CLI maps these onto exit codes."""

from __future__ import annotations


class DomainError(ValueError):
    """Argument outside the unit interval or otherwise out of a function's domain."""


class ConstructionError(ValueError):
    """A constructor precondition failed (duplicates, empty set, rational member, ...)."""


class NotPointwiseEvaluable(ValueError):
    """A pointwise-limit function was asked for a value without the data that
    makes evaluation possible."""


class RepresentationInsufficient(ValueError):
    """An algorithm that consumes a representation was invoked without the
    needed parts (sequence, convergence modulus)."""


class ClassRefusal(Exception):
    """A query or algorithm was refused because the function's declared class
    admits no sound quantifier collapse for it.

    Refusing is deliberate: answering anyway would silently sample rationals
    and can be wrong on the adversarial instances this package ships.
    """

    def __init__(self, operation, needed, fn, statement=None):
        self.operation = operation
        self.needed = needed
        self.fn_kind = getattr(fn, "kind", str(fn))
        self.tags = sorted(getattr(fn, "tags", ()))
        self.statement = statement
        msg = "%s refused: %s is tagged {%s} but needs %s" % (
            operation, self.fn_kind, ", ".join(self.tags), needed)
        if statement:
            msg += " [%s]" % statement
        super().__init__(msg)


class FuelExhausted(Exception):
    """The fuel budget ran out before the answer was certified.

    `best` carries the deepest partial result (interval, transcript) reached.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class InvalidModulus(ValueError):
    """A caller-supplied modulus failed a spot-check of its defining bound."""


class OracleInconsistency(Exception):
    """A hypothetical functional contradicted itself (e.g. a supremum that
    shrinks on a superset)."""


class UnsupportedVariant(TypeError):
    """Operation applied to a function family it is not defined for."""
