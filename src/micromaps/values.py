"""Type-aware equality for the package's NamedTuple value types.

Tuple equality ignores the type, so ``Rect(0, 0, 1, 1)`` would equal
``Line(0, 0, 1, 1)``. Hashing stays tuple hashing: equal values hash equal.
"""


def _same_value(a: tuple, b: object) -> bool:
    return type(a) is type(b) and tuple.__eq__(a, b)  # type: ignore[arg-type]


def value_type(cls):
    """Class decorator: ``==`` and ``!=`` that compare the type first."""
    cls.__eq__ = _same_value
    cls.__ne__ = lambda a, b: not _same_value(a, b)
    return cls
