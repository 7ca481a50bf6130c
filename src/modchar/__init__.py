"""modchar: exact modular characteristic classes for representations
over finite fields, with two independent computation paths that
cross-validate each other.

The package holds only the version, is_prime and the value-class bases
Record and Frozen, so `import modchar` loads no computing layer; import
the modules by name."""

import operator

__version__ = "0.1.0"


# The one primality test: the CLI's input checks call it without loading
# ff, and ff imports it from here.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit integers.  Those
    bases pass some larger composites, so n >= 2^64 raises ValueError."""
    if n < 2:
        return False
    if n >> 64:
        raise ValueError(f"p = {n} is outside the bound p < 2^64 of the primality test")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The bases of the package's value classes.  They live here, beside
# is_prime, and import only `operator`, which the interpreter loads at
# start, so no command loads a module for them.


class Record:
    """A value class with the fields named by the class tuple `_names`
    (two or more, each a slot).  The constructor takes the fields
    positionally and raises TypeError on the wrong count; `_of` builds a
    record without a subclass's checks.  Equality means the same class
    and equal fields; repr is `Name(field=value, ...)`; copy and pickle
    go through the constructor.  A record is mutable, so it has no hash.

    Each subclass that names its fields gets, once, an attrgetter
    reading the field tuple and the slot setters the constructor calls,
    so no field is looked up by name on a hot path."""

    __slots__ = ()
    _names = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_names" in cls.__dict__:  # two or more names: attrgetter then returns a tuple
            names = cls._names
            cls._fields = operator.attrgetter(*names)
            cls._setters = tuple(getattr(cls, name).__set__ for name in names)

    def __init__(self, *fields):
        setters = self._setters
        if len(fields) != len(setters):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._names)}")
        for set_field, value in zip(setters, fields):
            set_field(self, value)

    @classmethod
    def _of(cls, *fields):
        """A record of the given fields, built without the constructor's
        checks, for callers whose fields are valid by construction."""
        record = object.__new__(cls)
        for set_field, value in zip(cls._setters, fields):
            set_field(record, value)
        return record

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._names, self._fields(self)))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return (type(self), self._fields(self))


class Frozen(Record):
    """A Record whose fields refuse assignment and deletion, hashed by
    its field tuple."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __hash__(self):
        return hash(self._fields(self))
