"""The base class of the package's result records."""


class _Record:
    """A result record whose fields are declared once, in ``__slots__``.

    A subclass lists its fields in ``__slots__``, in the order of the
    constructor's parameters, and gives a default to a trailing field as a
    class keyword (``class Witness(_Record, verified=False)``).  Each
    subclass gets its ``__init__`` generated once, as namedtuple's are, so
    building a record costs what a hand-written constructor costs.  The
    stdlib dataclasses would add an import of ``inspect`` and a code
    generation pass per class to every start of the command line, about
    15% of a short CLI run.  Equality and hashing stay by identity, and
    instances have no ``__dict__``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **defaults):
        fields = cls.__slots__
        params = ", ".join(f"{f}=defaults[{f!r}]" if f in defaults else f for f in fields)
        namespace = {"defaults": defaults}
        exec(f"def __init__(self, {params}):" + "".join(f"\n self.{f} = {f}" for f in fields), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"
