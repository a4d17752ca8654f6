"""Every flagcomb module's exception classes, and its one int check."""


def check_int(name: str, x, lo: int | None = None, hi: int | None = None,
              error: type[Exception] = ValueError):
    """x, if it is an int in [lo, hi] (x >= lo without hi, any int without
    lo), else error naming *name*.  An int is isinstance(x, int), so bools
    and int subclasses count; the JSON file formats keep type(v) is int
    (codefile._integer, config.load_config): JSON true and 1.0 are no ints."""
    if not isinstance(x, int):
        raise error(f"{name} must be an int, got {x!r}")
    if hi is not None and not lo <= x <= hi:
        raise error(f"{name}={x} not in [{lo}, {hi}]")
    if lo is not None and x < lo:
        raise error(f"need {name} >= {lo}, got {x}")
    return x


class FlagcombError(Exception):
    """Base class for all library errors."""


# --- linear algebra layer ---------------------------------------------------

class ColumnCountMismatch(FlagcombError):
    """A row matrix does not have the expected number of columns."""


class AmbientMismatch(FlagcombError):
    """Two subspaces do not live in the same ambient space F_q^n."""


# --- flag layer -------------------------------------------------------------

class RankDeficient(FlagcombError):
    """The leading rows of a flag generator matrix do not reach full rank.

    Carries the prefix length at which the deficiency was detected.
    """

    def __init__(self, prefix: int, message: str | None = None):
        self.prefix = prefix
        super().__init__(message or f"first {prefix} rows have rank < {prefix}")


class TypeMismatch(FlagcombError):
    """Flags (or flags and codes) disagree on q, n or type vector."""


class NotFullFlag(FlagcombError):
    """An operation defined only for full flags received a general type."""


class IndexOutOfRange(FlagcombError):
    """A dimension/index argument lies outside its admissible range."""


# --- path layer -------------------------------------------------------------

class InvalidPath(FlagcombError):
    """A delta vector violates the distance-path invariants.

    Carries the first violating index when known.
    """

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


class EnumerationLimitExceeded(FlagcombError):
    """An exhaustive enumeration was requested beyond the configured cap."""


class RealizationNotFound(FlagcombError):
    """No flag pair realizing a path was found (should never happen)."""


# --- Ferrers layer ----------------------------------------------------------

class CellOutsideFrame(FlagcombError):
    """A (row, position) pair does not belong to the Ferrers frame."""


class NotAPartition(FlagcombError):
    """A parts sequence is not non-increasing and positive."""


class NotEmbedded(FlagcombError):
    """A partition does not fit inside the Ferrers frame FF(n)."""


class FrameMismatch(FlagcombError):
    """Two embedded partitions live in different frames."""


# --- Durfee / analysis layer ------------------------------------------------

class OffsetOutOfRange(FlagcombError):
    """A Durfee rectangle offset k lies outside [0, n-2]."""


class RectangleOutsideFrame(FlagcombError):
    """An a x b corner rectangle does not fit inside FF(n)."""


class SingletonCode(FlagcombError):
    """An operation needs at least two flags in the code."""


class ConsistencyError(FlagcombError):
    """A theorem-derived value disagrees with a directly computed one.

    This is a hard failure: it would falsify either the theory or the
    implementation, so it is never downgraded to a warning.
    """


# --- CLI / IO layer ---------------------------------------------------------

class ParseError(FlagcombError):
    """A code file could not be parsed."""


class InvalidFlag(ParseError):
    """A parsed flag block failed validation.

    Carries the 1-based flag index within the file.
    """

    def __init__(self, flag_index: int, message: str):
        self.flag_index = flag_index
        super().__init__(f"flag {flag_index}: {message}")


class InvalidSpec(FlagcombError):
    """A render specification is malformed."""
