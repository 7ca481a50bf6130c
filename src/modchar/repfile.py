"""The JSON representation file format: one parser, run before any
compute layer loads.

A file is a JSON object with the integers p, r (1 when absent) and dim,
an optional modulus (integer coefficients, constant first), the list
generators of dim x dim matrices, and an optional nonzero basepoint of
length dim.  An entry is an integer, read mod p, or a list of r integer
coefficients on the power basis 1, t, ..., t^(r-1), read as the field
int whose base-p digits they are (modchar.ff's element encoding).
Booleans are not integers anywhere in a file.

parse checks that shape, the bounds below and every entry, and returns
the decoded file.  It imports only the package root, so rep-analyze
runs it before ff or reps loads.  Whether p, r and the modulus make a
field is FieldCtx's check, and whether the generators make a
representation is the Rep constructor's: reps.rep_from_file runs both on
parse's result.
"""

from . import Record

# Largest dim a file may declare, checked before any matrix is built:
# without it a 60-byte file with a huge dim and no generators builds a
# dim x dim identity.  On packed GF(2) rows, rep-analyze of a
# regular_rep(2, 8) file (dim 256) takes 0.27-0.28 s wall in three runs,
# and of that file with its generators listed 4 times (32) 0.82-0.86 s.
# The same work in-process after json.loads (parse, the checking
# constructor, socle_filtration and classify) takes 0.53-0.54 s on
# regular_rep(2, 9) (dim 512) and 2.6-2.9 s on regular_rep(2, 10) (dim
# 1024), a third of it parsing (2-core host, Python 3.11.7).  The bound
# rises only with a measured end-to-end rep-analyze of a
# regular_rep(2, 10) file in about 5 s.
MAX_REP_DIM = 256

# Largest generator count.  Validation multiplies every pair of
# generators both ways, so its time grows with the square of the count:
# regular_rep(3, 5)'s 5 generators validate in 0.13 s and the same
# generators listed 4 times (20) in 1.6-2.1 s (2-core host, Python
# 3.11.7).  32 admits the regular_rep(2, 8) file with its generators
# listed 4 times.
MAX_REP_GENERATORS = 32

# Largest file, in bytes, that rep-analyze decodes as JSON; it reads the
# size from the file system first.  It is a file at both bounds above
# with BYTES_PER_ENTRY bytes an entry.  A compact file (json.dump's
# default separators) takes at most 26 bytes an entry with its
# separator: 22 for a residue below 2^64, 26 for a GF(3^8) coefficient
# list.  64 MiB in all.
BYTES_PER_ENTRY = 32
MAX_REP_FILE_BYTES = BYTES_PER_ENTRY * MAX_REP_GENERATORS * MAX_REP_DIM**2

_INT = frozenset((int,))


class RepFile(Record):
    """A parsed file: p, r and dim as written, the modulus as a tuple
    (None when absent), the generators as tuples of dim row tuples of
    field ints, and the basepoint as a tuple of field ints or None."""

    __slots__ = _names = ("p", "r", "modulus", "dim", "generators", "basepoint")


def is_int(x) -> bool:
    """True for a genuine integer: bool is an int subclass but not one here."""
    return isinstance(x, int) and not isinstance(x, bool)


def decode_entry(e, p: int, r: int) -> int:
    """The field int of one file entry of GF(p^r): an integer is e mod p,
    and a list of r integer coefficients, constant first, the int with
    those base-p digits."""
    if is_int(e):
        return e % p
    if not isinstance(e, (list, tuple)) or not all(map(is_int, e)):
        raise ValueError(f"element {e!r} is not a list of integer coefficients")
    if len(e) != r:
        raise ValueError(f"element needs {r} coefficients, got {len(e)}")
    out = 0
    for c in reversed(e):
        out = out * p + c % p
    return out


def decode_row(row, p: int, r: int) -> tuple:
    """A list of file entries as a tuple of field ints."""
    if not isinstance(row, (list, tuple)):
        raise ValueError(f"row {row!r} is not a list")
    if _INT.issuperset(map(type, row)):  # plain ints, the common case: C-level checks
        if row and (min(row) < 0 or max(row) >= p):
            return tuple([e % p for e in row])
        return tuple(row)
    return tuple([decode_entry(e, p, r) for e in row])


def _matrix(gi: int, mat, p: int, r: int, dim: int) -> tuple:
    """The rows of generator gi, a dim x dim matrix of file entries."""
    try:
        rows = tuple([decode_row(row, p, r) for row in mat])
    except (TypeError, ValueError) as exc:  # TypeError: mat is not iterable
        raise ValueError(f"generator {gi}: {exc}") from exc
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise ValueError(f"generator {gi}: ragged rows")
    if len(rows) != dim or widths != {dim}:
        raise ValueError(f"generator {gi} is not {dim}x{dim}")
    return rows


def parse(obj) -> RepFile:
    """The decoded file of a JSON value, or ValueError naming the first
    fault: a value other than an object, a missing field, p, r or dim
    not a JSON integer, dim outside 1..MAX_REP_DIM, a modulus other than
    a list of integers, generators other than a list of at most
    MAX_REP_GENERATORS matrices, a bad matrix, row or entry (prefixed
    with its generator's index), or a basepoint that is ill-formed, of
    the wrong length or zero.  p below 2 is refused too (entries are
    read mod p); every other field fault is FieldCtx's."""
    if not isinstance(obj, dict):
        raise ValueError("representation file must be a JSON object")
    try:
        p, r, dim = obj["p"], obj.get("r", 1), obj["dim"]
        matrices = obj["generators"]
    except KeyError as exc:
        raise ValueError(f"representation file missing or bad field: {exc}") from exc
    for key, value in (("p", p), ("r", r), ("dim", dim)):
        if not is_int(value):
            raise ValueError(f"representation file bad field: {key} = {value!r} is not an integer")
    if dim < 1:
        raise ValueError(f"dim = {dim} must be >= 1")
    if dim > MAX_REP_DIM:
        raise ValueError(
            f"dim = {dim} exceeds the representation bound dim <= MAX_REP_DIM = {MAX_REP_DIM}"
        )
    modulus = obj.get("modulus")
    if modulus is not None:
        if not (isinstance(modulus, list) and all(map(is_int, modulus))):
            raise ValueError("modulus must be a list of integer coefficients")
        modulus = tuple(modulus)
    if not isinstance(matrices, list):
        raise ValueError("generators must be a list of matrices")
    if len(matrices) > MAX_REP_GENERATORS:
        raise ValueError(
            f"{len(matrices)} generators exceed the representation bound "
            f"generators <= MAX_REP_GENERATORS = {MAX_REP_GENERATORS}"
        )
    if p < 2:
        raise ValueError(f"p = {p} is not prime")
    generators = tuple(_matrix(gi, mat, p, r, dim) for gi, mat in enumerate(matrices))
    basepoint = None
    if "basepoint" in obj:
        try:
            basepoint = decode_row(obj["basepoint"], p, r)
        except ValueError as exc:
            raise ValueError(f"basepoint: {exc}") from exc
        if len(basepoint) != dim:
            raise ValueError("basepoint length != dim")
        if not any(basepoint):
            raise ValueError("basepoint is zero")
    return RepFile._of(p, r, modulus, dim, generators, basepoint)
