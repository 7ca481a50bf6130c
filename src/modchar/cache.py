"""Optional plain-file cache of what the slow commands print.

An entry holds one command's exact stdout and exit code.  Its key is a
sha256 over the command name, its canonical parameters, --format and a
sha256 of the package's .py sources, so a hit prints the bytes a fresh
run prints and an edited package never serves what its old code wrote.
The entry's first line seals it: a sha256 over the key, the exit code
and the body.  An entry that is missing, unreadable or fails its seal
is a miss.  Writes go through a temp file and an atomic rename; a root
that cannot be created or written is skipped.
"""

from __future__ import annotations

import functools
import hashlib
import os
import tempfile
from pathlib import Path


@functools.cache
def source_digest() -> str:
    """sha256 over the names and bytes of the package's .py files, read
    once per process."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _seal(key: str, code: bytes, body: bytes) -> bytes:
    return hashlib.sha256(key.encode() + b"\n" + code + b"\n" + body).hexdigest().encode()


class ResultCache:
    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    @staticmethod
    def key(command: str, params: dict, fmt: str) -> str:
        canon = repr((command, sorted(params.items()), fmt, source_digest()))
        return hashlib.sha256(canon.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.out"

    def get(self, key: str) -> tuple[str, int] | None:
        """The (stdout, exit code) stored under key, or None for a miss."""
        try:
            seal, _, rest = self._path(key).read_bytes().partition(b"\n")
        except OSError:
            return None
        code, _, body = rest.partition(b"\n")
        if seal != _seal(key, code, body):
            return None
        return body.decode(), int(code)  # sealed, so as put wrote them

    def put(self, key: str, text: str, code: int) -> None:
        """Store (text, code) under key; raises no OSError."""
        body, code_line = text.encode(), str(code).encode()
        tmp = None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(b"\n".join((_seal(key, code_line, body), code_line, body)))
            os.replace(tmp, self._path(key))
        except OSError:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
