"""Optional plain-file JSON result cache for slow commands.

Keys combine the command name, its canonical parameters and a sha256 of
the package's .py sources, so cached and fresh runs are byte-identical
by construction and an edited package never serves a payload its old
code wrote.  Writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import functools
import hashlib
import json
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


class ResultCache:
    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    @staticmethod
    def key(command: str, params: dict) -> str:
        canon = json.dumps(
            {"command": command, "params": params, "source": source_digest()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canon.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str):
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):  # JSONDecodeError, UnicodeDecodeError
            return None

    def put(self, key: str, payload) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, self._path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
