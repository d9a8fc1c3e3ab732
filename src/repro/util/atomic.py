"""Atomic file writes: a reader sees the old file or the new one, whole.

Every artifact this repo writes that another process may read while it
is being written (cache entries, registry records, fabric job files,
audit trails, traces, bench results) goes through :func:`atomic_write`:
the content lands in a temporary sibling, which is renamed over the
target only once it is complete. A failed or interrupted write removes
the sibling and leaves any existing target untouched.

The sibling is created with mode ``0o666`` filtered by the process
umask — the mode plain ``open(path, "w")`` gives — rather than the
``0o600`` of :func:`tempfile.mkstemp`, so an atomically written file is
as readable as any other file its writer creates.
"""

from __future__ import annotations

import json
import os
import secrets
from contextlib import contextmanager
from typing import Any, Iterator, TextIO, Union

__all__ = ["atomic_write", "write_json_atomic"]

PathLike = Union[str, "os.PathLike[str]"]


@contextmanager
def atomic_write(path: PathLike) -> Iterator[TextIO]:
    """Open a text stream whose content replaces ``path`` on success.

    The parent directory must exist. On an exception inside the block
    the temporary sibling is unlinked and the exception propagates.
    """
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f"{name}.{secrets.token_hex(6)}.tmp")
    # O_EXCL: never write through a name someone else already holds
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json_atomic(path: PathLike, payload: Any) -> None:
    """Write ``payload`` as indented, key-sorted JSON plus a newline.

    Creates missing parent directories.
    """
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
