"""ndbm-compatible interface over the new package.

Mirrors the 4.3BSD ndbm(3) calls -- ``dbm_open``, ``dbm_fetch``,
``dbm_store`` (with INSERT/REPLACE), ``dbm_delete``, ``dbm_firstkey``,
``dbm_nextkey``, ``dbm_close`` -- but is backed by a
:class:`~repro.core.table.HashTable`, so it gains the enhanced behaviour
the paper lists: inserts never fail for collision or size reasons, and
pages are cached in memory.

ndbm returned ``datum`` structs; here a fetch returns ``bytes`` or ``None``
(the null datum).
"""

from __future__ import annotations

import os

from repro.core.constants import DEFAULT_CACHESIZE
from repro.core.errors import InvalidParameterError
from repro.core.table import HashTable

#: dbm_store flags (values match the historical header).
DBM_INSERT = 0
DBM_REPLACE = 1


class NdbmCompat:
    """One open ndbm-style database (multiple may be open concurrently)."""

    def __init__(self, table: HashTable) -> None:
        self._table = table

    # -- the ndbm(3) calls ---------------------------------------------------

    def fetch(self, key: bytes) -> bytes | None:
        """dbm_fetch: the datum stored under ``key``, or None."""
        return self._table.get(key)

    def store(self, key: bytes, content: bytes, flags: int = DBM_REPLACE) -> int:
        """dbm_store: 0 on success, 1 if DBM_INSERT found an existing key."""
        if flags not in (DBM_INSERT, DBM_REPLACE):
            raise ValueError(f"bad dbm_store flags {flags}")
        stored = self._table.put(key, content, replace=(flags == DBM_REPLACE))
        return 0 if stored else 1

    def delete(self, key: bytes) -> int:
        """dbm_delete: 0 on success, -1 if the key was absent."""
        return 0 if self._table.delete(key) else -1

    def firstkey(self) -> bytes | None:
        return self._table.first_key()

    def nextkey(self) -> bytes | None:
        return self._table.next_key()

    def close(self) -> None:
        self._table.close()

    # -- conveniences beyond the C interface ------------------------------------

    @property
    def table(self) -> HashTable:
        """Escape hatch to the native interface."""
        return self._table

    def __enter__(self) -> "NdbmCompat":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def dbm_open(
    file: str | os.PathLike,
    flags: str = "c",
    *,
    cachesize: int = DEFAULT_CACHESIZE,
    bsize: int | None = None,
    ffactor: int | None = None,
    nelem: int = 1,
) -> NdbmCompat:
    """Open/create an ndbm-compatible database at ``file``.

    ``flags`` follows the dbm-style letters (``'r'``, ``'w'``, ``'c'``,
    ``'n'``).  Unlike real ndbm no ``.dir``/``.pag`` pair is created -- the
    new package stores everything in the single file ``file``.
    """
    if flags not in ("r", "w", "c", "n"):
        raise InvalidParameterError(f"flags must be 'r', 'w', 'c' or 'n', got {flags!r}")
    path = os.fspath(file)
    exists = os.path.exists(path)
    if flags == "n" or (flags == "c" and not exists):
        kwargs = {"cachesize": cachesize, "nelem": nelem}
        if bsize is not None:
            kwargs["bsize"] = bsize
        if ffactor is not None:
            kwargs["ffactor"] = ffactor
        table = HashTable.create(path, **kwargs)
    else:
        table = HashTable.open_file(
            path, cachesize=cachesize, readonly=(flags == "r")
        )
    return NdbmCompat(table)
