"""repro -- reproduction of "A New Hashing Package for UNIX" (Seltzer &
Yigit, USENIX Winter 1991).

The package that became Berkeley DB's hash access method: linear hashing
with buddy-in-waiting overflow pages, an LRU buffer pool, large key/data
support, and user-selectable hash functions -- working identically on disk
and in memory.  The repository also contains from-scratch implementations
of every system the paper compares against (dbm/ndbm, sdbm, gdbm, System V
hsearch, dynahash) and a benchmark harness regenerating every figure of the
paper's evaluation.

Quickstart::

    import repro

    db = repro.open("example.db", bsize=1024, ffactor=32)
    db["key"] = "value"
    print(db[b"key"])      # b'value'
    print(db.stat()["nkeys"])
    db.close()

    # Sorted keys and cursors via the btree method:
    bt = repro.open("sorted.db", type=repro.DB_BTREE)
    bt.update({"b": "2", "a": "1"})
    with bt.cursor() as cur:
        for key, value in cur:
            ...
    bt.close()

    # Or the byte-level engine directly:
    t = repro.HashTable.create("raw.db", nelem=10_000)
    t.put(b"k", b"v")
    t.close()
"""

from repro.access import DB_BTREE, DB_HASH, DB_RECNO, AccessMethod, Cursor, db_open, open
from repro.core import (
    HASH_FUNCTIONS,
    BadFileError,
    ClosedError,
    HashError,
    HashFullError,
    HashFunctionMismatchError,
    HashTable,
    InvalidParameterError,
    ReadOnlyError,
    ShardError,
    TableStats,
    TransactionError,
    WALCorruptionError,
    get_hash_function,
    suggest_parameters,
)

hash_open = open  # the dbm-style name, an alias of repro.open

__version__ = "1.0.0"

__all__ = [
    "HashTable",
    "open",
    "hash_open",
    "db_open",
    "AccessMethod",
    "Cursor",
    "DB_HASH",
    "DB_BTREE",
    "DB_RECNO",
    "TableStats",
    "suggest_parameters",
    "HASH_FUNCTIONS",
    "get_hash_function",
    "HashError",
    "BadFileError",
    "HashFullError",
    "HashFunctionMismatchError",
    "InvalidParameterError",
    "ReadOnlyError",
    "ClosedError",
    "ShardError",
    "TransactionError",
    "WALCorruptionError",
    "__version__",
]
