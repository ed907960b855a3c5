"""The new hashing package (the paper's contribution).

Public surface:

- :class:`~repro.core.table.HashTable` -- the engine (bytes in, bytes out).
- :func:`~repro.core.table.suggest_parameters` -- Equation 1 helper.
- :mod:`repro.core.hashfuncs` -- the provided hash functions.
- :mod:`repro.core.compat` -- ndbm- and hsearch-compatible interfaces.

The mapping interface (``db[key]``, str keys, dbm-style flags) is
:func:`repro.open`, which wraps the engine in the hash access method
(:mod:`repro.access`).
"""

from repro.core.errors import (
    BadFileError,
    ClosedError,
    HashError,
    HashFullError,
    HashFunctionMismatchError,
    InvalidParameterError,
    ReadOnlyError,
    ShardError,
    TransactionError,
    WALCorruptionError,
)
from repro.core.hashfuncs import HASH_FUNCTIONS, get_hash_function
from repro.core.table import HashTable, TableStats, suggest_parameters

__all__ = [
    "HashTable",
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
]
