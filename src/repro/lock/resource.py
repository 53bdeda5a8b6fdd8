"""Lock resource names.

The paper stresses that its granules map onto *purely physical* lock
names: leaf granules are locked by the page id of the leaf node, external
granules by the page id of the non-leaf node they belong to, and objects
by their object id.  A namespaced pair keeps those three spaces (plus the
whole-tree resource used by the Postgres-style baseline) disjoint.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Hashable


class Namespace(enum.Enum):
    """Disjoint name spaces for the lockable resources."""

    #: a leaf granule, keyed by leaf page id
    LEAF = "leaf"
    #: an external granule, keyed by the non-leaf node's page id
    EXT = "ext"
    #: a data object, keyed by object id
    OBJECT = "obj"
    #: an entire index (tree-level locking baseline), keyed by tree id
    TREE = "tree"

    def __repr__(self) -> str:
        return self.value


#: per-namespace hash salt (computed once; CRC of the namespace name)
_NS_SALT = {}


@dataclass(frozen=True, eq=False)
class ResourceId:
    """A purely physical lock name: ``(namespace, key)``.

    Hashing is on the hot path (every lock-table dict and every
    transaction's resource set is keyed by it), so the hash is computed
    once in ``__post_init__`` and memoised.  It is also
    *process-independent* (CRC of the canonical repr, not Python's
    per-process-randomised string/enum hashing), so iterating a set of
    resources visits them in the same order in every interpreter
    invocation -- replays and trace artifacts stay byte-stable.

    ``order`` is the canonical sort key ``(namespace value, repr(key))``,
    a total order that is the same in every process.  It decides both the
    protocol's lock acquisition order and the lock manager's wake order,
    so it is computed once here rather than at every sort.
    """

    namespace: Namespace
    key: Hashable

    def __post_init__(self) -> None:
        key = self.key
        object.__setattr__(self, "order", (self.namespace.value, repr(key)))
        salt = _NS_SALT[self.namespace]
        if type(key) is int:
            # page ids / small ints: a Weyl-style mix is ~4x cheaper than
            # CRC over the repr and just as stable across processes
            h = (salt ^ (key * 0x9E3779B1)) & 0x7FFFFFFF
        else:
            h = zlib.crc32(repr(key).encode(), salt)
        object.__setattr__(self, "_hash", h)

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResourceId):
            return self.namespace is other.namespace and self.key == other.key
        return NotImplemented

    @classmethod
    def leaf(cls, page_id: int) -> "ResourceId":
        """The leaf granule stored on ``page_id``."""
        return cls(Namespace.LEAF, page_id)

    @classmethod
    def ext(cls, page_id: int) -> "ResourceId":
        """The external granule of the non-leaf node on ``page_id``."""
        return cls(Namespace.EXT, page_id)

    @classmethod
    def obj(cls, oid: Hashable) -> "ResourceId":
        """The data object ``oid``."""
        return cls(Namespace.OBJECT, oid)

    @classmethod
    def tree(cls, tree_id: Hashable = 0) -> "ResourceId":
        """A whole index (used by the tree-level-locking baseline)."""
        return cls(Namespace.TREE, tree_id)

    def __repr__(self) -> str:
        return f"{self.namespace.value}:{self.key}"


_NS_SALT.update({ns: zlib.crc32(ns.value.encode()) for ns in Namespace})
