"""Merkle trees over transaction (or arbitrary payload) hashes.

Blocks commit to their transaction set through a Merkle root, which keeps the
block header small while letting replicas verify membership proofs during
catch-up (Figure 5, right).
"""

from __future__ import annotations

import dataclasses
from hashlib import sha256
from typing import Any, List, Sequence, Tuple

from repro.crypto.hashing import hash_payload, sha256_hex


def _combine(left: str, right: str) -> str:
    return sha256_hex((left + right).encode("ascii"))


def merkle_root(leaves: Sequence[Any]) -> str:
    """Return the Merkle root of ``leaves`` (hashed with :func:`hash_payload`).

    An empty sequence hashes to the digest of the empty payload list so that
    empty blocks still have a well-defined, unique root.  Leaves and pairs
    are hashed in place: a ``str`` leaf's pre-image is the one
    :func:`~repro.crypto.hashing.canonical_bytes` writes for it.
    """
    if not leaves:
        return hash_payload(["empty-merkle-tree"])
    level: List[str] = []
    for leaf in leaves:
        if type(leaf) is str:
            data = leaf.encode()
            level += (sha256(b"S%d:%s;" % (len(data), data)).hexdigest(),)
        else:
            level += (hash_payload(leaf),)
    while len(level) > 1:
        if len(level) % 2 == 1:
            level += (level[-1],)
        level = [
            sha256((level[i] + level[i + 1]).encode("ascii")).hexdigest()
            for i in range(0, len(level), 2)
        ]
    return level[0]


@dataclasses.dataclass
class MerkleProof:
    """An audit path proving that a leaf belongs to a tree."""

    leaf_hash: str
    # Each step is (sibling_hash, sibling_is_right).
    path: Tuple[Tuple[str, bool], ...]

    def verify(self, root: str) -> bool:
        """Return True when replaying the path from the leaf reaches ``root``."""
        current = self.leaf_hash
        for sibling, sibling_is_right in self.path:
            if sibling_is_right:
                current = _combine(current, sibling)
            else:
                current = _combine(sibling, current)
        return current == root


class MerkleTree:
    """A full Merkle tree retaining every level, able to emit audit proofs."""

    def __init__(self, leaves: Sequence[Any]):
        self._leaf_hashes: List[str] = [hash_payload(leaf) for leaf in leaves]
        self._levels: List[List[str]] = []
        self._build()

    def _build(self) -> None:
        if not self._leaf_hashes:
            self._levels = [[hash_payload(["empty-merkle-tree"])]]
            return
        level = list(self._leaf_hashes)
        self._levels = [level]
        while len(level) > 1:
            if len(level) % 2 == 1:
                level = level + [level[-1]]
                self._levels[-1] = level
            level = [
                _combine(level[i], level[i + 1]) for i in range(0, len(level), 2)
            ]
            self._levels.append(level)

    @property
    def root(self) -> str:
        """The Merkle root of the tree."""
        return self._levels[-1][0]

    def __len__(self) -> int:
        return len(self._leaf_hashes)

    def proof(self, index: int) -> MerkleProof:
        """Return the audit path of the ``index``-th leaf."""
        if not self._leaf_hashes:
            raise IndexError("cannot build a proof for an empty tree")
        if index < 0 or index >= len(self._leaf_hashes):
            raise IndexError(f"leaf index {index} out of range")
        path: List[Tuple[str, bool]] = []
        position = index
        for level in self._levels[:-1]:
            sibling_index = position ^ 1
            sibling_index = min(sibling_index, len(level) - 1)
            sibling_is_right = sibling_index > position
            path.append((level[sibling_index], sibling_is_right))
            position //= 2
        return MerkleProof(
            leaf_hash=self._leaf_hashes[index], path=tuple(path)
        )
