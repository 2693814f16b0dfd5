"""A simulated file system: a catalog of paths with sizes.

Each hosted web site's document tree is registered here; the web server
consults it for existence and size, the buffer cache and disk model for
the cost of actually reading the bytes.  A tree is the same on every
node, so a cluster gives all its machines one catalog.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple


class FileSystem:
    """A flat catalog of files keyed by absolute path."""

    def __init__(self) -> None:
        self._files: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._files)

    def __contains__(self, path: str) -> bool:
        return path in self._files

    def add_file(self, path: str, size_bytes: int) -> None:
        """Register one file (idempotent; last size wins)."""
        if size_bytes < 0:
            raise ValueError("negative file size")
        if not path.startswith("/"):
            raise ValueError("paths must be absolute: {!r}".format(path))
        self._files[path] = int(size_bytes)

    def add_tree(self, prefix: str, files: Dict[str, int]) -> None:
        """Register a site's document tree under ``prefix``."""
        for relative, size in files.items():
            joined = "{}/{}".format(prefix.rstrip("/"), relative.lstrip("/"))
            self.add_file(joined, size)

    def size_of(self, path: str) -> Optional[int]:
        """Size in bytes, or None if the path does not exist."""
        return self._files.get(path)

    def total_bytes(self) -> int:
        """Sum of all registered file sizes."""
        return sum(self._files.values())

    def walk(self) -> Iterator[Tuple[str, int]]:
        """Iterate (path, size) pairs."""
        return iter(self._files.items())
