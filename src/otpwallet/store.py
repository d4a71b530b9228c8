"""The two files of a CLI world, and the order a save writes them in.

A world is `world.json`, the commit point, and `actions.jsonl`, its
append-only action log, in one state directory (`otpwallet.cli` says what
they hold). Every read and write of either goes through `FILES`, one
file-operations object, as SQLite's VFS puts each file operation of the
database behind one table: a test swaps it for a recorder or for a double
that fails partway, and patches nothing process-wide.
"""

import os
from pathlib import Path

WORLD_NAME = "world.json"
LOG_NAME = "actions.jsonl"


class Files:
    """The file operations of a world."""

    def read(self, path: Path, size: int = -1) -> bytes:
        """The first `size` bytes of `path`, or all of them."""
        with open(path, "rb") as f:
            return f.read(size)

    def append(self, path: Path, committed: int, data: bytes) -> None:
        """Cut the append-only file at `path` to its `committed` bytes,
        which drops a torn append, and append `data`. A save never commits
        more bytes than the file holds, so the cut never pads it."""
        with open(path, "ab") as f:
            f.truncate(committed)
            f.write(data)

    def write(self, path: Path, data: bytes) -> None:
        path.write_bytes(data)

    def replace(self, src: Path, dst: Path) -> None:
        os.replace(src, dst)


FILES = Files()


def commit(state_dir: Path, committed: int, lines: bytes,
           world: bytes) -> None:
    """Append `lines` to the log past its `committed` bytes, then write
    `world` to `world.json.tmp` and rename that to `world.json`. The rename
    is the commit point, so a save that fails before it leaves the previous
    world: lines past the committed length are a torn append, which a load
    ignores and the next commit cuts, and no load reads the temp file."""
    state_dir.mkdir(parents=True, exist_ok=True)
    FILES.append(state_dir / LOG_NAME, committed, lines)
    tmp = state_dir / f"{WORLD_NAME}.tmp"
    FILES.write(tmp, world)
    FILES.replace(tmp, state_dir / WORLD_NAME)
