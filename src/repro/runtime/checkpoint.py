"""Crash-consistent checkpointing for long training runs.

The paper's workloads (and the CHAOS follow-up study this repo's
parallel stack mirrors) run multi-hour epochs on a coprocessor; a
loader-thread death or worker crash must not cost the whole run.  This
module provides the storage layer:

* :func:`atomic_save_npz` — the write-temp → flush → fsync → rename
  protocol, so a checkpoint file is either entirely the old snapshot or
  entirely the new one, never a torn write;
* :class:`CheckpointStore` — a directory of monotonically numbered
  snapshots with pruning and ``latest()`` lookup;
* RNG stream capture/restore (:func:`capture_rng` /
  :func:`restore_rng` / :func:`restore_rng_into`) — bit-exact resume
  requires the *random streams*, not just the parameters, to continue
  exactly where they stopped;
* the engine state every training snapshot records — execution mode,
  worker count, worker streams — written by :func:`engine_state` and
  checked and restored by :func:`restore_engine_state`;
* :func:`retry_transient` — bounded exponential backoff around
  operations that may fail transiently (a flaky chunk load surfacing as
  :class:`~repro.runtime.executor.PrefetchError`).

The consumers are the four resumable drivers: greedy and pipelined
``pretrain(checkpoint=…, resume_from=…)`` on
:class:`~repro.nn.stacked.StackedAutoencoder` /
:class:`~repro.nn.stacked.DeepBeliefNetwork`,
:func:`repro.nn.sharded.sharded_pretrain` and
:func:`repro.nn.finetune.finetune`; the bit-exactness guarantee they
build on top is documented in ``docs/robustness.md`` and enforced by
``tests/chaos/``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

#: Bump when the on-disk checkpoint layout changes incompatibly.
CHECKPOINT_VERSION = 1

PathLike = Union[str, Path]


class CheckpointError(ConfigurationError):
    """A checkpoint could not be written, found, or restored."""


# ---------------------------------------------------------------------------
# RNG stream capture
# ---------------------------------------------------------------------------

def capture_rng(gen: np.random.Generator) -> dict:
    """JSON-serialisable snapshot of a generator's exact stream position."""
    state = gen.bit_generator.state
    # state contains plain ints (possibly > 64-bit for PCG64) and strings —
    # JSON handles arbitrary-precision ints natively.
    return json.loads(json.dumps(state))


def restore_rng(state: dict) -> np.random.Generator:
    """Fresh generator positioned exactly at a :func:`capture_rng` snapshot."""
    name = state.get("bit_generator", "PCG64")
    try:
        bitgen_cls = getattr(np.random, name)
    except AttributeError:
        raise CheckpointError(f"unknown bit generator {name!r} in checkpoint") from None
    bitgen = bitgen_cls()
    bitgen.state = state
    return np.random.Generator(bitgen)


def restore_rng_into(gen: np.random.Generator, state: dict) -> np.random.Generator:
    """Rewind an *existing* generator to a snapshot (in place); returns it."""
    if type(gen.bit_generator).__name__ != state.get("bit_generator"):
        raise CheckpointError(
            f"checkpoint stream uses {state.get('bit_generator')!r} but the "
            f"live generator is {type(gen.bit_generator).__name__!r}"
        )
    gen.bit_generator.state = state
    return gen


def capture_streams(gens: Sequence[np.random.Generator]) -> List[dict]:
    """Snapshot a list of generators (e.g. the engine's worker streams)."""
    return [capture_rng(g) for g in gens]


def restore_streams_into(
    gens: Sequence[np.random.Generator], states: Sequence[dict]
) -> None:
    """Rewind ``gens[i]`` to ``states[i]``; lengths must match exactly."""
    if len(gens) != len(states):
        raise CheckpointError(
            f"checkpoint has {len(states)} RNG stream(s) but the live run has "
            f"{len(gens)} — resume requires the same worker count"
        )
    for gen, state in zip(gens, states):
        restore_rng_into(gen, state)


def engine_state(engine) -> Optional[dict]:
    """The run state a training snapshot records about its engine.

    ``None`` for a serial run (no engine); otherwise the worker count and
    every worker stream's position (``engine.capture_rng_streams``, i.e.
    :func:`capture_streams`).  :func:`restore_engine_state` checks it back.
    """
    if engine is None:
        return None
    return {"n_workers": engine.n_workers, "streams": engine.capture_rng_streams()}


def restore_engine_state(state: Optional[dict], engine, where: str = "") -> None:
    """Check a snapshot's :func:`engine_state` against the live run and
    rewind the engine's worker streams to it.

    A bit-identical resume needs the same execution mode (engine or
    serial) and the same worker count, because each worker owns a stream;
    either mismatch raises :class:`CheckpointError`.  ``where`` prefixes
    the message (the pipelined strategy names the stage).
    """
    if (state is None) != (engine is None):
        raise CheckpointError(
            f"{where}resume must use the same execution mode as the "
            f"checkpointed run (parallel engine vs serial)"
        )
    if engine is None:
        return
    if state["n_workers"] != engine.n_workers:
        raise CheckpointError(
            f"{where}checkpoint was taken at n_workers={state['n_workers']} "
            f"but the engine has {engine.n_workers}; bit-identical resume "
            f"requires the same worker count"
        )
    engine.restore_rng_streams(state["streams"])


# ---------------------------------------------------------------------------
# atomic archive IO
# ---------------------------------------------------------------------------

def atomic_save_npz(path: PathLike, header: dict, arrays: Dict[str, np.ndarray]) -> Path:
    """Write ``header`` + ``arrays`` to ``path`` crash-consistently.

    The archive is written to a temporary file in the *same directory*
    (so the final rename is within one filesystem), flushed and fsynced,
    then moved over ``path`` with :func:`os.replace` — atomic on POSIX.
    The directory is fsynced afterwards so the rename itself survives a
    power cut.  A reader therefore always sees a complete archive.
    """
    path = Path(path)
    if "__ckpt__" in arrays:
        raise CheckpointError("'__ckpt__' is a reserved archive key")
    payload = json.dumps({"version": CHECKPOINT_VERSION, "header": header})
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".tmp.", suffix=".npz", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh,
                __ckpt__=np.frombuffer(payload.encode(), dtype=np.uint8),
                **arrays,
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    try:  # make the rename durable, not just the bytes
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform without directory fsync
        pass
    return path


def load_npz(path: PathLike) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Read an archive written by :func:`atomic_save_npz`."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    with np.load(path, allow_pickle=False) as data:
        if "__ckpt__" not in data:
            raise CheckpointError(f"{path}: not a repro checkpoint archive")
        payload = json.loads(bytes(data["__ckpt__"].tobytes()).decode())
        if payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {payload.get('version')}"
            )
        arrays = {k: data[k] for k in data.files if k != "__ckpt__"}
    return payload["header"], arrays


# ---------------------------------------------------------------------------
# the store: a directory of numbered snapshots
# ---------------------------------------------------------------------------

class CheckpointStore:
    """Numbered, pruned snapshots under one directory.

    Files are named ``<prefix>-<seq:06d>[-<tag>].npz``; ``seq`` grows
    monotonically (existing files are scanned on construction, so a
    resumed process keeps counting where the dead one stopped).  After
    each successful save the store prunes to the ``keep`` most recent
    snapshots — oldest first, and only after the new snapshot is durable,
    so there is always at least one complete checkpoint on disk.
    """

    def __init__(self, directory: PathLike, keep: int = 3, prefix: str = "ckpt"):
        if keep < 1:
            raise CheckpointError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = int(keep)
        self.prefix = str(prefix)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._seq = self._scan_max_seq()

    # -- naming ----------------------------------------------------------
    def _pattern(self) -> str:
        return f"{self.prefix}-*.npz"

    def _scan_max_seq(self) -> int:
        top = -1
        for path in self.directory.glob(self._pattern()):
            seq = self._seq_of(path)
            if seq is not None and seq > top:
                top = seq
        return top

    def _seq_of(self, path: Path) -> Optional[int]:
        """The sequence number of one of this store's snapshots, else
        ``None``; the prefix may itself contain ``-``."""
        head = f"{self.prefix}-"
        stem = path.name[: -len(".npz")]
        if not stem.startswith(head):
            return None
        try:
            return int(stem[len(head):].split("-", 1)[0])
        except ValueError:
            return None

    # -- API -------------------------------------------------------------
    def save(self, header: dict, arrays: Dict[str, np.ndarray], tag: str = "") -> Path:
        """Atomically write the next snapshot, then prune old ones."""
        self._seq += 1
        name = f"{self.prefix}-{self._seq:06d}"
        if tag:
            name += f"-{tag}"
        path = atomic_save_npz(self.directory / f"{name}.npz", header, arrays)
        self._prune()
        return path

    def _prune(self) -> None:
        snaps = self.list()
        for path in snaps[: max(0, len(snaps) - self.keep)]:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    def list(self) -> List[Path]:
        """All snapshots, oldest first."""
        snaps = [p for p in self.directory.glob(self._pattern())
                 if self._seq_of(p) is not None]
        return sorted(snaps, key=self._seq_of)

    def latest(self) -> Optional[Path]:
        """Newest snapshot path, or ``None`` when the store is empty."""
        snaps = self.list()
        return snaps[-1] if snaps else None

    def load_latest(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Header + arrays of the newest snapshot."""
        path = self.latest()
        if path is None:
            raise CheckpointError(f"no checkpoints under {self.directory}")
        return load_npz(path)

    def __repr__(self) -> str:
        return (
            f"CheckpointStore({str(self.directory)!r}, {len(self.list())} "
            f"snapshot(s), keep={self.keep})"
        )


def require_shard_count(header: dict, n_shards: int) -> None:
    """Reject resuming a sharded snapshot under a different shard count.

    Repartitioning changes every shard's parameter blocks, so a
    bit-identical resume is impossible across a shard-count change;
    sharded checkpoint headers are tagged with ``n_shards`` and
    cross-loading fails loudly here.
    """
    found = header.get("n_shards")
    if found is None:
        raise CheckpointError(
            "checkpoint carries no shard count — not a sharded snapshot"
        )
    if int(found) != int(n_shards):
        raise CheckpointError(
            f"checkpoint was written with n_shards={found} but this run uses "
            f"n_shards={n_shards}; repartitioning cannot resume bit-identically"
        )


def resolve_resume_path(resume_from: Union[PathLike, CheckpointStore]) -> Path:
    """Accept a checkpoint file, or a directory or :class:`CheckpointStore`
    (→ its newest snapshot)."""
    if isinstance(resume_from, CheckpointStore):
        store = resume_from
    else:
        path = Path(resume_from)
        if not path.is_dir():
            return path
        store = CheckpointStore(path)
    latest = store.latest()
    if latest is None:
        raise CheckpointError(f"no checkpoints under {store.directory}")
    return latest


def as_store(checkpoint) -> Optional[CheckpointStore]:
    """Coerce a ``checkpoint=`` argument: store, path, or ``None``."""
    if checkpoint is None or isinstance(checkpoint, CheckpointStore):
        return checkpoint
    if isinstance(checkpoint, (str, Path)):
        return CheckpointStore(checkpoint)
    raise CheckpointError(
        f"checkpoint must be a path or CheckpointStore, got {type(checkpoint).__name__}"
    )


# ---------------------------------------------------------------------------
# transient-failure retry
# ---------------------------------------------------------------------------

def retry_transient(
    fn: Callable[[], object],
    retries: int = 3,
    backoff_s: float = 0.05,
    max_backoff_s: float = 1.0,
    exceptions: Optional[Tuple[type, ...]] = None,
    sleep: Callable[[float], None] = time.sleep,
):
    """Call ``fn()``; on a transient exception retry with exponential backoff.

    ``exceptions`` defaults to :class:`~repro.runtime.executor.PrefetchError`
    — the loader-death signal of the chunk pipeline.  The final attempt's
    exception propagates unchanged, so callers still see the original
    failure once the budget is exhausted.
    """
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if exceptions is None:
        from repro.runtime.executor import PrefetchError

        exceptions = (PrefetchError,)
    delay = backoff_s
    for attempt in range(retries + 1):
        try:
            return fn()
        except exceptions:
            if attempt == retries:
                raise
            sleep(min(delay, max_backoff_s))
            delay *= 2.0
