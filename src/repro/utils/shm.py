"""Zero-copy numpy arrays in POSIX shared-memory segments.

The serving stack hands large read-only arrays (candidate matrices,
quantization codes, candidate tables) to shard worker processes and
keeps two hot-swap generations alive during a refresh.  Shipping those
arrays by pickle multiplies resident memory by ``workers x generations``;
this module makes the *handle* cheap to ship while the bytes stay in one
place:

- :class:`SharedArray` — a ``multiprocessing.shared_memory`` segment.
  Pickles as ``(name, shape, dtype)``; the receiver maps the same
  physical pages instead of copying.  The creating process owns the
  segment and unlinks it on :meth:`~SharedArray.release` (or GC); POSIX
  keeps the pages alive for every process still mapping them, so a
  retirement can never tear an in-flight request.  A handle exposes
  ``.array`` (a read-only view), ``.nbytes`` and an idempotent
  ``.release()``.
- :class:`ZeroCopyPickle` — a mixin that makes any object whose big
  arrays were moved into segments (via :func:`share_object`) pickle the
  *handles* instead of the bytes.
"""

from __future__ import annotations

import os
import weakref
from multiprocessing import shared_memory

import numpy as np


def _close_segment(shm: shared_memory.SharedMemory, creator_pid: int) -> None:
    """Finalizer bound to the *view's* lifetime: unmap one shm segment.

    ``SharedMemory.close()`` unmaps unconditionally — numpy views built
    on ``shm.buf`` do not pin the exported buffer, so closing while a
    view is alive leaves it dangling (a segfault on the next read, not
    an exception).  Binding this finalizer to the view guarantees the
    unmap runs only once nothing can read the pages.  The creator also
    unlinks here, covering handles whose ``release()`` was never called.
    """
    if os.getpid() == creator_pid:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
    try:
        shm.close()
    except BufferError:  # pragma: no cover - defensive
        pass


class SharedArray:
    """A read-only numpy array in a POSIX shared-memory segment.

    Create with :meth:`create` (copies the source array into the segment
    once); every unpickle *attaches* to the same segment by name.  The
    view is marked non-writeable — serving artifacts are immutable by
    contract, and a stray write would otherwise corrupt every attached
    process at once.
    """

    def __init__(
        self,
        name: str,
        shape: tuple,
        dtype: str,
        _creator_pid: int = -1,
    ) -> None:
        self.name = name
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self._creator_pid = _creator_pid
        self._shm: "shared_memory.SharedMemory | None" = None
        self._view: "np.ndarray | None" = None
        self._released = False

    def _bind(self, shm: shared_memory.SharedMemory) -> np.ndarray:
        """Map a view and tie the unmap to the *view's* destruction.

        The finalizer must hang off the view, not this handle: artifact
        objects alias the view, so the handle can die (or be released)
        while requests still read through the array.  Unmapping then
        would dangle every aliased reader at once.
        """
        self._shm = shm
        view = np.ndarray(self.shape, dtype=self.dtype, buffer=shm.buf)
        self._view = view
        weakref.finalize(view, _close_segment, shm, self._creator_pid)
        return view

    @classmethod
    def create(cls, array: np.ndarray) -> "SharedArray":
        """Copy ``array`` into a fresh segment owned by this process."""
        array = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(create=True, size=max(array.nbytes, 1))
        handle = cls(
            shm.name, array.shape, array.dtype.str, _creator_pid=os.getpid()
        )
        view = handle._bind(shm)
        view[...] = array
        view.flags.writeable = False
        return handle

    def _attach(self) -> None:
        # Attaching registers with the process tree's resource tracker
        # exactly like creating does (CPython POSIX path).  That is
        # harmless here — the tracker's cache is a set shared by the
        # whole tree, so the duplicate add is a no-op and the single
        # entry is removed by the creator's unlink.  Explicitly
        # unregistering would *steal* that entry and make the creator's
        # release double-unregister.
        view = self._bind(shared_memory.SharedMemory(name=self.name))
        view.flags.writeable = False

    @property
    def array(self) -> np.ndarray:
        """The read-only view (attaches lazily after unpickling)."""
        if self._view is None:
            self._attach()
        return self._view

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Unlink the segment's name (creator) and drop this handle's pin.

        Idempotent.  The *mapping* is deliberately not torn down here:
        numpy views do not pin the shared-memory buffer, so unmapping
        under a live view (an in-flight request on a retired bundle)
        would dangle it.  Each process unmaps when its last view dies —
        see :meth:`_bind` — and POSIX keeps the physical pages valid for
        every process still mapping the unlinked segment.
        """
        if self._released:
            return
        self._released = True
        if os.getpid() == self._creator_pid and self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
        self._view = None
        self._shm = None

    def __reduce__(self):
        # The receiving process attaches by name; creator_pid travels so
        # a forked child never unlinks a segment it does not own.
        return (
            _attach_shared,
            (self.name, self.shape, self.dtype.str, self._creator_pid),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SharedArray({self.name!r}, shape={self.shape},"
            f" dtype={self.dtype}, owner={self._creator_pid == os.getpid()})"
        )


def _attach_shared(
    name: str, shape: tuple, dtype: str, creator_pid: int
) -> SharedArray:
    return SharedArray(name, shape, dtype, _creator_pid=creator_pid)


class ZeroCopyPickle:
    """Pickle big arrays as segment handles instead of bytes.

    Objects list their shared attributes in ``self._shared`` (attribute
    name -> handle), which :func:`share_object` maintains.  On pickle the
    raw arrays are swapped for handles; on unpickle each handle attaches
    and the attribute becomes a view again.  Handles referenced from
    several attributes (or several objects in one pickle) re-use one
    view, so aliasing like ``index._queries is index._candidates``
    survives the round trip.
    """

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for attr in state.get("_shared", {}):
            state[attr] = state["_shared"][attr]
        return state

    def __setstate__(self, state: dict) -> None:
        views: dict[int, np.ndarray] = {}
        for attr, handle in (state.get("_shared") or {}).items():
            view = views.get(id(handle))
            if view is None:
                view = handle.array
                views[id(handle)] = view
            state[attr] = view
        self.__dict__.update(state)


def share_object(
    obj: object,
    attrs: "tuple[str, ...] | list[str]",
    registry: "dict[int, object] | None" = None,
) -> list:
    """Move ``obj``'s named array attributes into shared-memory segments.

    Mutates ``obj`` in place: each attribute becomes a read-only view
    into its segment, and ``obj._shared`` records the handles so
    :class:`ZeroCopyPickle` ships names instead of bytes.  ``registry``
    (keyed by ``id`` of the source array) de-duplicates arrays shared by
    several attributes or several objects — e.g. the similarity index's
    candidate matrix, which the IVF index references as well — so each
    distinct array gets exactly one segment.

    Returns the handles *created* by this call (already-registered
    arrays contribute none).
    """
    registry = {} if registry is None else registry
    shared = dict(getattr(obj, "_shared", None) or {})
    created = []
    for attr in attrs:
        array = getattr(obj, attr, None)
        if not isinstance(array, np.ndarray):
            continue
        handle = registry.get(id(array))
        if handle is None:
            # An object reachable from several bundles (e.g. the model in
            # every shard bundle of one generation) may already hold this
            # array as a segment view; re-sharing must reuse that handle,
            # not copy the bytes again.
            prior = shared.get(attr)
            if prior is not None and prior._view is array:
                handle = prior
        if handle is None:
            handle = SharedArray.create(array)
            created.append(handle)
        registry[id(array)] = handle
        # Re-sharing the segment view itself must not copy again either.
        registry[id(handle.array)] = handle
        setattr(obj, attr, handle.array)
        shared[attr] = handle
    obj._shared = shared
    return created
