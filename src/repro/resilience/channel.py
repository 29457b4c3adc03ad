"""Deadline-bounded IPC primitives and the result-frame format of the pool.

The RES001 contract rule bans naked ``Connection.recv()`` /
``Connection.recv_bytes()`` and untimed ``multiprocessing.connection.wait()``
inside :mod:`repro.parallel`: a receive with no deadline turns any hung or
dead peer into a hung master.  These helpers are the sanctioned replacements
— every blocking point either carries an explicit deadline
(:func:`recv_message`) or is justified by construction (:func:`recv_frame`
reads from a connection the OS already reported readable;
:func:`wait_readable` *requires* a timeout argument).

Workers answer the master in *frames*: ``digest ‖ pickle(message)``, one
frame per finished task.  The 16-byte blake2b digest covers the exact pickle
bytes that travel (16 zero bytes when verification is off), and
:func:`recv_frame` checks it on the received bytes *before* unpickling
anything, so a payload damaged in flight is rejected (and retried) without
ever being decoded, let alone folded into the operator.
"""

from __future__ import annotations

import pickle
import time
from hashlib import blake2b
from multiprocessing import connection as _mp_connection
from typing import Any, Sequence

from repro.exceptions import ChannelTimeout

__all__ = [
    "frame_digest",
    "pause",
    "recv_frame",
    "recv_message",
    "send_frame",
    "wait_readable",
]

#: Upper bound on a single blocking poll: even an "infinite" receive wakes up
#: this often, so callers can interleave liveness checks.
POLL_SECONDS: float = 0.2

#: Length in bytes of the digest heading every frame.
_DIGEST_SIZE: int = 16

#: Digest field of a frame sent without verification.
_NO_DIGEST: bytes = bytes(_DIGEST_SIZE)


def frame_digest(payload: bytes) -> bytes:
    """blake2b-16 digest of a frame's pickle bytes.

    Taken by the worker over the intact bytes and re-taken by the master over
    the bytes that arrived; a mismatch means the payload was damaged in
    flight and must be retried, never folded into results.
    """
    return blake2b(payload, digest_size=_DIGEST_SIZE).digest()


def send_frame(
    connection: Any, message: Any, verify: bool, damaged: Any = None
) -> None:
    """Pickle ``message`` once and send it as one digest-headed frame.

    The digest covers exactly the pickle bytes sent (16 zero bytes
    without ``verify``).  ``damaged``, when given, is pickled and sent in
    place of ``message`` under ``message``'s digest: the fault injector's
    model of a payload damaged in flight.
    """
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    digest = frame_digest(payload) if verify else _NO_DIGEST
    if damaged is not None:
        payload = pickle.dumps(damaged, protocol=pickle.HIGHEST_PROTOCOL)
    connection.send_bytes(digest + payload)


def recv_frame(connection: Any, verify: bool) -> Any | None:
    """Receive and decode one frame from a connection already reported readable.

    For use directly after :func:`wait_readable` returned this connection (or
    its ``poll(0)`` did) — the receive cannot block on an absent message, so
    no deadline is needed; a dead peer still raises ``EOFError``/``OSError``.
    Returns the unpickled message, or ``None`` when ``verify`` is set and the
    digest does not match the bytes (nothing is unpickled then).
    """
    frame = memoryview(connection.recv_bytes())
    payload = frame[_DIGEST_SIZE:]
    if verify and frame_digest(payload) != frame[:_DIGEST_SIZE]:
        return None
    return pickle.loads(payload)


def recv_message(
    connection: Any,
    timeout: float | None = None,
    poll_seconds: float = POLL_SECONDS,
) -> Any:
    """Receive one message, polling in bounded slices.

    With a ``timeout`` the call raises :class:`~repro.exceptions.ChannelTimeout`
    once the deadline passes without a message.  With ``timeout=None`` it
    waits indefinitely but still blocks at most ``poll_seconds`` at a time,
    so a closed pipe surfaces promptly as ``EOFError``/``OSError``.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        slice_seconds = poll_seconds
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                raise ChannelTimeout(
                    f"no message within the {timeout}s deadline"
                )
            slice_seconds = min(poll_seconds, remaining)
        if connection.poll(slice_seconds):
            return connection.recv()


def wait_readable(
    connections: Sequence[Any], timeout: float
) -> list[Any]:
    """``multiprocessing.connection.wait`` with a mandatory timeout."""
    if timeout is None:  # defensive: the whole point is the deadline
        raise ValueError("wait_readable requires an explicit timeout")
    return list(_mp_connection.wait(list(connections), timeout=timeout))


def pause(seconds: float) -> None:
    """Sleep for a backoff delay (no-op for non-positive delays)."""
    if seconds > 0.0:
        time.sleep(seconds)
