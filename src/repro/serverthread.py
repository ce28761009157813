"""An asyncio server on a background thread with its own event loop.

The synchronous face of the two servers' ``serve`` coroutines, for
tests, the perf harness and embedding:
:class:`~repro.service.ServiceThread` and
:class:`~repro.cacheserver.CacheServerThread` are :class:`ServerThread`
over their server core.  It sits outside both packages so that neither
server imports the other.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Awaitable, Callable, Optional, Tuple

__all__ = ["ServerThread"]


class ServerThread:
    """Runs ``serve(core, ...)`` on a daemon thread until :meth:`stop`.

    ``serve`` is either server's ``serve`` coroutine: it takes the core
    plus the ``install_signal_handlers``, ``ready`` and ``log``
    keywords, and returns True on a clean drain.  A config with
    ``port=0`` binds an ephemeral port; :attr:`address` reports the
    real one.  :meth:`stop` sets the server's stop event, which takes
    the same drain path as SIGTERM.
    """

    def __init__(
        self, core: Any, serve: Callable[..., Awaitable[bool]], *, name: str
    ) -> None:
        self._core = core
        self._serve = serve
        #: Names the server in error messages and its thread.
        self._name = name
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._address: Optional[Tuple[str, int]] = None
        self._drained: Optional[bool] = None
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise RuntimeError(f"{self._name} is not running")
        return self._address

    @property
    def drained(self) -> Optional[bool]:
        """True/False after :meth:`stop`; None while running."""
        return self._drained

    # ------------------------------------------------------------------
    def start(self, timeout: float = 30.0) -> "ServerThread":
        if self._thread is not None:
            raise RuntimeError(f"{self._name} already started")
        self._thread = threading.Thread(
            target=self._run, name=f"repro-{self._name}", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError(f"{self._name} thread did not become ready")
        if self._startup_error is not None:
            raise RuntimeError(f"{self._name} failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        def on_ready(bound: Tuple[str, int], state: Any) -> None:
            self._address = bound
            self._stop_event = state.stop_event
            self._loop = asyncio.get_running_loop()
            self._ready.set()

        try:
            self._drained = asyncio.run(
                self._serve(
                    self._core,
                    install_signal_handlers=False,
                    ready=on_ready,
                    log=lambda *args, **kwargs: None,
                )
            )
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._startup_error = exc
            self._ready.set()

    def stop(self, timeout: float = 30.0) -> Optional[bool]:
        """Drain and stop; returns the drain outcome (None if never ran)."""
        if self._thread is None:
            return None
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError(f"{self._name} thread did not stop in time")
        self._thread = None
        return self._drained

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
