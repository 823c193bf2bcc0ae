"""The Remote UpCall (RUC) class (paper §3.5.2).

"[The server bundler] stores the client's procedure pointer, a
pointer to the server's upcall bundler, and the client's IPC
connection identifier in an object of a Remote Upcall (RUC) class.
The purpose of the RUC class is to control distributed upcalls. ...
the compiler generates code to call a procedure in the RUC class
whenever this procedure pointer is used, and returns the pointer to
the start of this code, which looks like a normal procedure pointer."

Here the "pointer to the start of this code" is simply a callable
object: :class:`RemoteUpcall` *is* invocable, so server code that was
handed one cannot tell it from a local procedure.  Its fields mirror
the paper's RUC object:

- ``callback_id``  — the client's procedure pointer (as the opaque
  identifier the client minted; the raw address never has meaning in
  the server, §3.5.2);
- ``signature``    — the server's upcall stub (bundles arguments,
  unbundles the return value);
- ``sender``       — the client's IPC connection (the upcall channel,
  §4.4).
"""

from __future__ import annotations

import types
import typing
from typing import Any, Protocol

from repro.errors import BundleError, UpcallError
from repro.bundlers.base import Bundler, BundlerRegistry, run_bundler
from repro.xdr import XdrStream


class UpcallSender(Protocol):
    """The client IPC connection as the RUC object sees it."""

    async def send_upcall(self, callback_id: int, args: bytes) -> bytes:
        """Deliver one upcall and return the bundled result.

        Implementations enforce the §4.4 discipline that at most one
        upcall is active per client process, and block the calling
        (server) task until the client task finishes (§4.3).
        """
        ...


class UpcallSignature:
    """The upcall stub pair derived from a ``Callable[...]`` annotation.

    "The standard C++ syntax requires that the declaration of a
    procedure pointer include a specification of the type of each
    parameter ... The compiler uses this specification to generate the
    upcall stubs."  The Python analogue is ``Callable[[A, B], R]``;
    ``Awaitable[R]`` results unwrap to ``R`` so ``async`` callbacks
    declare naturally.
    """

    def __init__(self, arg_types: tuple[Any, ...], result_type: Any, registry: BundlerRegistry):
        self.arg_types = arg_types
        self.result_type = result_type
        self._arg_bundlers: list[Bundler] = [registry.bundler_for(t) for t in arg_types]
        self._result_bundler: Bundler | None = (
            None if result_type is type(None) else registry.bundler_for(result_type)
        )

    @classmethod
    def from_annotation(cls, annotation: Any, registry: BundlerRegistry) -> "UpcallSignature":
        """Parse ``Callable[[A, B], R]`` (R may be ``Awaitable[T]``)."""
        args = typing.get_args(annotation)
        if len(args) != 2 or args[0] is Ellipsis:
            raise BundleError(
                f"procedure-pointer annotation {annotation!r} must spell out "
                f"its parameter types, e.g. Callable[[Event], None] (§3.5.2: "
                f"the declaration drives the upcall stubs)"
            )
        arg_types, result = args
        result = _unwrap_awaitable(result)
        if result is None:
            result = type(None)
        return cls(tuple(arg_types), result, registry)

    # -- the upcall stubs ---------------------------------------------------------

    @property
    def payload_key(self) -> tuple:
        """Identity of this signature's *encoding*, for cross-subscriber
        payload caching.

        Two signatures produce byte-identical ``bundle_args`` output iff
        they resolved to the same bundler objects (bundlers are pure
        functions of the value), so the key is the bundler identities —
        per-session signatures over the same declared types share them
        via the server's base registry, which is what lets a fan-out
        group encode an event once for all subscribers.  Valid while the
        signature is alive (the bundlers are strongly held).
        """
        return tuple(map(id, self._arg_bundlers))

    def bundle_args(self, args: tuple[Any, ...]) -> bytes:
        if len(args) != len(self._arg_bundlers):
            raise UpcallError(
                f"upcall takes {len(self._arg_bundlers)} arguments, got {len(args)}"
            )
        stream = XdrStream.encoder()
        for bundler, value in zip(self._arg_bundlers, args):
            run_bundler(bundler, stream, value)
        return stream.getvalue()

    def unbundle_args(self, data: bytes) -> tuple[Any, ...]:
        stream = XdrStream.decoder(data)
        values = tuple(run_bundler(b, stream, None) for b in self._arg_bundlers)
        stream.expect_exhausted()
        return values

    def bundle_result(self, result: Any) -> bytes:
        if self._result_bundler is None:
            return b""
        stream = XdrStream.encoder()
        run_bundler(self._result_bundler, stream, result)
        return stream.getvalue()

    def unbundle_result(self, data: bytes) -> Any:
        if self._result_bundler is None:
            return None
        stream = XdrStream.decoder(data)
        result = run_bundler(self._result_bundler, stream, None)
        stream.expect_exhausted()
        return result

    def __repr__(self) -> str:
        names = ", ".join(getattr(t, "__name__", repr(t)) for t in self.arg_types)
        result = getattr(self.result_type, "__name__", repr(self.result_type))
        return f"<UpcallSignature ({names}) -> {result}>"


def _unwrap_awaitable(annotation: Any) -> Any:
    origin = typing.get_origin(annotation)
    if origin is not None:
        import collections.abc

        if origin in (collections.abc.Awaitable, collections.abc.Coroutine):
            args = typing.get_args(annotation)
            return args[-1] if args else type(None)
    return annotation


class RemoteUpcall:
    """A client procedure pointer, usable inside the server.

    Awaiting the instance performs the distributed upcall: bundle the
    arguments with the upcall stub, ship them with the callback
    identifier over the client's upcall channel, block until the
    client task finishes, unbundle the result.

    Failure containment: when the upcall cannot complete — the client
    is gone, its handler raised, the reply timed out — and the sender
    exposes ``report_upcall_failure``, the failure is offered to it
    first.  If the sender accepts (returns True) *and* the upcall
    returns no value, the call degrades to ``None`` instead of
    propagating — the §4 error-handler route instead of wedging the
    layer that happened to hold the pointer.  Value-returning upcalls
    never degrade: the caller needs the result, so it must see the
    error.
    """

    __slots__ = ("callback_id", "signature", "sender")

    def __init__(self, callback_id: int, signature: UpcallSignature, sender: UpcallSender):
        self.callback_id = callback_id
        self.signature = signature
        self.sender = sender

    async def __call__(self, *args: Any) -> Any:
        payload = self.signature.bundle_args(args)
        try:
            reply = await self.sender.send_upcall(self.callback_id, payload)
        except Exception as exc:
            if self.degrades(exc):
                return None
            raise
        return self.signature.unbundle_result(reply)

    def degrades(self, exc: Exception) -> bool:
        """Offer a failed upcall to the sender's error port; True if it
        may degrade to a no-op.

        Only a void upcall may, and only when the sender exposes
        ``report_upcall_failure`` and accepts the failure.  The one
        degradation rule: this call and fan-out delivery
        (:class:`repro.cluster.UpcallGroup`) both apply it.
        """
        if self.signature.result_type is not type(None):
            return False
        report = getattr(self.sender, "report_upcall_failure", None)
        if report is None:
            return False
        try:
            return bool(report(self.callback_id, exc))
        except Exception:
            return False

    def __repr__(self) -> str:
        return f"<RemoteUpcall #{self.callback_id} {self.signature!r}>"
