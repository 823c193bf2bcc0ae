"""Server-session edge cases not covered by the main flows."""

import asyncio
import gc
import itertools
from typing import Callable

import pytest

from repro import ClamClient, ClamServer, RemoteInterface
from repro.errors import ConnectionClosedError
from repro.ipc import MessageChannel, dial
from repro.wire import ChannelRole, HelloMessage
from tests.support import async_test

_ids = itertools.count(1)


class TestUpcallChannelAttachment:
    @async_test
    async def test_second_upcall_channel_rejected(self):
        """A session has exactly one dedicated upcall stream (§4.4)."""
        server = ClamServer()
        address = await server.start(f"memory://sess-edge-{next(_ids)}")
        client = await ClamClient.connect(address)

        channel = MessageChannel(await dial(address))
        await channel.send(
            HelloMessage(role=ChannelRole.UPCALL, session=client.session)
        )
        # The server refuses the duplicate and drops the connection.
        with pytest.raises(ConnectionClosedError):
            for _ in range(3):
                await channel.recv()
        # The original client is unaffected.
        assert isinstance(await client.ping(), int)
        await client.close()
        await server.shutdown()

    @async_test
    async def test_sessions_isolated_after_one_dies(self):
        server = ClamServer()
        address = await server.start(f"memory://sess-edge-{next(_ids)}")
        doomed = await ClamClient.connect(address)
        healthy = await ClamClient.connect(address)
        await doomed.close()
        assert isinstance(await healthy.ping(), int)
        await healthy.close()
        await server.shutdown()


HOLDER_SOURCE = '''
from typing import Callable

from repro.stubs import RemoteInterface


class Holder(RemoteInterface):
    def __init__(self):
        self.proc = None

    def hold(self, proc: Callable[[int], None]) -> bool:
        self.proc = proc
        return True
'''


class Holder(RemoteInterface):
    def hold(self, proc: Callable[[int], None]) -> bool: ...


class TestCancelledUpcallSend:
    @async_test
    async def test_cancelled_batch_leaves_no_waiters(self):
        """A batch send cancelled mid-wait drops every serial it issued,
        so closing the session later fails no orphaned future."""
        server = ClamServer()
        address = await server.start(f"memory://sess-edge-{next(_ids)}")
        client = await ClamClient.connect(address)
        await client.load_module("holder", HOLDER_SOURCE)
        holder = await client.create(Holder)
        entered, release = asyncio.Event(), asyncio.Event()

        async def stuck(value: int) -> None:
            # The client runs upcalls in order: while the first one
            # blocks, none of the three ever gets a reply.
            entered.set()
            await release.wait()

        assert await holder.hold(stuck)
        [ruc] = [
            d.obj.proc for d in server.exports.table if hasattr(d.obj, "proc")
        ]
        session = ruc.sender
        payload = ruc.signature.bundle_args((1,))
        send = asyncio.create_task(
            session.send_upcall_batch(ruc.callback_id, [(payload, None)] * 3)
        )
        await asyncio.wait_for(entered.wait(), 5)
        send.cancel()
        with pytest.raises(asyncio.CancelledError):
            await send
        assert session._waiting == {}

        reported = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: reported.append(context)
        )
        await session.close()
        gc.collect()
        assert reported == []
        release.set()
        await client.close()
        await server.shutdown()
