"""A socket-free transport for driving the HTTP protocols in tests."""

import asyncio


class FakeTransport(asyncio.Transport):
    """Attaches to ``protocol`` and records what it writes.

    With ``reply`` set, every write is answered with those bytes on the
    next loop turn.  Closing reports the connection lost, as a real
    transport does.
    """

    def __init__(self, protocol, reply=None):
        super().__init__()
        self.protocol = protocol
        self.reply = reply
        self.written = []
        self.closing = False
        protocol.connection_made(self)

    def write(self, data):
        self.written.append(data)
        if self.reply is not None:
            asyncio.get_running_loop().call_soon(
                self.protocol.data_received, self.reply
            )

    def is_closing(self):
        return self.closing

    def close(self):
        if not self.closing:
            self.closing = True
            asyncio.get_running_loop().call_soon(
                self.protocol.connection_lost, None
            )
