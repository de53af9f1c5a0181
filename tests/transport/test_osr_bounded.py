"""OSR's send buffer holds exactly the bytes RD has not been given.

RD keeps the in-flight copies it retransmits, so OSR has no reason to
remember anything it already released.  Between every two simulator
instants of a long, lossy, many-``send`` transfer, OSR's buffer must
equal the sent bytes RD has not yet seen; once the stream is acked it
is empty, and the FIN goes out at the total number of bytes sent.
"""

import random

from repro.transport import TcpConfig

from .helpers import make_pair, pattern

CONN = (12345, 80)
SENDS = 250


def test_osr_buffers_only_unreleased_bytes():
    sim, a, b, _link = make_pair(
        loss=0.02, seed=3, config=TcpConfig(mss=500), tier="metrics"
    )
    osr, rd = a.stack.sublayer("osr"), a.stack.sublayer("rd")
    sizes = random.Random(11).choices(range(1, 1500), k=SENDS)
    data = pattern(sum(sizes))
    fin_offsets: list[int] = []
    srv_close = rd.srv_close

    def tapped_close(conn, final_offset):
        fin_offsets.append(final_offset)
        srv_close(conn, final_offset)

    rd.srv_close = tapped_close
    sent = [0, 0]  # sends made, bytes sent

    def next_send() -> None:
        if sent[0] == SENDS:
            sock.close()
            return
        size = sizes[sent[0]]
        sock.send(data[sent[1] : sent[1] + size])
        sent[0] += 1
        sent[1] += size
        sim.schedule(0.002, next_send)

    b.listen(80)
    sock = a.connect(*CONN)
    sock.on_connect = next_send

    checked = 0
    while (instant := sim.next_event_time()) != float("inf"):
        sim.run(until=instant)
        record = osr.state.conns.get(CONN)
        if record is None or rd.state.conns.get(CONN) is None:
            continue
        released = rd._send_offset(rd.state.conns[CONN])
        assert len(record["buffer"]) == sent[1] - released
        checked += 1

    assert sent == [SENDS, len(data)]
    assert b.socket_for(80, 12345).bytes_received() == data
    assert checked > SENDS
    assert rd.state.conns[CONN]["outstanding"] == {}
    assert osr.state.conns[CONN]["buffer"] == b""
    assert fin_offsets == [len(data)]
