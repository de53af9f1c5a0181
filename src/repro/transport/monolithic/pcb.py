"""The Protocol Control Block: TCP's famously entangled shared state.

Section 2.3: "the state maintained by the transport layer (e.g.,
sequence numbers, window sizes, etc.) is shared by all of these
subfunctions, which leads to non-modular code" — and "all of which
share and mutate the same state (encapsulated in the PCB block)".

The PCB here is an :class:`~repro.core.instrument.InstrumentedState`
with target ``"pcb"``.  The monolithic input/output routines run their
demultiplexing, connection-management, reliable-delivery, congestion-
control, and flow-control sections under different instrumentation
actors, so the A1/E3 experiments can measure exactly which subfunction
touches which PCB field — the quantified version of the paper's
entanglement argument.
"""

from __future__ import annotations

from ...core.instrument import AccessLog, InstrumentedState

# TCP states (RFC 793 names).
CLOSED = "CLOSED"
LISTEN = "LISTEN"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT_1 = "FIN_WAIT_1"
FIN_WAIT_2 = "FIN_WAIT_2"
CLOSE_WAIT = "CLOSE_WAIT"
CLOSING = "CLOSING"
LAST_ACK = "LAST_ACK"
TIME_WAIT = "TIME_WAIT"

#: The subfunction actors the monolithic code runs under.
SUBFUNCTIONS = ("demux", "cm", "rd", "cc", "flow")


def make_pcb(
    lport: int,
    rport: int,
    config,
    access_log: AccessLog | None = None,
) -> InstrumentedState:
    """A fresh PCB with every field the monolithic machine uses."""
    return InstrumentedState(
        "pcb",
        log=access_log,
        # --- identification (demux) ---
        lport=lport,
        rport=rport,
        # --- connection management ---
        state=CLOSED,
        iss=0,
        irs=0,
        fin_pending=False,
        fin_seq=None,          # absolute seq of our FIN, once queued
        fin_sent=False,
        syn_retries=0,
        # --- reliable delivery (send side) ---
        snd_una=0,
        snd_nxt=0,
        stream=b"",            # app bytes not yet acked (from stream_base on)
        stream_base=0,         # stream offset of stream[0]
        rtx_timer=None,
        rtt_seq=None,          # sequence being timed for RTT
        rtt_start=0.0,
        srtt=None,
        rttvar=0.0,
        rto=config.rto_initial,
        retransmits=0,
        # --- reliable delivery (receive side) ---
        rcv_nxt=0,
        ooo={},                # absolute seq -> payload bytes
        fin_rcvd=False,
        # --- congestion control ---
        cwnd=config.initial_cwnd,
        ssthresh=64 * 1024,
        dupacks=0,
        # --- flow control ---
        snd_wnd=config.mss,    # until the peer advertises
        app_buffered=0,        # delivered-but-unread bytes (reader paused)
        persist_timer=None,
    )
