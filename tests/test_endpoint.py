"""Hostile clients against both protocol servers, through the one endpoint.

The campaign ``Coordinator`` and the ``PredictionServer`` run the same
``Endpoint`` connection loop (``repro.orchestration.remote``).  A
hypothesis property drives each over a socketpair with random message
sequences drawn from both declared machines' alphabets, reply kinds,
unknown kinds, wrong tokens and skewed protocol versions, and checks
the handshake rule both servers share: every reply is a typed message,
a duplicate hello is refused, nothing is answered after a refused
hello, and the handler thread exits once the client leaves.
``REPRO_FULL_DIFFERENTIAL=1`` runs more examples.

Everything here needs threads and sockets, so it carries both the
``serving`` and the ``distributed`` marks.
"""

from __future__ import annotations

import os
import socket
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.orchestration import CampaignPlan, Telemetry, TraceSpec
from repro.orchestration.distserver import Coordinator
from repro.orchestration.remote import (
    MESSAGE_TYPES,
    PROTOCOL_FSMS,
    PROTOCOL_VERSION,
    recv_message,
    send_message,
)
from repro.predictors import Bimodal
from repro.serving import PredictionServer

pytestmark = [pytest.mark.serving, pytest.mark.distributed]

#: Examples per server; the full differential stage runs more.
HOSTILE_EXAMPLES = 400 if os.environ.get("REPRO_FULL_DIFFERENTIAL") else 30

TOKEN = "endpoint-secret"

#: Each server's hello, welcome and goodbye kinds.
HANDSHAKES = {
    "serving": ("serve_hello", "serve_welcome", "serve_bye"),
    "campaign": ("hello", "welcome", "bye"),
}


def campaign_plan(root):
    return CampaignPlan(
        factories={"bimodal": Bimodal},
        traces=[TraceSpec.suite("FP1", 200), TraceSpec.suite("INT1", 200)],
        store_dir=root,
        manifest_path=root / "manifest.json",
    )


@pytest.fixture(scope="module")
def servers(tmp_path_factory):
    """One server of each kind; tests drive ``_serve_client`` directly."""
    serving = PredictionServer(registry={"bimodal": Bimodal}, auth_token=TOKEN)
    coordinator = Coordinator(
        campaign_plan(tmp_path_factory.mktemp("endpoint")), auth_token=TOKEN
    )
    coordinator._listener.close()
    yield {"serving": serving, "campaign": coordinator}
    serving.stop()


def open_handler(server):
    """A handler thread serving one end of a socketpair; returns the other."""
    server_end, client_end = socket.socketpair()
    client_end.settimeout(10)
    handler = threading.Thread(
        target=server._serve_client, args=(server_end,), daemon=True
    )
    handler.start()
    return client_end, handler


def assert_closed(sock):
    """The server closed its end: the next read sees EOF, not a reply."""
    with pytest.raises(ConnectionError):
        recv_message(sock)


# --------------------------------------------------------------------------
# hypothesis: random sequences over both alphabets
# --------------------------------------------------------------------------

ALPHABET = sorted(
    {kind for machine in PROTOCOL_FSMS.values() for state in machine.values()
     for kind in state}
)
REPLY_KINDS = sorted(set(MESSAGE_TYPES) - set(ALPHABET) - {"chunk"})

_value = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from(["S1", "S2", "L1", "L2", "bimodal", "FP1", "x"]),
    st.lists(st.integers(0, 3), max_size=3),
)


@st.composite
def message(draw, kinds):
    kind = draw(kinds)
    body = {"type": kind}
    for name in MESSAGE_TYPES.get(kind, ()):
        body[name] = draw(_value)
    if kind in ("hello", "serve_hello"):
        body["protocol"] = draw(
            st.sampled_from([PROTOCOL_VERSION, PROTOCOL_VERSION + 1, 0, "1"])
        )
        token = draw(st.sampled_from([TOKEN, TOKEN, "wrong", None]))
        if token is not None:
            body["token"] = token
    return body


_any = message(
    st.one_of(
        st.sampled_from(ALPHABET),
        st.sampled_from(REPLY_KINDS),
        st.sampled_from(["nonsense", "HELLO", ""]),
    )
)
_hello = message(st.sampled_from(["hello", "serve_hello"]))
_sequences = st.tuples(
    st.lists(_any, max_size=3), _hello, st.lists(st.one_of(_any, _hello), max_size=10)
).map(lambda parts: parts[0] + [parts[1]] + parts[2])


@pytest.mark.parametrize("fsm", sorted(HANDSHAKES))
@settings(
    max_examples=HOSTILE_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sequence=_sequences)
def test_hostile_sequences(servers, fsm, sequence):
    hello, welcome, bye = HANDSHAKES[fsm]
    sock, handler = open_handler(servers[fsm])
    greeted = False
    try:
        for sent in sequence:
            send_message(sock, sent)
            reply = recv_message(sock)
            assert isinstance(reply, dict)
            assert reply.get("type") in MESSAGE_TYPES
            assert reply["type"] != "chunk"
            kind = sent["type"]
            if kind == hello and greeted:
                assert reply == {"type": "error", "error": f"duplicate {hello}"}
            elif kind == hello:
                accepted = (
                    sent.get("token") == TOKEN
                    and sent["protocol"] == PROTOCOL_VERSION
                )
                if not accepted:
                    assert reply["type"] == "error"
                    assert_closed(sock)
                    break
                assert reply["type"] == welcome
                greeted = True
            elif not greeted:
                assert reply["type"] == "error"
                assert f"say {hello} first" in reply["error"]
            elif kind == bye:
                assert reply == {"type": "ok"}
                assert_closed(sock)
                break
    finally:
        sock.close()
        handler.join(timeout=10)
    assert not handler.is_alive()


@pytest.mark.parametrize("fsm", sorted(HANDSHAKES))
def test_non_string_kind_is_an_unknown_message(servers, fsm):
    # A ``type`` that is a JSON list cannot key a handler table; it is
    # refused like any other kind, before and after the hello.
    hello, welcome, bye = HANDSHAKES[fsm]
    sock, handler = open_handler(servers[fsm])
    greeting = {"type": hello, "protocol": PROTOCOL_VERSION, "token": TOKEN}
    greeting.update({name: "x" for name in MESSAGE_TYPES[hello][:1]})
    try:
        send_message(sock, {"type": [bye]})
        assert f"say {hello} first" in recv_message(sock)["error"]
        send_message(sock, greeting)
        assert recv_message(sock)["type"] == welcome
        send_message(sock, {"type": [bye]})
        assert "unknown message" in recv_message(sock)["error"]
        send_message(sock, {"type": bye, "client": "x", "executor": "x"})
        assert recv_message(sock) == {"type": "ok"}
    finally:
        sock.close()
        handler.join(timeout=10)
    assert not handler.is_alive()


# --------------------------------------------------------------------------
# the coordinator's handshake, explicitly
# --------------------------------------------------------------------------


def campaign_hello(executor, token=TOKEN):
    return {
        "type": "hello",
        "executor": executor,
        "pid": 0,
        "host": "h",
        "protocol": PROTOCOL_VERSION,
        "token": token,
    }


def test_coordinator_refuses_second_hello(tmp_path):
    events = []
    coordinator = Coordinator(
        campaign_plan(tmp_path),
        auth_token=TOKEN,
        telemetry=Telemetry(subscribers=(events.append,)),
    )
    coordinator._listener.close()
    sock, handler = open_handler(coordinator)
    try:
        send_message(sock, campaign_hello("first"))
        assert recv_message(sock)["type"] == "welcome"
        send_message(sock, campaign_hello("renamed"))
        reply = recv_message(sock)
        assert reply == {"type": "error", "error": "duplicate hello"}
        # The connection still works, under its first name.
        send_message(sock, {"type": "claim", "executor": "first"})
        assert recv_message(sock)["type"] == "lease"
    finally:
        sock.close()
        handler.join(timeout=10)
    assert not handler.is_alive()
    joins = [e["executor"] for e in events if e["event"] == "executor_join"]
    assert joins == ["first"]
    # Dropped without bye: the lease of the name that joined expires.
    dead = [e["executor"] for e in events if e["event"] == "executor_dead"]
    expired = [e["executor"] for e in events if e["event"] == "lease_expire"]
    assert dead == ["first"]
    assert expired == ["first"]


def test_coordinator_closes_after_refused_hello(tmp_path):
    events = []
    coordinator = Coordinator(
        campaign_plan(tmp_path),
        auth_token=TOKEN,
        telemetry=Telemetry(subscribers=(events.append,)),
    )
    coordinator._listener.close()
    sock, handler = open_handler(coordinator)
    sock.settimeout(5)
    try:
        send_message(sock, campaign_hello("guesser", token="wrong"))
        reply = recv_message(sock)
        assert reply == {"type": "error", "error": "authentication failed"}
        # No second guess on the same socket: the server hung up.
        assert_closed(sock)
    finally:
        sock.close()
        handler.join(timeout=10)
    assert not handler.is_alive()
    assert [e["peer"] for e in events if e["event"] == "auth_reject"] == ["guesser"]
