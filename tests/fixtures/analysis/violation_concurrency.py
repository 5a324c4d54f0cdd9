"""Concurrency-rule fixtures: every REPRO501–507 rule must fire here.

Miniature, self-contained copies of the real serving/distribution
shapes: a two-lock ABBA deadlock, blocking socket I/O inside critical
sections, lock-guarded state handed to threads, nested non-reentrant
acquisition, user callbacks under the lock, and a protocol handler
sending messages in an order the declared FSM does not admit.  The
``Disciplined`` class and ``good_handshake`` at the bottom are the
clean counterparts and must stay finding-free.
"""

import threading


def send_message(sock, message):  # protocol-module marker
    sock.sendall(message)


PROTOCOL_FSMS = {
    "serving": {
        "start": {"serve_hello": "greeted"},
        "greeted": {"session_open": "open", "serve_bye": "end"},
        "open": {
            "session_open": "open",
            "events": "open",
            "session_close": "greeted",
            "serve_bye": "end",
        },
        "end": {},
    },
}


class AbbaDeadlock:
    """Acquires alpha->beta directly and beta->alpha through a helper."""

    def __init__(self):
        self.alpha = threading.Lock()
        self.beta = threading.Lock()
        self.stats = {}

    def forward(self):
        with self.alpha:  # REPRO501: alpha -> beta edge
            with self.beta:
                self.stats["forward"] = True

    def backward(self):
        with self.beta:  # REPRO501: beta -> alpha edge (via _touch)
            self._touch()

    def _touch(self):
        with self.alpha:
            self.stats["backward"] = True


class BlockingUnderLock:
    """Socket I/O inside the critical section, direct and via a helper."""

    def __init__(self, sock):
        self.sock = sock
        self._lock = threading.Lock()
        self.buffered = []

    def pump(self):
        with self._lock:
            chunk = self.sock.recv(4096)  # REPRO502: direct recv under lock
            self.buffered.append(chunk)

    def relay(self, payload):
        with self._lock:
            send_message(self.sock, payload)  # REPRO502: sendall via helper


class ThreadEscape:
    """Guarded state handed to unsynchronized threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.counters = {}

    def bump(self, key):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + 1

    def spawn(self):
        # REPRO503 + REPRO507: guarded self.counters read unlocked, passed to a Thread
        worker = threading.Thread(target=drain, args=(self.counters,))
        worker.start()
        return worker

    def spawn_closure(self):
        def reset():
            self.counters.clear()  # REPRO507: written without the lock

        # REPRO503: closure target captures guarded self.counters
        worker = threading.Thread(target=reset)
        worker.start()
        return worker


def drain(counters):
    counters.clear()


class NestedLock:
    """Re-acquires its own non-reentrant lock through a helper."""

    def __init__(self):
        self._lock = threading.Lock()
        self.pending = []

    def add(self, item):
        with self._lock:
            self.pending.append(item)
            self._flush()  # REPRO504: _flush re-acquires self._lock

    def _flush(self):
        with self._lock:
            self.pending.clear()


class CallbackUnderLock:
    """User-supplied callables invoked inside the critical section."""

    def __init__(self, on_event):
        self._lock = threading.Lock()
        self.on_event = on_event
        self.subscribers = []
        self.log = []

    def subscribe(self, fn):
        with self._lock:
            self.subscribers.append(fn)

    def record(self, item):
        with self._lock:
            self.log.append(item)
            self.on_event(item)  # REPRO505: ctor-param callback under lock

    def publish(self, item):
        with self._lock:
            for subscriber in self.subscribers:
                subscriber(item)  # REPRO505: subscriber callback under lock


def bad_handshake(sock):
    send_message(sock, {"type": "serve_hello", "token": ""})
    # REPRO506: "events" cannot follow serve_hello (no session_open yet)
    send_message(sock, {"type": "events", "events": []})


class Waived:
    """A justified pragma suppresses the finding."""

    def __init__(self, sock):
        self.sock = sock
        self._lock = threading.Lock()

    def flush(self, payload):
        with self._lock:
            # concurrency: allow(REPRO502): single-shot shutdown path
            self.sock.sendall(payload)


class Disciplined:
    """Clean counterpart: snapshot under the lock, I/O after release."""

    def __init__(self, sock):
        self.sock = sock
        self._lock = threading.Lock()
        self.queue = []

    def enqueue(self, item):
        with self._lock:
            self.queue.append(item)

    def flush(self):
        with self._lock:
            batch = list(self.queue)
            self.queue.clear()
        for item in batch:
            self.sock.sendall(item)
        return len(batch)


def good_handshake(sock):
    send_message(sock, {"type": "serve_hello", "token": ""})
    send_message(sock, {"type": "session_open", "config": {}})
    send_message(sock, {"type": "events", "events": []})
    send_message(sock, {"type": "session_close", "session": "s1"})
    send_message(sock, {"type": "serve_bye"})
