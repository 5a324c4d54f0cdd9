"""Fixture: lock-guarded state touched without the lock (REPRO507/508)."""

import threading


class LeakyCoordinator:
    def __init__(self):
        self._lock = threading.Lock()
        self._leases = {}
        self._settled = {}

    def claim(self, executor):
        with self._lock:
            lease_id = len(self._leases)
            self._leases[lease_id] = executor
            return lease_id

    def complete(self, lease_id, value):
        with self._lock:
            self._leases.pop(lease_id, None)
            self._settled[lease_id] = value

    def outstanding(self):
        return len(self._leases)  # REPRO507: unguarded read, public method

    def drop_all(self):
        self._leases.clear()  # REPRO507: unguarded mutation, public method

    def watch(self):
        thread = threading.Thread(target=self._expire_loop, daemon=True)
        thread.start()
        return thread

    def _expire_loop(self):
        for lease_id in list(self._leases):  # REPRO508: thread target, no lock
            self.complete(lease_id, None)

    def settled_view(self):
        with self._lock:
            return dict(self._settled)  # clean: read under the lock


class Unlocked:
    """No lock anywhere — the pass must stay silent."""

    def __init__(self):
        self._items = []

    def push(self, item):
        self._items.append(item)
