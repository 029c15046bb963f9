"""Reference session pruning: one idle horizon for every clue-less
watch — ``SessionTable`` before it retired watches nothing can reach.

Routing, ``matches`` and the drop bookkeeping are the production
table's own; only the rule that decides *when* a clue-less watch goes
is the old one, so a differential run isolates exactly that rule.
"""

from repro.detection.monitor import SessionTable


def rebuilding_prune_client(self, client: str) -> None:
    """``SessionTable._prune_client`` before it looked first: rebuild
    the client's list on every call, asking ``_prunable`` per watch."""
    group = self._watches.get(client)
    if not group:
        return
    kept = [w for w in group if not self._drop_if_prunable(w)]
    if kept:
        self._watches[client] = kept
    else:
        del self._watches[client]
        self._client_serial.pop(client, None)


class SingleHorizonTable(SessionTable):
    """``SessionTable`` pruning at ``prune_after`` only."""

    _prune_client = rebuilding_prune_client

    def _prunable(self, watch) -> bool:
        if watch.terminated:
            return True
        return (
            watch.active_clue is None
            and self._now - watch.last_ts > self.prune_after
        )
