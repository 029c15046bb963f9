"""Trusted-vendor traffic weeding (Section V-B noise reduction).

"To reduce noise from benign HTTP traffic, we weed out HTTP transactions
that originate from known vendors ... e.g. downloads from online
application stores / software repositories."
"""

from __future__ import annotations

from repro.synthesis.entities import TRUSTED_VENDORS

__all__ = ["VendorWhitelist"]

#: Verdicts remembered before the memo starts over: a tap sees the same
#: hosts again and again, but a scan of unique names must not grow it.
_MEMO_CAP = 4096


class VendorWhitelist:
    """Domain-suffix host whitelist with O(labels) lookups.

    A host matches when it equals a whitelisted entry or is a subdomain
    of one; matching is on whole domain labels, so ``evil-google.com``
    never matches ``google.com``.  Entries live in one deduplicated set,
    a lookup probes only the host's own label suffixes (so its cost is
    independent of whitelist size) and its verdict is remembered per
    host until the next ``add()``.  The default list covers the major
    OS/app-store/software repositories the paper's deployment trusted.
    """

    def __init__(self, hosts: tuple[str, ...] | list[str] = TRUSTED_VENDORS):
        self._domains: set[str] = set()
        #: host as asked -> verdict; dropped whole by ``add``.
        self._verdicts: dict[str, bool] = {}
        for host in hosts:
            self.add(host)

    def add(self, host: str) -> None:
        """Trust ``host`` (and its subdomains) from now on; idempotent."""
        cleaned = host.lower().strip(".")
        if cleaned:
            self._domains.add(cleaned)
            self._verdicts.clear()

    def trusted(self, host: str) -> bool:
        """True when ``host`` is whitelisted."""
        verdict = self._verdicts.get(host)
        if verdict is None:
            if len(self._verdicts) >= _MEMO_CAP:
                self._verdicts.clear()
            labels = host.lower().strip(".").split(".")
            verdict = self._verdicts[host] = any(
                ".".join(labels[start:]) in self._domains
                for start in range(len(labels))
            )
        return verdict

    def __len__(self) -> int:
        return len(self._domains)
