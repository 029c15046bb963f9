"""Reference clue rule: re-assemble the redirect chains after every new
redirect — what ``repro.detection.clues.ClueDetector.observe`` did
before it read the chain length only at a risky download."""

from repro.core.payloads import is_exploit_type
from repro.core.redirects import RedirectInferencer, longest_chain_length
from repro.detection.clues import InfectionClue


class EagerClueRule:
    """One client's clue rule with the chain length always current."""

    def __init__(self, policy):
        self.policy = policy
        self._inferencer = RedirectInferencer()
        self._chain_length = 0

    def observe(self, txn):
        if self._inferencer.observe(txn):
            self._chain_length = longest_chain_length(
                self._inferencer.redirects
            )
        chain = self._chain_length
        ptype = txn.payload_type
        downloaded = txn.status == 200 and ptype in self.policy.risky_types
        if not downloaded:
            return None
        if chain >= self.policy.redirect_threshold or (
            self.policy.exploit_shortcut and is_exploit_type(ptype)
        ):
            return InfectionClue(
                client=txn.client,
                server=txn.server,
                payload_type=ptype,
                chain_length=chain,
                timestamp=txn.timestamp,
            )
        return None
