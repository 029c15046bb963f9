"""Reference chain assembly: rescan every redirect for each hop — the
quadratic ``repro.core.redirects.redirect_chains`` before candidates
were indexed by source host."""


def redirect_chains_reference(redirects):
    """Greedy maximal chains in timestamp order, one chain per redirect."""
    ordered = sorted(redirects, key=lambda r: r.timestamp)
    used = [False] * len(ordered)
    chains = []
    for start in range(len(ordered)):
        if used[start]:
            continue
        chain = [ordered[start]]
        used[start] = True
        cursor = ordered[start]
        extended = True
        while extended:
            extended = False
            for index in range(len(ordered)):
                candidate = ordered[index]
                if used[index]:
                    continue
                if (
                    candidate.source == cursor.target
                    and candidate.timestamp >= cursor.timestamp
                ):
                    chain.append(candidate)
                    used[index] = True
                    cursor = candidate
                    extended = True
                    break
        chains.append(chain)
    return chains
