"""Benign browsing-session generators (Section II-A, benign ground truth).

Reproduces the six collection scenarios the paper captured over
05/2015–05/2016: web search (Google/Bing) with result clicks, social
networking with shared-link clicks, web-mail with attachment downloads,
video streaming with ad clicks, random Alexa-site visits, and
email-embedded link visits.  Statistics are calibrated on Table I's
benign row (2–34 hosts, average 3; 0–2 redirects; payload mix pdf 60 /
exe 30 / jar 3 / js 138 over 980 traces).

Two *hard-case* scenarios reproduce the paper's false-positive sources
(Section VI-B): downloads of benign content from unofficial sites, and
long torrent-ish sessions with very large binaries.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.model import (
    Headers,
    HttpMethod,
    HttpRequest,
    HttpResponse,
    HttpTransaction,
    Trace,
    TraceLabel,
)
from repro.synthesis.entities import (
    ALEXA_SITES,
    NameForge,
    SEARCH_ENGINES,
    SOCIAL_SITES,
    VIDEO_SITES,
    WEBMAIL_SITES,
)
from repro.synthesis.families import BENIGN_PROFILE
from repro.synthesis.sampling import bounded_int

__all__ = ["BenignScenario", "BenignGenerator", "SCENARIO_WEIGHTS"]


class BenignScenario(enum.Enum):
    """Benign collection scenario (Section II-A)."""

    SEARCH = "search"
    SOCIAL = "social"
    WEBMAIL = "webmail"
    VIDEO = "video"
    ALEXA = "alexa"
    EMAIL_LINK = "email_link"
    UNOFFICIAL_DOWNLOAD = "unofficial_download"  # FP hard case
    TORRENT = "torrent"  # FP hard case
    AGGRESSIVE_ADS = "aggressive_ads"  # FP hard case


#: Scenario mix for the benign corpus.  Hard cases are rare, matching the
#: paper's 49/1500 validation false positives.
SCENARIO_WEIGHTS: dict[BenignScenario, float] = {
    BenignScenario.SEARCH: 0.32,
    BenignScenario.SOCIAL: 0.16,
    BenignScenario.WEBMAIL: 0.14,
    BenignScenario.VIDEO: 0.12,
    BenignScenario.ALEXA: 0.15,
    BenignScenario.EMAIL_LINK: 0.05,
    BenignScenario.UNOFFICIAL_DOWNLOAD: 0.03,
    BenignScenario.TORRENT: 0.01,
    BenignScenario.AGGRESSIVE_ADS: 0.02,
}

_STATIC_EXTS = ("css", "js", "png", "jpg", "gif", "woff")


class BenignGenerator:
    """Generates benign :class:`Trace` objects across browsing scenarios."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.forge = NameForge(rng)
        self._base_time = 1_430_000_000.0

    def generate(self, scenario: BenignScenario | None = None) -> Trace:
        """Generate one labelled benign episode."""
        rng = self.rng
        if scenario is None:
            options = list(SCENARIO_WEIGHTS)
            weights = np.array([SCENARIO_WEIGHTS[s] for s in options])
            scenario = options[int(rng.choice(len(options), p=weights / weights.sum()))]
        self._ua = self.forge.user_agent()
        victim = f"client-{self.forge.token(6)}"
        start = self._base_time + float(rng.uniform(0, 365 * 86400))
        clock_now = [start]

        def tick(lo: float, hi: float) -> float:
            clock_now[0] += float(rng.uniform(lo, hi))
            return clock_now[0]

        builder = _SessionBuilder(self, victim, tick)
        dispatch = {
            BenignScenario.SEARCH: self._search,
            BenignScenario.SOCIAL: self._social,
            BenignScenario.WEBMAIL: self._webmail,
            BenignScenario.VIDEO: self._video,
            BenignScenario.ALEXA: self._alexa,
            BenignScenario.EMAIL_LINK: self._email_link,
            BenignScenario.UNOFFICIAL_DOWNLOAD: self._unofficial_download,
            BenignScenario.TORRENT: self._torrent,
            BenignScenario.AGGRESSIVE_ADS: self._aggressive_ads,
        }
        origin = dispatch[scenario](builder)
        transactions = builder.transactions
        return Trace(
            transactions=transactions,
            label=TraceLabel.BENIGN,
            origin=origin,
            meta={"scenario": scenario.value},
        )

    def generate_session(self) -> Trace:
        """Generate one browsing-session capture, possibly multi-tab.

        The paper's benign collection kept "multiple tabs open in the
        browser" (Section II-A), so a capture interleaves one to three
        concurrent activities of the same user.  Roughly half our
        sessions are single-tab; the rest overlay a second (sometimes
        third) scenario shifted by up to two minutes.
        """
        rng = self.rng
        roll = rng.random()
        tabs = 1 if roll < 0.5 else (2 if roll < 0.85 else 3)
        first = self.generate()
        if tabs == 1 or not first.transactions:
            return first
        victim = first.transactions[0].client
        start = first.transactions[0].timestamp
        merged = list(first.transactions)
        scenarios = [first.meta["scenario"]]
        for _ in range(tabs - 1):
            extra = self.generate()
            if not extra.transactions:
                continue
            offset = (
                start + float(rng.uniform(0.0, 120.0))
                - extra.transactions[0].timestamp
            )
            for txn in extra.transactions:
                txn.request.client = victim
                txn.request.timestamp += offset
                if txn.response is not None:
                    txn.response.timestamp += offset
                merged.append(txn)
            scenarios.append(extra.meta["scenario"])
        return Trace(
            transactions=merged,
            label=TraceLabel.BENIGN,
            origin=first.origin,
            meta={"scenario": first.meta["scenario"],
                  "tabs": scenarios},
        )

    # -- page-load machinery -----------------------------------------------

    def _page_load(
        self,
        builder: "_SessionBuilder",
        host: str,
        uri: str,
        referrer: str,
        assets: int | None = None,
        third_party: int = 0,
    ) -> str:
        """Emit a main-document GET plus its static asset fetches.

        Returns the page URL (for use as the next click's referrer).
        """
        rng = self.rng
        page_url = f"http://{host}{uri}"
        if rng.random() < 0.25:
            referrer = ""  # opened in a fresh tab / referrer policy strip
        builder.get(host, uri, referrer, "text/html",
                    size=int(rng.integers(5_000, 120_000)),
                    think=(20.0, 120.0))
        count = assets if assets is not None else int(rng.integers(2, 6))
        for _ in range(count):
            ext = _STATIC_EXTS[int(rng.integers(0, len(_STATIC_EXTS)))]
            ctype = {
                "css": "text/css", "js": "application/javascript",
                "woff": "font/woff",
            }.get(ext, "image/png")
            builder.get(host, self.forge.uri(depth=2, extension=ext),
                        page_url, ctype,
                        size=int(rng.integers(500, 60_000)),
                        think=(0.01, 0.2))
        for _ in range(third_party):
            cdn = builder.cdn_host()
            builder.get(cdn, self.forge.uri(depth=2, extension="js"),
                        page_url, "application/javascript",
                        size=int(rng.integers(1_000, 80_000)),
                        think=(0.01, 0.3))
        # Ad/analytics beacons: modern pages fire tracker requests with
        # very long query strings and frequent POSTs — benign traffic
        # that statistically shades into exploit-kit URI/method
        # territory (keeps the classes honestly overlapped).
        for _ in range(int(rng.integers(1, 4)) if rng.random() < 0.7 else 0):
            tracker = builder.tracker_host()
            blob = self.forge.token(int(rng.integers(40, 160)))
            beacon_uri = f"/collect?v=1&tid=UA-{self.forge.token(6)}&cid={blob}"
            beacon_ref = "" if rng.random() < 0.5 else page_url
            if rng.random() < 0.35:
                builder.post(tracker, beacon_uri, beacon_ref,
                             size=int(rng.integers(0, 400)))
            else:
                builder.get(tracker, beacon_uri, beacon_ref, "image/gif",
                            size=35, think=(0.01, 0.2))
        # Dead links and expired assets: the occasional 404.
        if rng.random() < 0.2:
            status = 404 if rng.random() < 0.8 else 500
            builder.error(host, self.forge.uri(depth=2, extension="png"),
                          page_url, status=status)
        return page_url

    def _maybe_ad_redirect(self, builder: "_SessionBuilder",
                           referrer: str) -> None:
        """Occasional 0–2-hop ad-click redirect (benign Table I: 0–2)."""
        rng = self.rng
        hops = bounded_int(rng, 0, BENIGN_PROFILE.redirects.high,
                           max(BENIGN_PROFILE.redirects.mean, 0.3))
        previous = referrer
        for _ in range(hops):
            tracker = self.forge.subdomain("doubleclick.net")
            target = self.forge.domain(tld="com")
            target_url = f"http://{target}/landing?utm={self.forge.token(6)}"
            builder.redirect(tracker, self.forge.uri(depth=1, query=True),
                             previous, target_url)
            previous = target_url
        if hops:
            final_host = previous.split("/")[2]
            self._page_load(builder, final_host, "/landing", previous, assets=3)

    # -- scenarios -----------------------------------------------------------

    def _search(self, builder: "_SessionBuilder") -> str:
        engine = self.forge.choice(SEARCH_ENGINES[:2])  # Google/Bing focus
        query_url = f"http://{engine}/search?q={self.forge.token(8)}"
        builder.get(engine, f"/search?q={self.forge.token(8)}", "",
                    "text/html", size=45_000, think=(5.0, 40.0))
        clicks = int(self.rng.integers(1, 3))
        for _ in range(clicks):
            site = self.forge.choice(ALEXA_SITES) if self.rng.random() < 0.6 \
                else self.forge.domain(tld="com")
            self._page_load(builder, site,
                            self.forge.uri(depth=2, extension="html"),
                            query_url, third_party=int(self.rng.integers(0, 3)))
        self._maybe_ad_redirect(builder, query_url)
        return engine

    def _social(self, builder: "_SessionBuilder") -> str:
        site = self.forge.choice(SOCIAL_SITES)
        feed_url = self._page_load(builder, site, "/feed", "", assets=6,
                                   third_party=2)
        # Likes / comments / presence pings: API POSTs.
        for _ in range(int(self.rng.integers(1, 4))):
            builder.post(site, f"/api/graphql?doc_id={self.forge.token(8)}",
                         feed_url, size=int(self.rng.integers(200, 3_000)))
        for _ in range(1):
            shared = self.forge.choice(ALEXA_SITES)
            self._page_load(builder, shared,
                            self.forge.uri(depth=2, extension="html"),
                            feed_url)
        return site

    def _webmail(self, builder: "_SessionBuilder") -> str:
        site = self.forge.choice(WEBMAIL_SITES)
        inbox_url = self._page_load(builder, site, "/mail/inbox", "",
                                    assets=8, third_party=1)
        # Mail sync / send: XHR POSTs to the mail API.
        for _ in range(int(self.rng.integers(1, 4))):
            builder.post(site, f"/sync?u=0&ik={self.forge.token(10)}",
                         inbox_url, size=int(self.rng.integers(100, 5_000)))
        # Attachment downloads: pdf / office doc / occasional exe — the
        # benign payload mix of Table I.
        rng = self.rng
        roll = rng.random()
        if roll < 0.45:
            ext, ctype = "pdf", "application/pdf"
        elif roll < 0.75:
            ext, ctype = "docx", "application/octet-stream"
        elif roll < 0.95:
            ext, ctype = "exe", "application/x-msdownload"
        else:
            ext, ctype = "jar", "application/java-archive"
        builder.get(site, f"/attachments/{self.forge.token(10)}.{ext}",
                    inbox_url, ctype,
                    size=int(rng.integers(30_000, 4_000_000)),
                    think=(15.0, 120.0))
        # The mailbox keeps living after the download: sync POSTs and
        # folder navigation continue (real webmail never goes quiet the
        # moment an attachment lands).
        for _ in range(int(rng.integers(1, 4))):
            builder.post(site, f"/sync?u=0&ik={self.forge.token(10)}",
                         inbox_url, size=int(rng.integers(100, 3_000)))
        if rng.random() < 0.6:
            builder.get(site, "/mail/folder/" + self.forge.token(6),
                        inbox_url, "text/html",
                        size=int(rng.integers(8_000, 60_000)),
                        think=(5.0, 45.0))
        return site

    def _video(self, builder: "_SessionBuilder") -> str:
        site = self.forge.choice(VIDEO_SITES)
        watch_url = self._page_load(builder, site,
                                    f"/watch?v={self.forge.token(8)}", "",
                                    assets=5, third_party=2)
        cdn = self.forge.subdomain("googlevideo.com")
        for _ in range(int(self.rng.integers(3, 10))):
            builder.get(cdn, self.forge.uri(depth=1, extension="ts", query=True),
                        watch_url, "video/mp2t",
                        size=int(self.rng.integers(500_000, 3_000_000)),
                        think=(4.0, 15.0))
        # Legacy flash players announce themselves on video sites too.
        if self.rng.random() < 0.3 and builder.transactions:
            builder.transactions[-1].request.headers.set(
                "X-Flash-Version", "22,0,0,209"
            )
        self._maybe_ad_redirect(builder, watch_url)
        return site

    def _alexa(self, builder: "_SessionBuilder") -> str:
        first = self.forge.choice(ALEXA_SITES)
        url = self._page_load(builder, first, "/", "",
                              third_party=int(self.rng.integers(0, 3)))
        for _ in range(int(self.rng.integers(0, 2))):
            nxt = self.forge.choice(ALEXA_SITES)
            url = self._page_load(builder, nxt,
                                  self.forge.uri(depth=1, extension="html"),
                                  url)
        return first

    def _email_link(self, builder: "_SessionBuilder") -> str:
        # Clicking a link embedded in an email: no referrer on first hop.
        site = self.forge.domain(tld="com")
        self._page_load(builder, site,
                        self.forge.uri(depth=2, extension="html"), "")
        return ""

    def _unofficial_download(self, builder: "_SessionBuilder") -> str:
        """FP hard case: benign freeware fetched from an unofficial mirror."""
        engine = self.forge.choice(SEARCH_ENGINES[:2])
        query_url = f"http://{engine}/search?q=free+software"
        builder.get(engine, "/search?q=free+software", "", "text/html",
                    size=40_000, think=(5.0, 30.0))
        mirror = self.forge.domain()  # random-TLD unofficial mirror
        page_url = self._page_load(builder, mirror, "/download.html",
                                   query_url, assets=4)
        # One interstitial redirect through an ad gateway, then the binary.
        gateway = self.forge.domain()
        target_url = f"http://{mirror}/files/setup_{self.forge.token(4)}.exe"
        builder.redirect(gateway, "/go?b=" + self.forge.token(6), page_url,
                         target_url)
        builder.get(mirror, f"/files/setup_{self.forge.token(4)}.exe",
                    page_url, "application/x-msdownload",
                    size=int(self.rng.integers(1_000_000, 30_000_000)),
                    think=(3.0, 20.0))
        return engine

    def _aggressive_ads(self, builder: "_SessionBuilder") -> str:
        """FP hard case: an ad-saturated page — redirect chains through
        trackers, machine-paced beacon storms to fresh ad hosts, dead
        creatives — the benign traffic shape closest to an exploit-kit
        run-up."""
        rng = self.rng
        site = self.forge.domain(tld="com")
        page = self._page_load(builder, site, "/article.html", "", assets=3)
        previous = page
        for _ in range(int(rng.integers(1, 3))):
            tracker = self.forge.subdomain("doubleclick.net")
            target = self.forge.domain()
            target_url = (
                f"http://{target}/click?d={self.forge.token(60)}"
            )
            builder.redirect(tracker, "/ddm/clk/" + self.forge.token(10),
                             previous, target_url)
            previous = target_url
        # Beacon storm: rapid-fire tracker hits on many fresh hosts.
        for _ in range(int(rng.integers(4, 10))):
            ad_host = self.forge.domain()
            blob = self.forge.token(int(rng.integers(30, 120)))
            if rng.random() < 0.4:
                builder.post(ad_host, f"/pixel?e={blob}", page,
                             size=int(rng.integers(0, 200)))
            elif rng.random() < 0.15:
                builder.error(ad_host, f"/creative/{blob}.js", page,
                              status=404)
            else:
                builder.get(ad_host, f"/imp?b={blob}", page, "image/gif",
                            size=43, think=(0.02, 0.4))
        return site

    def _torrent(self, builder: "_SessionBuilder") -> str:
        """FP hard case: very large video binaries, exceptionally long."""
        site = self.forge.domain()
        page = self._page_load(builder, site, "/browse", "")
        for _ in range(int(self.rng.integers(2, 6))):
            peer = self.forge.ip()
            builder.get(peer, self.forge.uri(depth=1, extension="bin"),
                        page, "application/octet-stream",
                        size=int(self.rng.integers(246_000_000, 1_100_000_000)),
                        think=(30.0, 300.0))
            # Tracker announce: a referrer-less POST to a raw IP —
            # statistically the shape of a C&C call-back.
            if self.rng.random() < 0.5:
                builder.post(self.forge.ip(),
                             f"/announce?info_hash={self.forge.token(20)}",
                             "", size=0)
        return site


class _SessionBuilder:
    """Accumulates transactions for one benign session."""

    def __init__(self, gen: BenignGenerator, victim: str, tick):
        self._gen = gen
        self._victim = victim
        self._tick = tick
        self.transactions: list[HttpTransaction] = []
        self._cdns: list[str] = []
        self._tracker: str | None = None
        self._cookies: dict[str, str] = {}

    def tracker_host(self) -> str:
        """The session's analytics tracker (one per session, like a
        site's single analytics provider)."""
        if self._tracker is None:
            self._tracker = self._gen.forge.choice(
                ("www.google-analytics.com", "stats.g.doubleclick.net",
                 "px.ads-twitter.com", "bat.bing.com")
            )
        return self._tracker

    def cdn_host(self) -> str:
        """A CDN host, drawn from a small per-session pool (real pages
        reuse the same two or three CDNs across loads)."""
        if len(self._cdns) < 1:
            self._cdns.append(
                self._gen.forge.subdomain(
                    self._gen.forge.choice(
                        ("akamai.net", "cloudfront.net", "googleapis.com")
                    )
                )
            )
        index = int(self._gen.rng.integers(0, len(self._cdns)))
        return self._cdns[index]

    def _headers(self, host: str, referrer: str) -> Headers:
        headers = Headers()
        headers.set("Host", host)
        headers.set("User-Agent", self._gen._ua)
        headers.set("Accept", "*/*")
        if referrer:
            headers.set("Referer", referrer)
        # Per-host session cookie, as any logged-in/stateful site sets —
        # this is the session-ID signal the paper's transaction grouping
        # keys on ([18], Section V-B).
        cookie = self._cookies.get(host)
        if cookie is None:
            cookie = self._gen.forge.token(16)
            self._cookies[host] = cookie
        headers.set("Cookie", f"sid={cookie}")
        return headers

    def get(self, host: str, uri: str, referrer: str, content_type: str,
            size: int, think: tuple[float, float]) -> None:
        """Emit one GET transaction with a 200 response."""
        req_ts = self._tick(*think)
        request = HttpRequest(
            method=HttpMethod.GET, uri=uri, host=host, client=self._victim,
            timestamp=req_ts, headers=self._headers(host, referrer),
        )
        res_headers = Headers()
        res_headers.set("Content-Type", content_type)
        res_headers.set("Content-Length", str(size))
        response = HttpResponse(
            status=200, timestamp=self._tick(0.01, 0.4), headers=res_headers
        )
        self.transactions.append(HttpTransaction(request, response))

    def post(self, host: str, uri: str, referrer: str, size: int) -> None:
        """Emit one POST beacon with a small 200/204 response."""
        req_ts = self._tick(0.05, 0.5)
        request = HttpRequest(
            method=HttpMethod.POST, uri=uri, host=host, client=self._victim,
            timestamp=req_ts, headers=self._headers(host, referrer),
            body=b"\x00" * min(size, 64),
        )
        res_headers = Headers()
        res_headers.set("Content-Type", "text/plain")
        res_headers.set("Content-Length", "2")
        status = 200 if self._gen.rng.random() < 0.8 else 204
        response = HttpResponse(
            status=status, timestamp=self._tick(0.01, 0.3),
            headers=res_headers,
        )
        self.transactions.append(HttpTransaction(request, response))

    def error(self, host: str, uri: str, referrer: str,
              status: int = 404) -> None:
        """Emit one GET answered by an error status."""
        req_ts = self._tick(0.02, 0.3)
        request = HttpRequest(
            method=HttpMethod.GET, uri=uri, host=host, client=self._victim,
            timestamp=req_ts, headers=self._headers(host, referrer),
        )
        res_headers = Headers()
        res_headers.set("Content-Type", "text/html")
        res_headers.set("Content-Length", "512")
        response = HttpResponse(
            status=status, timestamp=self._tick(0.01, 0.2),
            headers=res_headers,
        )
        self.transactions.append(HttpTransaction(request, response))

    def redirect(self, host: str, uri: str, referrer: str,
                 location: str) -> None:
        """Emit one GET answered by a 302 to ``location``."""
        req_ts = self._tick(0.1, 1.0)
        request = HttpRequest(
            method=HttpMethod.GET, uri=uri, host=host, client=self._victim,
            timestamp=req_ts, headers=self._headers(host, referrer),
        )
        res_headers = Headers()
        res_headers.set("Location", location)
        res_headers.set("Content-Length", "0")
        response = HttpResponse(
            status=302, timestamp=self._tick(0.01, 0.2), headers=res_headers
        )
        self.transactions.append(HttpTransaction(request, response))
