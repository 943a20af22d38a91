"""End-to-end campaign service tests (in-process server, real HTTP).

The load-bearing assertions of the serving PR live here:

* N concurrent identical manifests -> exactly one executed golden run
  (the rest coalesce), all responses byte-identical;
* served bytes == offline ``repro-lid`` CLI bytes for the same work;
* served ledger records carry the same content-addressed ``run_id`` as
  the offline CLI's ``--ledger`` records, and coalesced/cached
  requests do not duplicate records;
* backpressure surfaces as 429 (rate) / 503 (queue depth);
* NDJSON streaming delivers progress events and the identical body.
"""

import http.client
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.serve import (
    CampaignScheduler,
    ServeOutcome,
    start_in_thread,
)

SMOKE = {"kind": "campaign", "smoke": True, "format": "json"}


@pytest.fixture
def server(tmp_path):
    """Thread-mode server with its own cache dir and ledger."""
    scheduler = CampaignScheduler(
        mode="thread", jobs=2,
        cache_dir=str(tmp_path / "serve-cache"),
        ledger=str(tmp_path / "serve-ledger.jsonl"))
    handle = start_in_thread(scheduler, port=0)
    try:
        yield handle
    finally:
        handle.stop()


def post(handle, body, path="/v1/run", headers=None, timeout=120):
    conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                      timeout=timeout)
    try:
        conn.request("POST", path, body=json.dumps(body),
                     headers=headers or {})
        response = conn.getresponse()
        return (response.status, dict(response.getheaders()),
                response.read())
    finally:
        conn.close()


def get(handle, path):
    conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                      timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def offline_bytes(tmp_path, argv, name="offline.out"):
    """Run the offline CLI and capture the report bytes it writes."""
    out = tmp_path / name
    assert main(argv + ["-o", str(out)]) == 0
    return out.read_bytes()


class TestRoutes:
    def test_healthz(self, server):
        status, body = get(server, "/healthz")
        assert status == 200 and json.loads(body) == {"status": "ok"}

    def test_stats_shape(self, server):
        status, body = get(server, "/v1/stats")
        payload = json.loads(body)
        assert status == 200
        assert payload["schema"] == "repro-lid-serve-stats/v1"
        assert set(payload["serve"]) >= {"requests", "hits",
                                         "coalesced", "executed"}

    def test_unknown_route_404(self, server):
        status, _h, body = post(server, SMOKE, path="/v2/run")
        assert status == 404 and b"error" in body

    def test_get_on_run_405(self, server):
        status, _body = get(server, "/v1/run")
        assert status == 405

    def test_bad_json_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("POST", "/v1/run", body=b"{nope")
            response = conn.getresponse()
            assert response.status == 400
            response.read()
        finally:
            conn.close()

    def test_invalid_manifest_400(self, server):
        status, _h, body = post(server, {"kind": "campaign",
                                         "faults": "bogus"})
        assert status == 400
        assert "fault" in json.loads(body)["error"]

    @pytest.mark.parametrize("manifest", [
        {"kind": "deadlock", "deadlock_backend": "codegen",
         "topology": "gals-chain:rates=1+1/2,depth=2"},
        {"kind": "campaign", "engine": "skeleton", "backend": "bitsim",
         "smoke": True, "topology": "gals-ring:rates=1+2/3,depth=2"},
    ], ids=["deadlock-codegen", "campaign-bitsim"])
    def test_capability_refusal_400(self, server, manifest):
        """A backend that cannot run the design is the client's
        error (400), not a worker failure (500)."""
        status, _h, body = post(server, manifest)
        assert status == 400
        assert "multi-clock" in json.loads(body)["error"]

    def test_kind_route_aliases(self, server):
        status, headers, body = post(server, {"topology": "feedback"},
                                     path="/v1/deadlock")
        assert status == 200
        assert headers["X-Repro-Exit"] == "0"
        assert body.startswith(b"live:")


class TestCoalescingAndParity:
    def test_concurrent_identical_one_golden_run(self, server,
                                                 tmp_path):
        """The tentpole assertion: K identical concurrent manifests ->
        exactly one execution, byte-identical responses, one ledger
        record."""
        k = 6
        with ThreadPoolExecutor(max_workers=k) as pool:
            results = list(pool.map(lambda _: post(server, SMOKE),
                                    range(k)))
        statuses = {status for status, _h, _b in results}
        bodies = {body for _s, _h, body in results}
        sources = sorted(h["X-Repro-Cache"] for _s, h, _b in results)
        assert statuses == {200}
        assert len(bodies) == 1, "responses must be byte-identical"
        assert sources.count("miss") == 1
        assert sources.count("coalesced") + sources.count("hit") == k - 1

        stats = server.server.scheduler.stats
        assert stats.executed == 1, "exactly one golden simulation"
        assert stats.coalesced + stats.hits == k - 1

        ledger = server.server.scheduler.ledger
        records = [json.loads(line) for line
                   in open(ledger, encoding="utf-8")]
        assert len(records) == 1, "coalesced requests add no records"

        # Byte-identity with the offline CLI for the same manifest.
        offline = offline_bytes(
            tmp_path, ["inject", "--smoke", "--format", "json"])
        assert bodies == {offline}
        # ...and identity-parity: same content-addressed run id.
        run_id = {h["X-Repro-Run-Id"] for _s, h, _b in results}
        assert run_id == {records[0]["run_id"]}

    def test_warm_requests_hit_response_cache(self, server):
        first = post(server, SMOKE)
        second = post(server, SMOKE)
        assert first[1]["X-Repro-Cache"] == "miss"
        assert second[1]["X-Repro-Cache"] == "hit"
        assert first[2] == second[2]
        assert server.server.scheduler.stats.executed == 1

    def test_formats_cached_separately(self, server):
        js = post(server, SMOKE)
        table = post(server, dict(SMOKE, format="table"))
        assert js[2] != table[2]
        assert js[1]["X-Repro-Span"] == table[1]["X-Repro-Span"]
        assert server.server.scheduler.stats.executed == 2

    def test_deadlock_parity_with_cli(self, server, capsys):
        status, headers, body = post(
            server, {"kind": "deadlock", "topology": "feedback"})
        assert main(["deadlock", "feedback"]) == 0
        offline = capsys.readouterr().out
        assert status == 200
        assert body.decode() == offline
        assert headers["X-Repro-Exit"] == "0"

    def test_series_parity_with_cli(self, server, tmp_path, capsys):
        from repro.analysis.sweep import SERIES_GENERATORS

        which = sorted(SERIES_GENERATORS)[0]
        status, _headers, body = post(server, {"kind": "series",
                                               "which": which})
        assert main(["series", which]) == 0
        offline = capsys.readouterr().out
        assert status == 200 and body.decode() == offline


class TestBackpressure:
    def test_rate_limit_429(self, tmp_path):
        scheduler = CampaignScheduler(
            mode="thread", cache_dir=str(tmp_path / "cache"))
        handle = start_in_thread(scheduler, port=0, rate=0.001,
                                 burst=2.0)
        try:
            codes = []
            for _ in range(4):
                status, headers, _body = post(
                    handle, {"kind": "series", "which": "nope"},
                    headers={"X-Repro-Client": "c1"})
                codes.append((status, "Retry-After" in headers))
            # Two tokens spend on (invalid) manifests, then 429s.
            assert codes[:2] == [(400, False), (400, False)]
            assert codes[2:] == [(429, True), (429, True)]
            # A different client has its own bucket.
            status, _h, _b = post(handle,
                                  {"kind": "series", "which": "nope"},
                                  headers={"X-Repro-Client": "c2"})
            assert status == 400
            assert handle.server.scheduler.stats.rejected_rate == 2
        finally:
            handle.stop()

    def test_queue_depth_503_but_followers_pass(self, tmp_path,
                                                monkeypatch):
        """With depth 1 and a slow run in flight: a *distinct* manifest
        is bounced 503, an *identical* one coalesces (it adds no
        work)."""
        from repro.serve import scheduler as scheduler_mod

        release = threading.Event()
        entered = threading.Event()

        def slow_execute(manifest, **kwargs):
            entered.set()
            assert release.wait(30)
            return ServeOutcome(body=b"done\n",
                                content_type="text/plain",
                                exit_code=0,
                                span=f"span-{manifest.seed}")

        monkeypatch.setattr(scheduler_mod, "execute_manifest",
                            slow_execute)
        scheduler = CampaignScheduler(
            mode="thread", jobs=2, queue_depth=1,
            cache_dir=str(tmp_path / "cache"))
        # Pin span computation so the response-cache key matches the
        # fake outcome: whatever the interleaving, an identical request
        # either coalesces or hits the cache — never re-executes.
        scheduler._span = lambda manifest: f"span-{manifest.seed}"
        handle = start_in_thread(scheduler, port=0)
        try:
            first = []
            leader = threading.Thread(
                target=lambda: first.append(post(handle, SMOKE)))
            leader.start()
            assert entered.wait(30), "leader must reach execution"

            status, headers, _body = post(
                handle, dict(SMOKE, seed=99))  # distinct -> new work
            assert status == 503
            assert "Retry-After" in headers

            follower = []
            follower_thread = threading.Thread(
                target=lambda: follower.append(post(handle, SMOKE)))
            follower_thread.start()
            release.set()
            leader.join(30)
            follower_thread.join(30)
            assert first[0][0] == follower[0][0] == 200
            assert first[0][2] == follower[0][2] == b"done\n"
            sources = {first[0][1]["X-Repro-Cache"],
                       follower[0][1]["X-Repro-Cache"]}
            # The second identical request either coalesced onto the
            # in-flight run or (if it arrived after publication) hit
            # the response cache — never a second execution.
            assert "miss" in sources and sources <= {"miss",
                                                     "coalesced", "hit"}
            assert handle.server.scheduler.stats.executed == 1
            assert handle.server.scheduler.stats.rejected_queue == 1
        finally:
            release.set()
            handle.stop()


class TestStreaming:
    def test_ndjson_progress_then_identical_body(self, server):
        plain = post(server, dict(SMOKE, seed=5))
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=120)
        try:
            conn.request("POST", "/v1/run",
                         body=json.dumps(dict(SMOKE, seed=5,
                                              stream=True)))
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == \
                "application/x-ndjson"
            events = [json.loads(line) for line
                      in response.read().splitlines() if line.strip()]
        finally:
            conn.close()
        kinds = [event["event"] for event in events]
        assert kinds[-1] == "result"
        assert all(kind == "progress" for kind in kinds[:-1])
        assert len(kinds) > 1, "at least one progress tick"
        final = events[-1]
        assert final["body"].encode() == plain[2]
        assert final["run_id"] == plain[1]["X-Repro-Run-Id"]
        assert final["exit_code"] == 0
        done = [event["done"] for event in events[:-1]]
        assert done == sorted(done), "progress is monotonic"

    def test_streamed_capability_refusal_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=120)
        try:
            conn.request("POST", "/v1/run", body=json.dumps({
                "kind": "deadlock", "deadlock_backend": "codegen",
                "topology": "gals-chain:rates=1+1/2,depth=2",
                "stream": True}))
            events = [json.loads(line) for line
                      in conn.getresponse().read().splitlines()
                      if line.strip()]
        finally:
            conn.close()
        assert events[-1]["event"] == "error"
        assert events[-1]["status"] == 400
