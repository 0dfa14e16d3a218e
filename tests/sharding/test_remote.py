"""Unit tests for the remote object-store layer: retry policy, HTTP
client, fault injection, and the hardened store I/O built on them."""

import pytest

from repro.dataset import Table
from repro.errors import TableError
from repro.sharding import (
    FAULT_KINDS,
    FaultInjectingClient,
    HttpObjectClient,
    LocalObjectClient,
    ObjectChecksumError,
    ObjectShardStore,
    ObjectStoreError,
    RetryPolicy,
)
from repro.sharding.devserver import ObjectHTTPServer

#: retries without real sleeping — every unit test runs under this
FAST = RetryPolicy(max_attempts=3, base_delay=0.0)


def make_shard(values):
    return Table.from_rows(["code", "label"], values)


SHARD_A = [["10", "x"], ["20", "y"]]


@pytest.fixture(scope="module")
def server():
    with ObjectHTTPServer() as running:
        yield running


@pytest.fixture
def http_client(server):
    client = HttpObjectClient(server.url)
    yield client
    for key in client.list():
        client.delete(key)


# -- RetryPolicy ------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_sequence_is_deterministic_under_a_seed(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=10.0, seed=42
        )
        first = list(policy.delays())
        second = list(policy.delays())
        assert first == second
        assert len(first) == 4
        # exponential growth survives the jitter: each pause is at least
        # the unjittered delay and at most 1.5x it
        for i, pause in enumerate(first):
            unjittered = 0.1 * 2.0**i
            assert unjittered <= pause <= 1.5 * unjittered

    def test_max_delay_caps_every_pause(self):
        policy = RetryPolicy(max_attempts=6, base_delay=1.0, max_delay=0.05, seed=1)
        assert all(pause <= 0.05 for pause in policy.delays())

    def test_success_passes_through(self):
        assert FAST.run(lambda: "value") == "value"

    def test_transient_failure_is_retried_then_succeeds(self):
        calls = {"n": 0}
        retries = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ObjectStoreError("transient", key="k", transient=True)
            return "healed"

        result = FAST.run(flaky, on_retry=retries.append)
        assert result == "healed"
        assert calls["n"] == 3
        assert len(retries) == 2

    def test_exhaustion_raises_a_clean_object_store_error(self):
        def always_fails():
            raise ObjectStoreError("backend melted", key="shards/x.csv")

        with pytest.raises(ObjectStoreError) as excinfo:
            FAST.run(always_fails, what="shard object shards/x.csv unreadable")
        message = str(excinfo.value)
        assert "shard object shards/x.csv unreadable after 3 attempts" in message
        assert "backend melted" in message
        assert excinfo.value.key == "shards/x.csv"
        assert excinfo.value.attempts == 3

    def test_non_idempotent_operations_never_retry(self):
        calls = {"n": 0}

        def failing():
            calls["n"] += 1
            raise ObjectStoreError("boom")

        with pytest.raises(ObjectStoreError, match="boom"):
            FAST.run(failing, idempotent=False)
        assert calls["n"] == 1

    def test_only_object_store_errors_are_retried(self):
        calls = {"n": 0}

        def raises_value_error():
            calls["n"] += 1
            raise ValueError("a bug, not an outage")

        with pytest.raises(ValueError):
            FAST.run(raises_value_error)
        assert calls["n"] == 1

    def test_sleep_is_injectable_and_receives_the_pauses(self):
        pauses = []
        policy = RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0)

        def failing():
            raise ObjectStoreError("down")

        with pytest.raises(ObjectStoreError):
            policy.run(failing, sleep=pauses.append)
        assert pauses == [0.1, 0.2]

    def test_bad_parameters_rejected(self):
        with pytest.raises(TableError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(TableError, match="delays"):
            RetryPolicy(base_delay=-1.0)


# -- HttpObjectClient -------------------------------------------------------------


class TestHttpObjectClient:
    def test_put_get_delete_roundtrip(self, http_client):
        http_client.put("ds/shard_000000.shard", b"10,x\r\n20,y\r\n")
        assert http_client.get("ds/shard_000000.shard") == b"10,x\r\n20,y\r\n"
        http_client.delete("ds/shard_000000.shard")
        with pytest.raises(ObjectStoreError, match="HTTP 404"):
            http_client.get("ds/shard_000000.shard")

    def test_delete_of_absent_object_is_idempotent(self, http_client):
        http_client.delete("never/was.csv")  # no raise

    def test_list_filters_by_prefix(self, http_client):
        http_client.put("a/one.csv", b"1")
        http_client.put("a/two.csv", b"2")
        http_client.put("b/three.csv", b"3")
        assert http_client.list("a/") == ["a/one.csv", "a/two.csv"]
        assert http_client.list() == ["a/one.csv", "a/two.csv", "b/three.csv"]

    def test_range_read_fetches_a_partial_shard(self, http_client):
        http_client.put("ds/big.csv", b"0123456789abcdef")
        assert http_client.get_range("ds/big.csv", 0, 4) == b"0123"
        assert http_client.get_range("ds/big.csv", 10, 6) == b"abcdef"
        # a tail read past the end returns what exists
        assert http_client.get_range("ds/big.csv", 12, 100) == b"cdef"
        assert http_client.get_range("ds/big.csv", 3, 0) == b""

    def test_range_read_falls_back_when_server_ignores_range(self, http_client):
        # the client must slice a full 200 response itself
        class NoRangeClient(HttpObjectClient):
            def _request(self, method, url, key, data=None, headers=None, **kw):
                headers = dict(headers or {})
                headers.pop("Range", None)
                return super()._request(method, url, key, data, headers, **kw)

        fallback = NoRangeClient(http_client.base_url)
        fallback.put("ds/full.csv", b"0123456789")
        assert fallback.get_range("ds/full.csv", 2, 3) == b"234"

    def test_invalid_range_rejected(self, http_client):
        with pytest.raises(ObjectStoreError, match="invalid range"):
            http_client.get_range("ds/big.csv", -1, 4)

    def test_awkward_keys_are_quoted(self, http_client):
        http_client.put("ds/with space+plus.csv", b"data")
        assert http_client.get("ds/with space+plus.csv") == b"data"

    def test_missing_object_is_a_permanent_error(self, http_client):
        with pytest.raises(ObjectStoreError) as excinfo:
            http_client.get("gone.csv")
        assert not excinfo.value.transient
        assert excinfo.value.key == "gone.csv"

    def test_server_5xx_is_a_transient_error(self, server, http_client):
        http_client.put("ds/flaky.csv", b"bytes")
        server.fail_next_with(503)
        with pytest.raises(ObjectStoreError) as excinfo:
            http_client.get("ds/flaky.csv")
        assert excinfo.value.transient
        assert "HTTP 503" in str(excinfo.value)
        # the outage was one request long; the object is still there
        assert http_client.get("ds/flaky.csv") == b"bytes"

    def test_unreachable_server_surfaces_a_clean_error(self):
        # a closed loopback port: connection refused must arrive as an
        # ObjectStoreError, never a raw socket/OS error
        client = HttpObjectClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(ObjectStoreError) as excinfo:
            client.get("any.csv")
        assert excinfo.value.transient

    def test_invalid_url_and_keys_rejected(self):
        with pytest.raises(ObjectStoreError, match="http"):
            HttpObjectClient("ftp://objects.example")
        client = HttpObjectClient("http://127.0.0.1:9")
        for key in ("", "/abs", "../escape", "a/../b", ".hidden"):
            with pytest.raises(ObjectStoreError, match="invalid object key"):
                client.get(key)


# -- FaultInjectingClient ---------------------------------------------------------


class TestFaultInjectingClient:
    def local(self, tmp_path, **kwargs):
        return FaultInjectingClient(LocalObjectClient(tmp_path / "objects"), **kwargs)

    def test_scripted_transient_and_timeout_fire_once(self, tmp_path):
        client = self.local(
            tmp_path, script=[("get", "transient"), ("get", "timeout")]
        )
        client.put("k.csv", b"payload")
        with pytest.raises(ObjectStoreError, match="HTTP 503"):
            client.get("k.csv")
        with pytest.raises(ObjectStoreError, match="timed out"):
            client.get("k.csv")
        assert client.get("k.csv") == b"payload"  # script exhausted
        assert client.faults == {"transient": 1, "timeout": 1}

    def test_scripted_drop_reads_as_missing(self, tmp_path):
        client = self.local(tmp_path, script=[("get", "drop")])
        client.put("k.csv", b"payload")
        with pytest.raises(ObjectStoreError, match="not visible yet"):
            client.get("k.csv")
        assert client.get("k.csv") == b"payload"

    def test_scripted_truncate_halves_the_bytes(self, tmp_path):
        client = self.local(tmp_path, script=[("get", "truncate")])
        client.put("k.csv", b"0123456789")
        assert client.get("k.csv") == b"01234"
        assert client.get("k.csv") == b"0123456789"

    def test_scripted_bitflip_flips_exactly_one_bit(self, tmp_path):
        client = self.local(tmp_path, seed=5, script=[("get", "bitflip")])
        client.put("k.csv", b"0123456789")
        corrupted = client.get("k.csv")
        assert corrupted != b"0123456789"
        assert len(corrupted) == 10
        diff = [a ^ b for a, b in zip(corrupted, b"0123456789")]
        assert sum(bin(d).count("1") for d in diff) == 1
        assert client.get("k.csv") == b"0123456789"

    def test_scripted_slow_uses_the_injected_sleep(self, tmp_path):
        pauses = []
        client = self.local(
            tmp_path,
            script=[("get", "slow")],
            slow_delay=0.25,
            sleep=pauses.append,
        )
        client.put("k.csv", b"payload")
        assert client.get("k.csv") == b"payload"  # slow, but correct
        assert pauses == [0.25]
        assert client.faults == {"slow": 1}

    def test_script_waits_for_the_matching_operation(self, tmp_path):
        client = self.local(tmp_path, script=[("put", "transient")])
        # a get does not consume the scripted put fault
        with pytest.raises(ObjectStoreError, match="could not be read"):
            client.get("absent.csv")
        with pytest.raises(ObjectStoreError, match="HTTP 503"):
            client.put("k.csv", b"payload")
        client.put("k.csv", b"payload")

    def test_corruption_faults_degrade_to_transient_on_writes(self, tmp_path):
        # a corrupted upload must fail loudly (and retryably), never
        # store silently wrong bytes that poison the shard forever
        client = self.local(
            tmp_path, script=[("put", "bitflip"), ("put", "truncate")]
        )
        for _ in range(2):
            with pytest.raises(ObjectStoreError, match="HTTP 503"):
                client.put("k.csv", b"payload")
        client.put("k.csv", b"payload")
        assert client.get("k.csv") == b"payload"
        assert client.faults == {"transient": 2}

    def test_seeded_random_faults_are_reproducible(self, tmp_path):
        def fault_sequence(root):
            client = FaultInjectingClient(
                LocalObjectClient(root), seed=99, fault_rate=0.5
            )
            client.inner.put("k.csv", b"0123456789")
            observed = []
            for _ in range(30):
                try:
                    observed.append(client.get("k.csv"))
                except ObjectStoreError as exc:
                    observed.append(str(exc))
            return observed, dict(client.faults)

        first = fault_sequence(tmp_path / "one")
        second = fault_sequence(tmp_path / "two")
        assert first == second
        assert sum(first[1].values()) > 0

    def test_operation_counters_track_calls(self, tmp_path):
        client = self.local(tmp_path)
        client.put("k.csv", b"d")
        client.get("k.csv")
        client.get_range("k.csv", 0, 1)
        client.list()
        client.delete("k.csv")
        assert client.operations == {
            "put": 1,
            "get": 1,
            "get_range": 1,
            "list": 1,
            "delete": 1,
        }
        assert client.total_faults == 0

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(TableError, match="fault_rate"):
            self.local(tmp_path, fault_rate=1.5)
        with pytest.raises(TableError, match="unknown fault kind"):
            self.local(tmp_path, kinds=("transient", "meteor"))
        client = self.local(tmp_path, script=[("get", "meteor")])
        with pytest.raises(TableError, match="unknown scripted fault kind"):
            client.get("k.csv")

    def test_every_fault_kind_is_exercised_above(self):
        assert set(FAULT_KINDS) == {
            "transient",
            "timeout",
            "drop",
            "truncate",
            "bitflip",
            "slow",
        }


# -- hardened store I/O over faulty clients ---------------------------------------


class TestStoreRetriesAndErrors:
    def test_transient_put_failure_is_retried_not_lost(self, tmp_path):
        # regression: puts used to go out un-retried, so one transient
        # failure lost the shard and poisoned the whole upload
        client = FaultInjectingClient(
            LocalObjectClient(tmp_path / "objects"),
            script=[("put", "transient")],
        )
        store = ObjectShardStore(client=client, retry_policy=FAST)
        store.append(make_shard(SHARD_A))
        assert store.retried_puts == 1
        assert store.n_shards == 1
        assert store.get(0).column("code") == ["10", "20"]

    def test_put_retry_exhaustion_surfaces_key_and_attempts(self, tmp_path):
        client = FaultInjectingClient(
            LocalObjectClient(tmp_path / "objects"),
            script=[("put", "transient")] * 5,
        )
        store = ObjectShardStore(client=client, retry_policy=FAST)
        with pytest.raises(ObjectStoreError) as excinfo:
            store.append(make_shard(SHARD_A))
        message = str(excinfo.value)
        assert "shards/shard_000000.shard" in message
        assert "after 3 attempts" in message
        assert store.n_shards == 0  # the failed shard was not recorded

    def test_failed_put_cleans_up_the_partial_object(self, tmp_path):
        # a put that writes bytes and *then* fails must not leave the
        # partial object behind the store's back
        class TornPutClient(LocalObjectClient):
            def put(self, key, data):
                super().put(key, data[: len(data) // 2])
                raise ObjectStoreError(f"connection reset writing {key!r}", key=key)

        client = TornPutClient(tmp_path / "objects")
        store = ObjectShardStore(client=client, retry_policy=RetryPolicy(max_attempts=1))
        with pytest.raises(ObjectStoreError, match="connection reset"):
            store.append(make_shard(SHARD_A))
        assert client.list() == []

    def test_checksum_error_names_key_digests_and_attempts(self, tmp_path):
        # satellite regression: a corrupted shard must be diagnosable
        # from the message alone
        store = ObjectShardStore(root=tmp_path / "objects", retry_policy=FAST)
        store.append(make_shard(SHARD_A))
        store.client.put("shards/shard_000000.shard", b"99,x\r\n20,y\r\n")
        with pytest.raises(ObjectStoreError) as excinfo:
            store.get(0)
        message = str(excinfo.value)
        assert "shards/shard_000000.shard" in message
        assert "after 3 attempts" in message
        assert "expected sha256" in message and "got" in message
        assert excinfo.value.key == "shards/shard_000000.shard"
        assert excinfo.value.attempts == 3
        cause = excinfo.value.__cause__
        assert isinstance(cause, ObjectChecksumError)
        assert cause.expected != cause.actual

    def test_bitflip_and_truncation_heal_through_retries(self, tmp_path):
        client = FaultInjectingClient(
            LocalObjectClient(tmp_path / "objects"),
            seed=3,
            script=[("get", "bitflip"), ("get", "truncate"), ("get", "drop")],
        )
        store = ObjectShardStore(
            client=client, retry_policy=RetryPolicy(max_attempts=4, base_delay=0.0)
        )
        store.append(make_shard(SHARD_A))
        assert store.get(0).column("code") == ["10", "20"]
        assert store.retried_reads == 3

    def test_store_over_http_client_roundtrips(self, server):
        store = ObjectShardStore(
            client=HttpObjectClient(server.url),
            owns_client=True,
            prefix="roundtrip",
            retry_policy=FAST,
        )
        awkward = [
            ["has,comma", 'has "quote"'],
            ["multi\nline", ""],
            ["  padded  ", "naïve·unicode"],
        ]
        store.append(make_shard(awkward))
        assert [list(row) for row in store.get(0).iter_rows()] == awkward
        assert "roundtrip/shard_000000.shard" in server.objects
        store.close()
        # the store owns its remote namespace: close() deletes its objects
        assert not any(key.startswith("roundtrip/") for key in server.objects)

    def test_close_keeps_objects_of_an_unowned_namespace(self, server):
        client = HttpObjectClient(server.url)
        store = ObjectShardStore(client=client, prefix="kept", retry_policy=FAST)
        store.append(make_shard(SHARD_A))
        store.close()
        assert "kept/shard_000000.shard" in server.objects
        client.delete("kept/shard_000000.shard")

    def test_close_deletes_objects_despite_a_flaky_client(self, server):
        # close-time deletes are idempotent, so transient faults heal
        # through the retry policy: a flaky backend leaks nothing
        client = FaultInjectingClient(
            HttpObjectClient(server.url),
            script=[("delete", "transient"), ("delete", "timeout")],
        )
        store = ObjectShardStore(
            client=client,
            owns_client=True,
            prefix="flakyclose",
            retry_policy=FAST,
        )
        store.append(make_shard(SHARD_A))
        store.append(make_shard(SHARD_A))
        store.close()  # no raise; both delete faults heal via retries
        assert not any(k.startswith("flakyclose/") for k in server.objects)

    def test_local_client_close_is_idempotent_and_error_proof(self, tmp_path):
        client = LocalObjectClient()
        root = client.root
        client.put("k.csv", b"d")
        client.close()
        client.close()
        assert not root.exists()


# -- the devserver fixture itself -------------------------------------------------


class TestObjectHTTPServer:
    def test_url_and_objects_require_a_running_server(self):
        stopped = ObjectHTTPServer()
        with pytest.raises(RuntimeError, match="not running"):
            stopped.url
        with pytest.raises(RuntimeError, match="not running"):
            stopped.objects

    def test_start_is_idempotent_and_stop_releases_the_port(self):
        fixture = ObjectHTTPServer()
        fixture.start()
        url = fixture.url
        assert fixture.start() is fixture
        assert fixture.url == url
        fixture.stop()
        fixture.stop()  # idempotent

    def test_object_count_tracks_the_dict(self, server, http_client):
        before = server.object_count()
        http_client.put("count/me.csv", b"1")
        assert server.object_count() == before + 1
        http_client.delete("count/me.csv")
        assert server.object_count() == before
