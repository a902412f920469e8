"""Regression tests: malformed requests get ``bad_request``, nothing else.

Each case here once slipped past the per-handler checks:

* an unknown ``cmd`` string was timed like a real command, so every
  new string grew a latency ring and a labeled histogram series;
* a wrong-typed ``create``/``vps`` threshold made ``float()`` raise
  ``TypeError``, answered as ``internal`` and counted as a dispatch
  failure;
* ``"dedup": "no"`` turned dedup *on* through ``bool("no")``;
* ``query`` accepted non-string state labels that ``ingest`` rejects.
"""

from __future__ import annotations

import pytest

from repro.serve import ServeClientError, ServeConfig
from repro.vps import VPPlan
from test_serve_server import ServerThread, connect

DISPATCH_ERRORS = 'serve_internal_errors_total{site="dispatch"}'


@pytest.fixture
def server(tmp_path):
    with ServerThread(ServeConfig(data_dir=tmp_path / "data", port=0)) as running:
        yield running


def plan_document() -> dict:
    return VPPlan(
        kept=("n1", "n3"),
        weights={"n1": 2.0, "n3": 1.0},
        total_networks=3,
        provenance={"series_sha256": "0" * 64},
    ).to_document()


def rejected(client, command: str, **fields) -> ServeClientError:
    with pytest.raises(ServeClientError) as caught:
        client.request(command, **fields)
    return caught.value


def test_unknown_commands_do_not_grow_latency_series(server):
    with connect(server) as client:
        for index in range(50):
            error = rejected(client, f"bogus{index}")
            assert error.code == "bad_request"
            assert "unknown command" in str(error)
        latency = client.stats()["latency"]
        assert not [name for name in latency if name.startswith("bogus")]
        assert 'command="bogus' not in client.metrics()


@pytest.mark.parametrize(
    "fields",
    [
        {"event_threshold": None},
        {"mode_threshold": [1]},
        {"event_threshold": "0.1"},
        {"dedup": "no"},
        {"dedup": None},
    ],
)
def test_create_wrong_typed_field_is_bad_request(server, fields):
    with connect(server) as client:
        error = rejected(
            client, "create", monitor="svc", networks=["n1", "n2"], **fields
        )
        assert error.code == "bad_request"
        assert client.list_monitors() == []
        assert DISPATCH_ERRORS not in client.metrics()


@pytest.mark.parametrize(
    "fields",
    [
        {"event_threshold": None},
        {"mode_threshold": [1]},
        {"dedup": "no"},
    ],
)
def test_vps_wrong_typed_field_is_bad_request(server, fields):
    with connect(server) as client:
        error = rejected(client, "vps", monitor="svc", plan=plan_document(), **fields)
        assert error.code == "bad_request"
        assert client.list_monitors() == []
        assert DISPATCH_ERRORS not in client.metrics()


def test_dedup_flag_is_honoured_as_given(server):
    with connect(server) as client:
        client.request("create", monitor="plain", networks=["n1"], dedup=False)
        assert client.dedup("plain")["mode"] == "off"
        client.vps("planned", plan=plan_document(), dedup=False)
        assert client.dedup("planned")["mode"] == "off"


def test_query_states_must_map_to_strings(server):
    with connect(server) as client:
        client.create("svc", ["a", "b"])
        error = rejected(client, "query", monitor="svc", states={"a": 1})
        assert error.code == "bad_request"
        ingest_error = rejected(
            client, "ingest", monitor="svc", states={"a": 1}, time="2025-01-01T00:00:00"
        )
        assert ingest_error.code == "bad_request"
        assert client.query("svc", {"a": "x"})["match"]["would_open_new_mode"]
