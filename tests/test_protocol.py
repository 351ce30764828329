"""Tests for the wire protocol's verb table (``repro.service.protocol``).

One :data:`VERBS` declaration drives request parsing, both servers'
handler registration, the client and ``repro ctl``.  These tests pin
the table's checks, the import-time tier coverage that replaced the
static drift checker, and the contract that malformed input gets a
structured error, never ``internal error:``, on a live daemon and a
live gateway.
"""

from __future__ import annotations

import ast
import importlib
import json
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.gateway import GatewayConfig, ThreadedGateway
from repro.gateway import server as gateway_server
from repro.service import (
    JobSpec,
    ProtocolError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    parse_request,
)
from repro.service import daemon as daemon_module
from repro.service.daemon import SchedulerService, ThreadedDaemon
from repro.service.protocol import (
    DAEMON,
    GATEWAY,
    MAX_ROUNDS,
    VERBS,
    VerbHandlers,
    check_job,
)

PROTOCOL_SOURCE = Path(daemon_module.__file__).with_name("protocol.py")

#: Values of the wrong JSON type, per declared type.
WRONG_VALUES = {
    int: ["x", True, 1.5],
    float: ["x", False, float("nan"), float("inf")],
    str: [7, ["a"]],
    bool: ["yes", 1],
    list: [5, "x"],
}

#: One valid job plus three bad slots, each of a different kind.
MIXED_BATCH = [
    {"job_id": "a", "model_name": "svm", "gpus_requested": 1, "max_iterations": 3},
    {"gpus_requested": "4"},
    {"model_name": "nope"},
    5,
]


class TestVerbTable:
    def test_every_verb_declared_exactly_once(self):
        tree = ast.parse(PROTOCOL_SOURCE.read_text(encoding="utf-8"))
        declared = [
            node.args[0].value
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "VerbSpec"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ]
        assert sorted(declared) == sorted(VERBS)
        assert len(declared) == len(set(declared))

    @pytest.mark.parametrize(
        "tier, handlers",
        [(DAEMON, daemon_module._verbs), (GATEWAY, gateway_server._verbs)],
    )
    def test_each_tier_handles_exactly_the_verbs_it_serves(self, tier, handlers):
        served = {name for name, spec in VERBS.items() if tier in spec.tiers}
        assert set(handlers.handlers) == served
        assert served  # a tier with nothing to serve is a table error

    def test_every_verb_has_a_client_method(self):
        assert [verb for verb in VERBS if not callable(getattr(ServiceClient, verb, None))] == []

    def test_tier_missing_a_handler_fails_at_import(self, tmp_path, monkeypatch):
        (tmp_path / "half_daemon.py").write_text(
            "from repro.service.protocol import VerbHandlers\n"
            "verbs = VerbHandlers('daemon')\n"
            "@verbs('ping')\n"
            "async def ping(server, request):\n"
            "    return {}\n"
            "verbs.complete()\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        with pytest.raises(ProtocolError, match="no handler"):
            importlib.import_module("half_daemon")
        sys.modules.pop("half_daemon", None)

    def test_handler_for_an_undeclared_or_foreign_verb_fails(self):
        with pytest.raises(ProtocolError):
            VerbHandlers(DAEMON)("fly")
        with pytest.raises(ProtocolError):
            VerbHandlers(GATEWAY)("faultctl")  # daemon-only


class TestParseRequest:
    def test_defaults_come_from_the_table(self):
        request = parse_request(b'{"op":"drain"}')
        assert request.params == {}
        assert request.arg("max_rounds") == 100_000

    def test_float_widens_int_and_int_rejects_bool(self):
        assert parse_request(b'{"op":"step","until":60}').params == {"until": 60.0}
        with pytest.raises(ProtocolError, match="'rounds' must be an integer"):
            parse_request(b'{"op":"step","rounds":true}')

    @pytest.mark.parametrize(
        "line, fragment",
        [
            (b'{"op":"drain","max_rounds":"abc"}', "'max_rounds'"),
            (b'{"op":"step","rounds":"x"}', "'rounds'"),
            (b'{"op":"faultctl","action":"server_crash","server_id":"a"}', "'server_id'"),
            (b'{"op":"cancel"}', "cancel requires job_id"),
            (b'{"op":"status","job":"a"}', "unknown status parameter 'job'"),
            (b'{"op":"step","until":5,"events":2}', "at most one of"),
            (b'{"op":"step","rounds":2,"events":2}', "at most one of"),
            (b'{"op":"step","until":NaN}', "'until' must be a finite number"),
            (b'{"op":"step","until":1e999}', "'until' must be a finite number"),
            (b'{"op":"faultctl","action":"x","slowdown":' + b"9" * 400 + b"}", "'slowdown'"),
        ],
    )
    def test_malformed_parameters_name_the_problem(self, line, fragment):
        with pytest.raises(ProtocolError, match=fragment):
            parse_request(line)


class TestJobCheck:
    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"gpus_requested": "4"}, "'gpus_requested' must be an integer"),
            ({"model_name": 7}, "'model_name' must be a string"),
            ({"model_name": "nope"}, "unknown model_name"),
            ({"job_id": 3}, "'job_id' must be a string"),
            ({"tenant": ["t"]}, "'tenant' must be a string"),
            ({"flavour": "spicy"}, "unknown job field 'flavour'"),
            ({"gpus_requested": 0}, "gpus_requested must be >= 1"),
            ({"trace_id": ""}, "trace_id must be a non-empty string"),
            (5, "a job must be an object"),
        ],
    )
    def test_bad_jobs_raise_protocol_error(self, payload, fragment):
        with pytest.raises(ProtocolError, match=fragment):
            check_job(payload)
        if isinstance(payload, dict):
            with pytest.raises(ProtocolError):
                JobSpec.from_payload(payload)

    def test_check_is_in_place_and_adds_nothing(self):
        payload = {"model_name": "mlp", "accuracy_requirement": 1}
        assert check_job(payload) is payload
        assert payload == {"model_name": "mlp", "accuracy_requirement": 1.0}
        assert type(payload["accuracy_requirement"]) is float

    def test_service_batch_fails_only_bad_slots(self):
        core = SchedulerService(ServiceConfig(round_interval=0.0))
        results = core.submit_batch(list(MIXED_BATCH))["results"]
        assert [r["status"] for r in results] == ["admitted", "error", "error", "error"]
        assert core.status("a")["state"] == "waiting"


@pytest.fixture(params=["daemon", "gateway"])
def live_target(request, tmp_path):
    """A live daemon or gateway (thread mode, deterministic stepping)."""
    if request.param == "daemon":
        config = ServiceConfig(socket_path=str(tmp_path / "d.sock"), round_interval=0.0)
        with ThreadedDaemon(config) as daemon:
            yield daemon.socket_path
    else:
        config = GatewayConfig(
            workers=2,
            spawn="thread",
            workdir=str(tmp_path / "gw"),
            round_interval=0.0,
            gossip_interval=0.0,
        )
        with ThreadedGateway(config) as gateway:
            yield gateway.target


class TestLiveTiers:
    def test_mixed_batch_admits_exactly_the_valid_slot(self, live_target):
        with ServiceClient(live_target) as client:
            results = client.submit_batch(MIXED_BATCH)
            assert [r["status"] for r in results] == ["admitted", "error", "error", "error"]
            assert "gpus_requested" in results[1]["error"]
            assert "model_name" in results[2]["error"]
            assert "object" in results[3]["error"]
            assert client.status("a")["job_id"] == "a"

    def test_malformed_parameters_never_reach_a_handler(self, live_target):
        """Every verb, every declared parameter, a wrong type; unknown keys;
        the step conflict.  Each gets ``ok: false`` naming the parameter,
        and the same connection still answers ``ping``."""
        cases = []
        for verb, spec in VERBS.items():
            cases.append((verb, {"bogus": 1}, "'bogus'"))
            for name, param in spec.params.items():
                for wrong in WRONG_VALUES[param.type]:
                    cases.append((verb, {name: wrong}, f"'{name}'"))
        cases.append(("step", {"until": 5.0, "events": 2}, "'until', 'events'"))
        with ServiceClient(live_target) as client:
            for verb, params, fragment in cases:
                with pytest.raises(ServiceError) as exc:
                    client.call(verb, **params)
                message = str(exc.value)
                assert fragment in message, (verb, params, message)
                assert not message.startswith("internal error"), (verb, params)
                assert client.ping()


    def test_step_counts_are_bounded(self, live_target):
        """``rounds`` and ``events`` outside ``[1, MAX_ROUNDS]`` are refused
        before any pass runs; the bounds themselves are accepted."""
        with ServiceClient(live_target) as client:
            for name in ("rounds", "events"):
                for value in (0, -1, MAX_ROUNDS + 1, 10**18):
                    with pytest.raises(ServiceError, match=f"step '{name}' must be in"):
                        client.call("step", **{name: value})
            # No refused request ran a pass: this step runs pass 0.
            result = client.call("step", rounds=1)
            partitions = result.get("partitions", {"": result})
            assert [r["round"] for r in partitions.values()] == [0] * len(partitions)
            client.call("step", events=MAX_ROUNDS)
            assert client.ping()


class TestErrorReplyIsNotADeadWorker:
    def test_refused_batch_keeps_the_partition_answering(self, tmp_path, monkeypatch):
        def refuse(self, payloads):
            raise ProtocolError("refused by the worker")

        monkeypatch.setattr(SchedulerService, "submit_batch", refuse)
        config = GatewayConfig(
            workers=2,
            spawn="thread",
            workdir=str(tmp_path / "gw"),
            round_interval=0.0,
            gossip_interval=0.0,
        )
        with ThreadedGateway(config) as gateway:
            with ServiceClient(gateway.target) as client:
                results = client.submit_batch([{"job_id": f"r{i}"} for i in range(6)])
                assert {r["status"] for r in results} == {"error"}
                assert all(r["error"] == "refused by the worker" for r in results)
                workers = client.workers()["workers"]
                assert all(w["answering"] for w in workers)
                gateway_metrics = client.metrics()["gateway"]
                assert gateway_metrics.get("gateway_forward_errors_total", 0.0) == 0.0


class TestCtl:
    def test_verbs_and_required_arguments_come_from_the_table(self, tmp_path, capsys):
        config = ServiceConfig(socket_path=str(tmp_path / "d.sock"), round_interval=0.0)
        with ThreadedDaemon(config) as daemon:
            sock = ["--socket", daemon.socket_path]
            for argv, message in [
                (["history"], "history requires job_id"),
                (["status", "--rounds", "2"], "unknown status parameter 'rounds'"),
                (["step", "--until", "60", "--events", "2"], "at most one of"),
                (["ping", "extra"], "unknown ping parameter"),
            ]:
                assert cli_main(["ctl", *sock, *argv]) == 1
                assert message in capsys.readouterr().err
            assert cli_main(["ctl", *sock, "step", "--until", "60"]) == 0
            assert json.loads(capsys.readouterr().out)["sim_time"] == 60.0
            assert cli_main(["ctl", *sock, "metrics", "--format", "prom"]) == 0
            assert "# TYPE" in capsys.readouterr().out
            assert cli_main(["ctl", *sock, "faultctl", "status"]) == 0
            assert "failed_servers" in json.loads(capsys.readouterr().out)
