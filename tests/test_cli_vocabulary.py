"""The console scripts' shared flag vocabulary.

One declaration per shared flag (``repro.cli.shared``,
``repro.cli.distargs``), one object built from it, and a pin of every
script's option surface as it stood before the CLIs were unified — so
"no flag added, removed or renamed" is checked, not promised.
"""

import importlib
import pickle

import pytest

from repro.core import LegFilter
from repro.net.inet import ipv4_to_int, ipv6_to_int, prefix_of

SCRIPTS = {
    "dart-replay": "replay",
    "dart-bench": "bench",
    "dart-detect": "detect",
    "dart-stream": "stream",
    "dart-agent": "agent",
    "dart-collector": "collector",
    "dart-matrix": "matrix",
}

SHARED_GROUPS = {
    "leg": ["--internal", "--leg"],
    "tables": ["--rt-slots", "--pt-slots", "--stages", "--recirc",
               "--handshake"],
    "export": ["--csv", "--jsonl", "--reports"],
    "shards": ["--shards", "--parallel"],
    "distribution": ["--hist-bins", "--hist-edges", "--quantiles",
                     "--hist-prefix", "--sketch-alpha"],
}

#: Carries the flag name but not the shared meaning: dart-bench's
#: --pt-slots is the fixed PT size of a stages/recirc sweep (default
#: 1024), not a table-group member.
OWN_MEANING = {("dart-bench", "--pt-slots")}

#: script -> flag(s) or positional -> (default, sorted choices, required),
#: captured from the commit before the CLIs shared one vocabulary.
PINNED_SURFACE = {'dart-replay': {'pcap': (None, None, True),
                 '--monitor': (None, ['dapper', 'dart', 'spinbit', 'strawman', 'tcptrace'], False),
                 '--internal': (None, None, False),
                 '--leg': ('both', ['both', 'external', 'internal'], False),
                 '--rt-slots': (None, None, False),
                 '--pt-slots': (None, None, False),
                 '--stages': (1, None, False),
                 '--recirc': (1, None, False),
                 '--handshake': (False, None, False),
                 '--shards': (1, None, False),
                 '--parallel': ('process', ['process', 'serial'], False),
                 '--dump': (False, None, False),
                 '--csv': (None, None, False),
                 '--jsonl': (None, None, False),
                 '--reports': (None, None, False),
                 '--flows': (0, None, False),
                 '--hist-bins': (None, None, False),
                 '--hist-edges': (None, None, False),
                 '--quantiles': (None, None, False),
                 '--hist-prefix': (24, None, False),
                 '--sketch-alpha': (0.01, None, False),
                 '--telemetry': ('off', ['json', 'off', 'prom'], False),
                 '--telemetry-interval': (1.0, None, False),
                 '--telemetry-out': (None, None, False)},
 'dart-bench': {'--sweep': ('pt-size', ['pt-size', 'recirc', 'stages'], False),
                '--monitor': (None, ['dapper', 'dart', 'strawman', 'tcptrace'], False),
                '--connections': (1000, None, False),
                '--seed': (11, None, False),
                '--pt-slots': (1024, None, False),
                '--shards': (1, None, False),
                '--parallel': ('process', ['process', 'serial'], False),
                '--hist-bins': (None, None, False),
                '--hist-edges': (None, None, False),
                '--quantiles': (None, None, False),
                '--hist-prefix': (24, None, False),
                '--sketch-alpha': (0.01, None, False),
                '--telemetry': ('off', ['json', 'off', 'prom'], False),
                '--telemetry-interval': (1.0, None, False),
                '--telemetry-out': (None, None, False)},
 'dart-detect': {'pcap': (None, None, True),
                 '--monitor': ('dart', ['dapper', 'dart', 'strawman', 'tcptrace'], False),
                 '--internal': (None, None, True),
                 '--prefix-len': (24, None, False),
                 '--window': (8, None, False),
                 '--rise-factor': (2.0, None, False),
                 '--telemetry': ('off', ['json', 'off', 'prom'], False),
                 '--telemetry-interval': (1.0, None, False),
                 '--telemetry-out': (None, None, False)},
 'dart-stream': {'pcap': (None, None, False),
                 '--inspect': (None, None, False),
                 '--monitor': ('dart', ['dapper', 'dart', 'strawman', 'tcptrace'], False),
                 '--follow': (False, None, False),
                 '--pace': (None, None, False),
                 '--internal': (None, None, False),
                 '--leg': ('both', ['both', 'external', 'internal'], False),
                 '--rt-slots': (None, None, False),
                 '--pt-slots': (None, None, False),
                 '--stages': (1, None, False),
                 '--recirc': (1, None, False),
                 '--handshake': (False, None, False),
                 '--window-samples': (None, None, False),
                 '--window-ms': (None, None, False),
                 '--window-prefix': (None, None, False),
                 '--retain-windows': (64, None, False),
                 '--csv': (None, None, False),
                 '--jsonl': (None, None, False),
                 '--reports': (None, None, False),
                 '--windows': (None, None, False),
                 '--checkpoint': (None, None, False),
                 '--checkpoint-interval': (30.0, None, False),
                 '--resume': (False, None, False),
                 '--rotation-records': (65536, None, False),
                 '--chunk-size': (8192, None, False),
                 '--max-records': (None, None, False),
                 '--poll-interval': (0.5, None, False),
                 '--idle-timeout': (None, None, False),
                 '--hist-bins': (None, None, False),
                 '--hist-edges': (None, None, False),
                 '--quantiles': (None, None, False),
                 '--hist-prefix': (24, None, False),
                 '--sketch-alpha': (0.01, None, False),
                 '--telemetry': ('off', ['json', 'off', 'prom'], False),
                 '--telemetry-interval': (1.0, None, False),
                 '--telemetry-out': (None, None, False)},
 'dart-agent': {'pcap': (None, None, False),
                '--inspect': (None, None, False),
                '--monitor': ('dart', ['dapper', 'dart', 'strawman', 'tcptrace'], False),
                '--follow': (False, None, False),
                '--pace': (None, None, False),
                '--internal': (None, None, False),
                '--leg': ('both', ['both', 'external', 'internal'], False),
                '--rt-slots': (None, None, False),
                '--pt-slots': (None, None, False),
                '--stages': (1, None, False),
                '--recirc': (1, None, False),
                '--handshake': (False, None, False),
                '--window-samples': (None, None, False),
                '--window-ms': (None, None, False),
                '--window-prefix': (None, None, False),
                '--retain-windows': (64, None, False),
                '--csv': (None, None, False),
                '--jsonl': (None, None, False),
                '--reports': (None, None, False),
                '--windows': (None, None, False),
                '--checkpoint': (None, None, False),
                '--checkpoint-interval': (30.0, None, False),
                '--resume': (False, None, False),
                '--rotation-records': (65536, None, False),
                '--chunk-size': (8192, None, False),
                '--max-records': (None, None, False),
                '--poll-interval': (0.5, None, False),
                '--idle-timeout': (None, None, False),
                '--hist-bins': (None, None, False),
                '--hist-edges': (None, None, False),
                '--quantiles': (None, None, False),
                '--hist-prefix': (24, None, False),
                '--sketch-alpha': (0.01, None, False),
                '--telemetry': ('off', ['json', 'off', 'prom'], False),
                '--telemetry-interval': (1.0, None, False),
                '--telemetry-out': (None, None, False),
                '--collector': (None, None, False),
                '--agent-id': (None, None, False),
                '--push-interval': (1.0, None, False),
                '--heartbeat-interval': (2.0, None, False)},
 'dart-collector': {'--listen': ('127.0.0.1:0', None, False),
                    '--port-file': (None, None, False),
                    '--http': ('127.0.0.1:0', None, False),
                    '--http-port-file': (None, None, False),
                    '--expect-agents': (None, None, False),
                    '--agent-timeout': (10.0, None, False),
                    '--rise-factor': (2.0, None, False),
                    '--baseline-windows': (3, None, False),
                    '--summary-json': (None, None, False),
                    '--summary-windows': (False, None, False)},
 'dart-matrix': {'--quick': (False, None, False),
                 '--seed': (1, None, False),
                 '--output': (None, None, False),
                 '--workload': (None, ['bulk', 'incast', 'video'], False),
                 '--cc': (None, ['bbr', 'cubic', 'reno'], False),
                 '--loss': (None, None, False),
                 '--reorder': (None, None, False),
                 '--no-check': (False, None, False),
                 '--min-ratio': (None, None, False),
                 '--max-p95-error': (2.0, None, False)}}


def parser_of(script):
    module = importlib.import_module(f"repro.cli.{SCRIPTS[script]}")
    parser = module.build_parser()
    assert parser.prog == script
    return parser


def actions_of(script):
    return {
        " ".join(action.option_strings) or action.dest: action
        for action in parser_of(script)._actions
        if action.dest != "help"
    }


class TestOneVocabulary:
    @pytest.mark.parametrize(
        "flag", [f for flags in SHARED_GROUPS.values() for f in flags])
    def test_shared_flag_means_the_same_everywhere(self, flag):
        carriers = {}
        for script in SCRIPTS:
            action = actions_of(script).get(flag)
            if action is not None and (script, flag) not in OWN_MEANING:
                carriers[script] = (action.type, action.default,
                                    action.choices, action.nargs,
                                    action.help)
        assert len(carriers) >= 2, f"{flag} is not shared: {list(carriers)}"
        assert len(set(map(repr, carriers.values()))) == 1, carriers

    @pytest.mark.parametrize("script", list(SCRIPTS))
    def test_option_surface_is_the_pinned_one(self, script):
        surface = {
            key: (action.default,
                  sorted(action.choices) if action.choices is not None
                  else None,
                  action.required)
            for key, action in actions_of(script).items()
        }
        assert surface == PINNED_SURFACE[script]

    def test_agent_accepts_everything_stream_does(self):
        stream, agent = actions_of("dart-stream"), actions_of("dart-agent")
        assert set(agent) - set(stream) == {
            "--collector", "--agent-id", "--push-interval",
            "--heartbeat-interval"}
        assert set(stream) <= set(agent)


CAPTURE_SCRIPTS = ["replay", "stream", "agent", "detect"]


class TestInternalPrefix:
    @pytest.mark.parametrize("bad", ["10.0.0.0/33", "notanip/8",
                                     "10.0.0.0/x"])
    @pytest.mark.parametrize("cli", CAPTURE_SCRIPTS)
    def test_malformed_prefix_is_a_usage_error(self, cli, bad, capsys):
        main = importlib.import_module(f"repro.cli.{cli}").main
        with pytest.raises(SystemExit) as info:
            main(["never-opened.pcap", "--internal", bad])
        assert info.value.code == 2
        assert ("argument --internal: expected a.b.c.d/len"
                in capsys.readouterr().err)


class Captured(Exception):
    pass


def built_filter(cli, argv, monkeypatch):
    """The leg filter ``cli`` builds for ``argv`` (the run is cut short
    at the moment the filter exists)."""
    from repro.cli import shared

    def capture(*args, **fields):
        raise Captured(LegFilter(*args, **fields))

    monkeypatch.setattr(shared, "LegFilter", capture)
    main = importlib.import_module(f"repro.cli.{cli}").main
    with pytest.raises(Captured) as info:
        main(["never-opened.pcap", *argv])
    return info.value.args[0]


def expected_leg(addr, prefix, legs):
    """The leg rule written out: a source inside the IPv4 prefix sends
    on the external leg; an IPv6 source is never inside it."""
    text, _, length = prefix.partition("/")
    length = int(length) if length else 32
    inside = (addr < (1 << 32) and prefix_of(addr, length)
              == prefix_of(ipv4_to_int(text), length))
    leg = "external" if inside else "internal"
    return leg if leg in legs else None


class TestOneLegFilter:
    SOURCES = [
        ipv4_to_int("10.1.2.3"),
        ipv4_to_int("10.2.0.1"),
        ipv4_to_int("192.0.2.7"),
        0,
        ipv6_to_int("2001:db8::1"),
        # An IPv6 address whose low 32 bits fall inside the prefix.
        ipv6_to_int("2001:db8::a01:203"),
    ]

    @pytest.mark.parametrize("prefix,leg", [
        ("10.1.0.0/16", "external"),
        ("10.1.0.0/16", "internal"),
        ("10.0.0.0/8", "both"),
        ("10.1.2.3", "both"),
        ("0.0.0.0/0", "external"),
    ])
    def test_every_cli_builds_the_same_picklable_filter(
            self, prefix, leg, monkeypatch, tmp_path):
        argv = ["--internal", prefix, "--leg", leg]
        built = {
            cli: built_filter(
                cli,
                argv + (["--collector", f"unix:{tmp_path}/none.sock"]
                        if cli == "agent" else []),
                monkeypatch)
            for cli in ("replay", "stream", "agent")
        }
        assert built["replay"] == built["stream"] == built["agent"]
        leg_filter = built["replay"]
        assert isinstance(leg_filter, LegFilter)
        assert pickle.loads(pickle.dumps(leg_filter)) == leg_filter

        legs = ("external", "internal") if leg == "both" else (leg,)
        for addr in self.SOURCES:
            assert leg_filter(addr) == expected_leg(addr, prefix, legs), addr

    @pytest.mark.parametrize("prefix", ["10.1.0.0/16", "10.0.0.0/8",
                                        "0.0.0.0/0"])
    def test_detect_builds_the_external_leg_of_the_same_filter(
            self, prefix, monkeypatch):
        detect = built_filter("detect", ["--internal", prefix], monkeypatch)
        replay = built_filter(
            "replay", ["--internal", prefix, "--leg", "external"],
            monkeypatch)
        assert detect == replay
        assert pickle.loads(pickle.dumps(detect)) == detect
        for addr in self.SOURCES:
            assert detect(addr) == expected_leg(
                addr, prefix, ("external",)), addr
