"""Unit tests for :class:`repro.serve.SessionConfig` and ``open_session``.

The construction contract: every streaming knob lives on one frozen,
validated dataclass; a session is built from it (``StreamSession`` takes
only ``config=``, ``open_session`` resolves create-vs-resume); and the
CLI flags map 1:1 onto a config through the single ``config_from_args``
helper.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import build_parser, config_from_args
from repro.exceptions import ConfigurationError
from repro.serve import SessionConfig, StreamSession, open_session
from repro.serve.config import DEFAULT_CONFIDENCE


class TestValidation:
    @pytest.mark.parametrize(
        "fields",
        [
            {"confidence": 0.0},
            {"confidence": 1.0},
            {"confidence": -0.5},
            {"backend": "bogus"},
            {"shards": 0},
            {"shards": "bogus"},
            {"maxsize": 0},
            {"max_batch": 0},
            {"snapshot_every": 0, "durable": "somewhere"},
            # snapshot cadence without persistence is a configuration hole,
            # not a silent no-op
            {"snapshot_every": 4},
        ],
    )
    def test_invalid_fields_raise_configuration_error(self, fields):
        with pytest.raises(ConfigurationError):
            SessionConfig(**fields)

    def test_config_is_frozen(self):
        config = SessionConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_batch = 7

    def test_replace_revalidates(self):
        config = SessionConfig(max_batch=8)
        assert config.replace(max_batch=9).max_batch == 9
        with pytest.raises(ConfigurationError):
            config.replace(max_batch=0)

    def test_resolved_defaults(self):
        config = SessionConfig()
        assert config.resolved_confidence == DEFAULT_CONFIDENCE
        assert config.resolved_backend == "auto"
        assert config.resolved_optimize_weights is True

    def test_fields_are_the_ten_streaming_knobs(self):
        assert [field.name for field in dataclasses.fields(SessionConfig)] == [
            "confidence",
            "backend",
            "optimize_weights",
            "shards",
            "maxsize",
            "max_batch",
            "auto_extend",
            "durable",
            "snapshot_every",
            "fsync",
        ]

    def test_writer_count_is_not_a_knob(self):
        # One ordered applier over one log: there is nothing to choose.
        with pytest.raises(TypeError):
            SessionConfig(writers=2)
        with pytest.raises(TypeError):
            open_session(writers=2)

    def test_round_trips_every_legacy_kwarg(self, tmp_path):
        legacy = {
            "maxsize": 9,
            "max_batch": 3,
            "auto_extend": False,
            "confidence": 0.8,
            "backend": "dense",
            "shards": "thread:2",
            "durable": tmp_path,
            "snapshot_every": 2,
            "fsync": False,
        }
        config = SessionConfig(**legacy)
        for name, value in legacy.items():
            assert getattr(config, name) == value


class TestConstruction:
    def test_stream_session_takes_a_config(self):
        session = StreamSession(config=SessionConfig(max_batch=4))
        assert session.config.max_batch == 4
        assert StreamSession().config == SessionConfig()

    def test_stream_session_rejects_keyword_knobs(self):
        with pytest.raises(TypeError):
            StreamSession(max_batch=4)
        with pytest.raises(ConfigurationError, match="SessionConfig"):
            StreamSession(config={"max_batch": 4})

    def test_open_session_takes_a_config_fields_or_both(self):
        assert open_session(max_batch=3).config.max_batch == 3
        base = SessionConfig(max_batch=3, maxsize=7)
        merged = open_session(base, max_batch=5).config
        assert (merged.max_batch, merged.maxsize) == (5, 7)
        with pytest.raises(ConfigurationError, match="SessionConfig"):
            open_session({"max_batch": 3})


    @pytest.mark.parametrize("state", ["missing", "empty"])
    def test_durable_directory_without_state_opens_fresh_and_untouched(
        self, tmp_path, state
    ):
        directory = tmp_path / "state"
        if state == "empty":
            directory.mkdir()
        session = open_session(SessionConfig(durable=directory, fsync=False))
        assert type(session) is StreamSession
        assert session.applied_events == 0
        # Nothing is created before the session starts.
        assert directory.exists() is (state == "empty")
        assert not directory.exists() or not any(directory.iterdir())


class TestConfigFromArgs:
    def test_ingest_flags_map_one_to_one(self):
        args = build_parser().parse_args(
            [
                "ingest",
                "events.ndjson",
                "--confidence", "0.9",
                "--backend", "dense",
                "--batch-size", "7",
                "--queue-size", "33",
                "--shards", "thread:2",
                "--durable", "state-dir",
                "--snapshot-every", "4",
            ]
        )
        config = config_from_args(args)
        assert config == SessionConfig(
            confidence=0.9,
            backend="dense",
            max_batch=7,
            maxsize=33,
            shards="thread:2",
            durable="state-dir",
            snapshot_every=4,
        )

    def test_serve_shares_the_same_translation(self):
        args = build_parser().parse_args(["serve", "--batch-size", "5"])
        config = config_from_args(args)
        assert config.max_batch == 5
        assert config.durable is None

    @pytest.mark.parametrize("command", [["ingest", "events.ndjson"], ["serve"]])
    def test_writers_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command, "--writers", "2"])
        assert "--writers" in capsys.readouterr().err
