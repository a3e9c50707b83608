"""Normalizer adapters and corpus normalization through a type table."""

import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normeval import (
    ExternalNormalizer,
    IdentityNormalizer,
    MappingNormalizer,
    Normalizer,
    NormalizerError,
    SnowballEnglishNormalizer,
    TokenMapping,
    TruncateNormalizer,
    load_mapping,
    type_mapping,
)
from normeval.corpus import table_of
from normeval.normalizers import EXT_CHUNK_SIZE, EXT_MAX_REPLY_CHARS
from reference import table_tokens

# Line-protocol test double: OK replies truncate to 4 chars, the token
# "boom" draws an ERR reply, the token "hang" draws no reply at all.
STUB = """
import sys
for line in sys.stdin:
    line = line.rstrip("\\n")
    cmd, _, token = line.partition("\\t")
    if cmd != "NORM":
        print("ERR\\tunknown command", flush=True)
    elif token == "boom":
        print("ERR\\tcannot stem this", flush=True)
    elif token == "hang":
        pass
    elif token == "die":
        sys.exit(3)
    else:
        print("OK\\t" + token[:4], flush=True)
"""

# Pipelining and fault-injection double: OK replies reverse the token;
# the other tokens draw the faults named below. argv[1] is
# EXT_MAX_REPLY_CHARS.
FAULT_STUB = """
import sys
import time
max_reply = int(sys.argv[1])
for line in sys.stdin:
    token = line.rstrip("\\n").partition("\\t")[2]
    if token == "boom":
        print("ERR\\tcannot stem this", flush=True)
    elif token == "garbage":
        print("garbage!", flush=True)
    elif token == "die":
        sys.exit(3)
    elif token == "skip":
        continue
    elif token == "slow":
        time.sleep(0.6)
        print("OK\\tslow", flush=True)
    elif token == "twice":
        print("OK\\ttwic", flush=True)
        time.sleep(0.2)
        print("OK\\tEXTRA", flush=True)
    elif token == "exact":
        print("OK\\t" + "x" * (max_reply - 3), flush=True)
    elif token == "long":
        print("OK\\t" + "x" * (max_reply - 2), flush=True)
    elif token == "bytes":
        sys.stdout.buffer.write(b"OK\\t\\xff\\n")
        sys.stdout.flush()
    else:
        print("OK\\t" + token[::-1], flush=True)
"""

# Multi-byte samples: Bengali with vowel signs and hasant, CJK, an
# astral-plane letter and emoji, Greek, Latin with a combining mark.
MULTIBYTE = ["নূঢীগুলি", "ক্ষমতা", "東京都", "𝔘𝔫𝔦", "🙂👍", "Ωμέγα", "nai\u0308ve"]


def multibyte_tokens(count):
    """``count`` distinct tokens, most of them multi-byte in UTF-8."""
    return [f"{MULTIBYTE[i % len(MULTIBYTE)]}{i}" for i in range(count)]


def old_normalize_corpus(normalizer, token_lists):
    """The per-token loop corpus normalization ran before it batched
    types: the stems of each document, and the mapping."""
    cache = {}
    occurrence = Counter()
    normalized = []
    for tokens in token_lists:
        out = []
        for token in tokens:
            if token in cache:
                stem = cache[token]
            else:
                stem = normalizer.normalize_token(token)
                cache[token] = stem
            occurrence[token] += 1
            if stem:
                out.append(stem)
        normalized.append(tuple(out))
    return normalized, TokenMapping(pairs=cache, occurrence_counts=dict(occurrence))


class TestBuiltinNormalizers:
    def test_identity(self):
        assert IdentityNormalizer().normalize_token("running") == "running"

    def test_snowball_wrapper(self):
        n = SnowballEnglishNormalizer()
        assert n.normalize_token("Running") == "run"
        assert n.name == "snowball-en"

    def test_truncate(self):
        n = TruncateNormalizer(3)
        assert n.normalize_token("running") == "run"
        assert n.normalize_token("ab") == "ab"
        assert n.name == "truncate-3"

    def test_truncate_rejects_nonpositive(self):
        with pytest.raises(NormalizerError):
            TruncateNormalizer(0)


class TestMapping:
    def test_load_and_lookup(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("# comment\nrunning\trun\nflies\tfly\n", encoding="utf-8")
        n = MappingNormalizer(str(path))
        assert n.normalize_token("running") == "run"
        assert n.normalize_token("unknown") == "unknown"

    def test_duplicates_last_wins(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\tx\na\ty\n", encoding="utf-8")
        assert load_mapping(str(path)) == {"a": "y"}

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("running\trun\n", encoding="utf-8-sig")
        assert load_mapping(str(path)) == {"running": "run"}

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("a\tx\nbroken line\n", encoding="utf-8")
        with pytest.raises(NormalizerError, match="line 2"):
            load_mapping(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(NormalizerError, match="cannot open"):
            MappingNormalizer(str(tmp_path / "nope.tsv"))

    def test_empty_stem_allowed(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("junk\t\n", encoding="utf-8")
        assert load_mapping(str(path)) == {"junk": ""}


class TestNormalizeCorpus:
    def test_order_and_boundaries_preserved(self):
        table = table_of([["alpha", "beta"], ["gamma"]])
        mapping = type_mapping(TruncateNormalizer(2), table.types, table.occurrence_counts())
        normalized, _ = table.relabel(mapping.pairs.values())
        assert table_tokens(normalized) == [("al", "be"), ("ga",)]
        assert mapping.pairs == {"alpha": "al", "beta": "be", "gamma": "ga"}

    def test_occurrence_counts(self):
        table = table_of([["a", "b", "a"], ["a"]])
        mapping = type_mapping(IdentityNormalizer(), table.types, table.occurrence_counts())
        assert mapping.occurrence_counts == {"a": 3, "b": 1}

    def test_shared_occurrence_counts_give_the_same_mapping(self):
        table = table_of([["b", "a", "b"], [], ["c", "a"]])
        counts = table.occurrence_counts()
        for normalizer in (IdentityNormalizer(), TruncateNormalizer(1)):
            mapping = type_mapping(normalizer, table.types, counts)
            assert mapping == type_mapping(normalizer, table.types, table.occurrence_counts())
            assert list(mapping.pairs) == ["b", "a", "c"]
            assert mapping.occurrence_counts is counts
        assert counts == {"b": 2, "a": 2, "c": 1}

    def test_memoizes_per_token_type(self):
        calls = []

        class Spy(Normalizer):
            name = "spy"

            def normalize_token(self, token):
                calls.append(token)
                return token

        table = table_of([["x", "y", "x"], ["y", "x"]])
        type_mapping(Spy(), table.types, table.occurrence_counts())
        assert sorted(calls) == ["x", "y"]

    def test_empty_stems_dropped_from_stream_kept_in_mapping(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("junk\t\n", encoding="utf-8")
        table = table_of([["keep", "junk", "also"]])
        mapping = type_mapping(MappingNormalizer(str(path)), table.types, table.occurrence_counts())
        normalized, _ = table.relabel(mapping.pairs.values())
        assert table_tokens(normalized) == [("keep", "also")]
        assert mapping.pairs["junk"] == ""
        assert mapping.empty_stem_count == 1

    def test_changed_documents_are_flagged(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("junk\t\nsame\tsame\nrun\tru\n", encoding="utf-8")
        table = table_of([["keep", "same"], ["keep", "junk"], [], ["run"], ["same"], ["", "keep"]])
        mapping = type_mapping(MappingNormalizer(str(path)), table.types, table.occurrence_counts())
        normalized, changed = table.relabel(mapping.pairs.values())
        assert changed.tolist() == [False, True, False, True, False, True]
        # an empty stem is a change, even that of an empty token
        stems = table_tokens(normalized)
        assert stems[1] == stems[5] == ("keep",)
        assert stems[3] == ("ru",)


class TestExternalNormalizer:
    def command(self):
        return [sys.executable, "-c", STUB]

    def test_round_trip(self):
        with ExternalNormalizer(self.command()) as n:
            assert n.normalize_token("running") == "runn"
            assert n.normalize_token("ab") == "ab"

    def test_err_reply_raises_with_token_and_message(self):
        with ExternalNormalizer(self.command()) as n:
            with pytest.raises(NormalizerError, match="boom.*cannot stem"):
                n.normalize_token("boom")

    def test_timeout(self):
        with ExternalNormalizer(self.command(), timeout=0.5) as n:
            with pytest.raises(NormalizerError, match="timeout"):
                n.normalize_token("hang")

    def test_process_death_detected(self):
        with ExternalNormalizer(self.command()) as n:
            with pytest.raises(NormalizerError, match="closed its output|exited"):
                n.normalize_token("die")
            # subsequent calls keep failing instead of hanging
            with pytest.raises(NormalizerError):
                n.normalize_token("more")

    def test_separator_in_token_rejected(self):
        with ExternalNormalizer(self.command()) as n:
            with pytest.raises(NormalizerError, match="separator"):
                n.normalize_token("a\tb")

    def test_unknown_command_fails_to_start(self):
        with pytest.raises(NormalizerError, match="cannot start"):
            ExternalNormalizer(["/nonexistent/binary-xyz"])

    def test_close_idempotent(self):
        n = ExternalNormalizer(self.command())
        n.close()
        n.close()

    def test_works_through_type_mapping(self):
        table = table_of([["stemming", "stems"]])
        with ExternalNormalizer(self.command()) as n:
            mapping = type_mapping(n, table.types, table.occurrence_counts())
        normalized, _ = table.relabel(mapping.pairs.values())
        assert table_tokens(normalized) == [("stem", "stem")]
        assert mapping.pairs == {"stemming": "stem", "stems": "stem"}


class RecordingCollapser(Normalizer):
    """Drops tokens starting with 'x', keeps two letters of the rest, and
    records each ``normalize_tokens`` call."""

    name = "collapser"

    def __init__(self):
        self.calls = []

    def normalize_token(self, token):
        return "" if token.startswith("x") else token[:2]

    def normalize_tokens(self, tokens):
        self.calls.append(list(tokens))
        return super().normalize_tokens(tokens)


class TestNormalizeCorpusBatched:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from(["xa", "xb", "abc", "abd", "b", "ক্ষমতা", "ক্ষত", "東京"]), max_size=12),
            max_size=8,
        )
    )
    def test_equals_the_per_token_loop(self, token_lists):
        table = table_of(token_lists)
        normalizer = RecordingCollapser()
        mapping = type_mapping(normalizer, table.types, table.occurrence_counts())
        normalized, _ = table.relabel(mapping.pairs.values())
        expected_docs, expected = old_normalize_corpus(RecordingCollapser(), token_lists)
        assert table_tokens(normalized) == expected_docs
        assert list(mapping.pairs.items()) == list(expected.pairs.items())
        assert list(mapping.occurrence_counts.items()) == list(expected.occurrence_counts.items())
        first_seen = list(dict.fromkeys(t for tokens in token_lists for t in tokens))
        assert normalizer.calls == [first_seen]


class TestExternalPipeline:
    def command(self):
        return [sys.executable, "-c", FAULT_STUB, str(EXT_MAX_REPLY_CHARS)]

    def message(self, detail):
        return f"external normalizer {self.command()}: {detail}"

    @pytest.mark.parametrize(
        "count", [0, 1, EXT_CHUNK_SIZE - 1, EXT_CHUNK_SIZE, EXT_CHUNK_SIZE + 1, 600]
    )
    def test_pipelined_equals_serial(self, count):
        tokens = multibyte_tokens(count)
        with ExternalNormalizer(self.command()) as n:
            pipelined = n.normalize_tokens(tokens)
            serial = [n.normalize_token(token) for token in tokens]
        assert pipelined == serial == [token[::-1] for token in tokens]

    @pytest.mark.parametrize("position", [0, 100, EXT_CHUNK_SIZE - 1, EXT_CHUNK_SIZE, 300])
    @pytest.mark.parametrize(
        "token, detail",
        [
            ("boom", "tool error on token 'boom': cannot stem this"),
            ("garbage", "malformed reply 'garbage!' on token 'garbage'"),
            ("die", "process closed its output on token 'die'"),
        ],
    )
    def test_first_failing_type_names_itself(self, position, token, detail):
        tokens = multibyte_tokens(600)
        tokens.insert(position, token)
        with ExternalNormalizer(self.command()) as n:
            with pytest.raises(NormalizerError) as info:
                n.normalize_tokens(tokens)
        assert str(info.value) == self.message(detail)

    def test_missing_reply_in_a_chunk_fails_at_its_end(self):
        # the later replies shift up one; the chunk comes up one reply short
        tokens = multibyte_tokens(10)
        tokens.insert(3, "skip")
        with ExternalNormalizer(self.command(), timeout=0.3) as n:
            with pytest.raises(NormalizerError) as info:
                n.normalize_tokens(tokens)
            with pytest.raises(NormalizerError, match="earlier failure"):
                n.normalize_tokens(["ab"])
        assert str(info.value) == self.message(f"timeout after 0.3s on token {tokens[-1]!r}")

    def test_failure_before_an_unsendable_token_comes_first(self):
        with ExternalNormalizer(self.command()) as n:
            with pytest.raises(NormalizerError, match="tool error on token 'boom'"):
                n.normalize_tokens(["ok", "boom", "a\tb"])

    def test_unsendable_token_sends_nothing_and_keeps_the_session(self):
        with ExternalNormalizer(self.command()) as n:
            with pytest.raises(NormalizerError, match="separator"):
                n.normalize_tokens(["a\tb", "boom"])
            with pytest.raises(NormalizerError, match="cannot send token"):
                n.normalize_tokens(["ab", "\ud800"])
            assert n.normalize_tokens(["abc", "ক্ষ"]) == ["cba", "ষ্ক"]

    @pytest.mark.parametrize(
        "token, detail",
        [
            ("slow", "timeout after 0.3s on token 'slow'"),
            ("boom", "tool error on token 'boom': cannot stem this"),
            ("garbage", "malformed reply 'garbage!' on token 'garbage'"),
            ("die", "process closed its output on token 'die'"),
            ("long", f"reply longer than {EXT_MAX_REPLY_CHARS} characters on token 'long'"),
            ("bytes", "unreadable output"),
        ],
    )
    def test_failed_session_never_answers_again(self, token, detail):
        with ExternalNormalizer(self.command(), timeout=0.3) as n:
            with pytest.raises(NormalizerError) as info:
                n.normalize_token(token)
            assert str(info.value).startswith(self.message(detail))
            assert n._proc.poll() is not None  # the child is gone
            # a late reply to the failed token must not answer this one
            time.sleep(0.5)
            for call in (lambda: n.normalize_token("running"), lambda: n.normalize_tokens([])):
                with pytest.raises(NormalizerError, match="earlier failure"):
                    call()

    def test_reply_at_the_length_bound_is_accepted(self):
        with ExternalNormalizer(self.command()) as n:
            assert n.normalize_token("exact") == "x" * (EXT_MAX_REPLY_CHARS - 3)
            assert n.normalize_token("ab") == "ba"

    def test_unsolicited_reply_fails_closed(self):
        with ExternalNormalizer(self.command()) as n:
            assert n.normalize_token("twice") == "twic"
            time.sleep(0.5)  # the tool's second line arrives with nothing in flight
            with pytest.raises(NormalizerError) as info:
                n.normalize_token("running")
            assert str(info.value) == self.message("unsolicited reply 'OK\\tEXTRA'")
            with pytest.raises(NormalizerError, match="earlier failure"):
                n.normalize_token("running")

    def test_child_that_stops_reading_fails_by_the_deadline(self):
        # 256 tokens of 1.2 kB each: more than a pipe buffer holds
        tokens = [f"{i}" + "ক" * 400 for i in range(EXT_CHUNK_SIZE)]
        errors = []

        def call():
            try:
                n.normalize_tokens(tokens)
            except NormalizerError as exc:
                errors.append(str(exc))

        command = [sys.executable, "-c", "import time; time.sleep(60)"]
        with ExternalNormalizer(command, timeout=0.3) as n:
            worker = threading.Thread(target=call, daemon=True)
            worker.start()
            worker.join(timeout=10.0)
            assert not worker.is_alive()
        assert len(errors) == 1 and "timeout after 0.3s on token '0" in errors[0]
