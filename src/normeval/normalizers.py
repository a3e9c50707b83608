"""Token normalizers behind a single token -> stem interface.

Built-in normalizers (identity, snowball English, prefix truncation) are
pure functions. Mapping-file and external-process normalizers adapt
third-party tools: the mapping file is a static lookup table, and the
external adapter speaks a line protocol over the tool's stdin/stdout
(request ``NORM<TAB>token``, reply ``OK<TAB>stem`` or ``ERR<TAB>message``),
with up to ``EXT_CHUNK_SIZE`` requests in flight.

``type_mapping`` normalizes each distinct type of a corpus once, through
one ``Normalizer.normalize_tokens`` call, and records every (original,
stem) pair with occurrence counts in a :class:`TokenMapping`;
``corpus.TypeTable.relabel`` applies it to the corpus's type table.
"""

from __future__ import annotations

import contextlib
import io
import logging
import queue
import subprocess
import threading
from dataclasses import dataclass
from typing import NoReturn

from .errors import NormalizerError
from .snowball import stem as snowball_stem

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TokenMapping:
    """Observed (original -> stem) pairs plus how often each original occurred."""

    pairs: dict[str, str]
    occurrence_counts: dict[str, int]

    @property
    def empty_stem_count(self) -> int:
        """Distinct originals the normalizer mapped to an empty stem."""
        return sum(1 for stem in self.pairs.values() if not stem)


class Normalizer:
    """Base class: subclasses implement ``normalize_token``.

    ``normalize_tokens`` maps a list of tokens to their stems, in order;
    :func:`type_mapping` calls it once with every distinct type. Here it
    calls ``normalize_token`` per token; adapters that pay per call, like
    :class:`ExternalNormalizer`, override it to batch.
    """

    name: str = "normalizer"

    def normalize_token(self, token: str) -> str:
        raise NotImplementedError

    def normalize_tokens(self, tokens: list[str]) -> list[str]:
        normalize_token = self.normalize_token
        return [normalize_token(token) for token in tokens]

    def close(self) -> None:
        """Release external resources, if any."""


class IdentityNormalizer(Normalizer):
    name = "identity"

    def normalize_token(self, token: str) -> str:
        return token


class SnowballEnglishNormalizer(Normalizer):
    """Snowball English (Porter2) stemming of the lowercased token."""

    name = "snowball-en"

    def normalize_token(self, token: str) -> str:
        return snowball_stem(token)


class TruncateNormalizer(Normalizer):
    """Keep only the first n Unicode scalar values of each token.

    Deliberately crude: a built-in stand-in for over-stemming behavior.
    """

    def __init__(self, n: int):
        if n < 1:
            raise NormalizerError(f"truncate length must be >= 1, got {n}")
        self.n = n
        self.name = f"truncate-{n}"

    def normalize_token(self, token: str) -> str:
        return token[: self.n]


def load_mapping(path: str) -> dict[str, str]:
    """Load an 'original<TAB>stem' mapping file, UTF-8 with or without
    a byte-order mark.

    Lines starting with '#' are comments. Duplicate originals keep the
    last entry; duplicates are counted and logged as a warning.
    """
    mapping: dict[str, str] = {}
    duplicates = 0
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise NormalizerError(f"cannot open mapping file {path!r}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise NormalizerError(f"line {lineno}: expected 2 fields, got {len(parts)}")
            original, stem = parts
            if original in mapping:
                duplicates += 1
            mapping[original] = stem
    if duplicates:
        log.warning("mapping file %s: %d duplicate original(s), last entry wins", path, duplicates)
    return mapping


class MappingNormalizer(Normalizer):
    """Lookup-table normalizer; unknown tokens map to themselves."""

    def __init__(self, path: str):
        self.mapping = load_mapping(path)
        self.name = f"map:{path}"

    def normalize_token(self, token: str) -> str:
        return self.mapping.get(token, token)


EXT_CHUNK_SIZE = 256
"""Requests an :class:`ExternalNormalizer` sends before it reads their replies."""

EXT_MAX_REPLY_CHARS = 1 << 20
"""Longest reply line, newline excluded, an :class:`ExternalNormalizer` accepts."""


class _StreamEnd:
    """Reader-thread marker: no reply follows, for the stated reason."""

    def __init__(self, reason: str):
        self.reason = reason


class ExternalNormalizer(Normalizer):
    """Adapter around an external process speaking the NORM line protocol.

    ``normalize_tokens`` pipelines: it sends the requests for up to
    ``EXT_CHUNK_SIZE`` tokens, then reads their replies in order, waiting
    at most ``timeout`` seconds for each. The session fails closed: after
    a timeout, an ``ERR``, malformed, over-long or unsolicited reply, or
    the end of the child's output, the child is killed and every later
    call raises :class:`NormalizerError`.

    The session is serial: callers running concurrently must either wrap
    calls in their own lock or open one session per worker.
    """

    def __init__(self, command: list[str], timeout: float = 5.0):
        if not command:
            raise NormalizerError("external normalizer command is empty")
        self.command = list(command)
        self.timeout = timeout
        self.name = f"ext:{command[0]}"
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            raise NormalizerError(f"cannot start external normalizer {self.command}: {exc}") from exc
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._stdin = self._proc.stdin
        # Universal newlines, as a text-mode pipe reads them.
        self._stdout = io.TextIOWrapper(self._proc.stdout, encoding="utf-8")
        self._failure: str | None = None
        self._requests: queue.SimpleQueue[bytes | None] = queue.SimpleQueue()
        self._replies: queue.SimpleQueue[str | _StreamEnd] = queue.SimpleQueue()
        # Requests go out on their own thread, so a child that stops reading
        # them shows up as a missing reply, under the same timeout.
        threading.Thread(target=self._write_loop, daemon=True).start()
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _write_loop(self) -> None:
        try:
            while (data := self._requests.get()) is not None:
                self._stdin.write(data)
                self._stdin.flush()
        except OSError:
            pass  # the child is gone; the replies it never sent report it
        finally:
            with contextlib.suppress(OSError):
                self._stdin.close()

    def _read_loop(self) -> None:
        reason = "process closed its output"
        try:
            while line := self._stdout.readline(EXT_MAX_REPLY_CHARS + 1):
                if not line.endswith("\n") and len(line) > EXT_MAX_REPLY_CHARS:
                    reason = f"reply longer than {EXT_MAX_REPLY_CHARS} characters"
                    break
                self._replies.put(line.rstrip("\n"))
        except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
            reason = f"unreadable output ({exc})"
        self._replies.put(_StreamEnd(reason))

    def _fail(self, message: str) -> NoReturn:
        """Stop the session for good and raise ``message``."""
        self._failure = message
        self._requests.put(None)
        self._proc.kill()
        self._proc.wait()
        raise NormalizerError(message)

    def _check_no_unsolicited_reply(self) -> None:
        """With no request in flight, a queued reply is one too many."""
        try:
            reply = self._replies.get_nowait()
        except queue.Empty:
            return
        if isinstance(reply, _StreamEnd):
            self._replies.put(reply)  # nothing follows it; the next read reports it
            return
        self._fail(f"external normalizer {self.command}: unsolicited reply {reply!r}")

    def _request(self, token: str) -> bytes:
        if "\n" in token or "\t" in token:
            raise NormalizerError(f"token contains protocol separator characters: {token!r}")
        try:
            return f"NORM\t{token}\n".encode("utf-8")
        except UnicodeEncodeError as exc:
            raise NormalizerError(
                f"external normalizer {self.command}: cannot send token {token!r}: {exc}"
            ) from exc

    def _round_trip(self, tokens: list[str], requests: list[bytes]) -> list[str]:
        if self._proc.poll() is not None:
            self._fail(f"external normalizer {self.command} exited with code {self._proc.returncode}")
        self._check_no_unsolicited_reply()
        self._requests.put(b"".join(requests))
        stems: list[str] = []
        for token in tokens:
            try:
                reply = self._replies.get(timeout=self.timeout)
            except queue.Empty:
                self._fail(
                    f"external normalizer {self.command}: timeout after {self.timeout}s on token {token!r}"
                )
            if isinstance(reply, _StreamEnd):
                self._fail(f"external normalizer {self.command}: {reply.reason} on token {token!r}")
            kind, _, payload = reply.partition("\t")
            if kind != "OK":
                if kind == "ERR":
                    self._fail(
                        f"external normalizer {self.command}: tool error on token {token!r}: {payload}"
                    )
                self._fail(
                    f"external normalizer {self.command}: malformed reply {reply!r} on token {token!r}"
                )
            stems.append(payload)
        return stems

    def normalize_tokens(self, tokens: list[str]) -> list[str]:
        if self._failure is not None:
            raise NormalizerError(f"session stopped after an earlier failure: {self._failure}")
        stems: list[str] = []
        for start in range(0, len(tokens), EXT_CHUNK_SIZE):
            chunk = tokens[start : start + EXT_CHUNK_SIZE]
            requests: list[bytes] = []
            invalid: NormalizerError | None = None
            for token in chunk:
                try:
                    requests.append(self._request(token))
                except NormalizerError as exc:
                    invalid = exc
                    break
            # The tokens before an unsendable one are answered first, so a
            # failure among them takes precedence, as in token order.
            if requests:
                stems += self._round_trip(chunk[: len(requests)], requests)
            if invalid is not None:
                raise invalid
        self._check_no_unsolicited_reply()
        return stems

    def normalize_token(self, token: str) -> str:
        return self.normalize_tokens([token])[0]

    def close(self) -> None:
        self._requests.put(None)  # the writer closes the child's stdin after pending requests
        try:
            self._proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        # The reader sees end of file once the child is gone, unless a process
        # the child started still holds the pipe; then the reader keeps it.
        self._reader.join(timeout=1.0)
        if not self._reader.is_alive():
            self._stdout.close()

    def __enter__(self) -> "ExternalNormalizer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def type_mapping(
    normalizer: Normalizer, types: list[str], occurrence_counts: dict[str, int]
) -> TokenMapping:
    """The mapping of the distinct ``types``, in their order, from one
    ``normalizer.normalize_tokens`` call, with ``occurrence_counts`` as
    its counts."""
    pairs = dict(zip(types, normalizer.normalize_tokens(types), strict=True))
    return TokenMapping(pairs=pairs, occurrence_counts=occurrence_counts)

