"""Chat-model candidate ranking.

Per sentence, the member sentences are shuffled, given the labels A, B,
C, ... and rendered into a prompt that asks the model either for the best
candidate (variant "a") or for a full ranking (variant "b"; only the top
label feeds selection). Shuffling breaks positional bias; the prompt keeps
the shuffled sentences in label order, so a parsed label indexes them.
The answer is read after the reply's last ``OUTPUT:``, if it has one.
A sentence whose member sentences are all equal gets no prompt: any label
would pick that sentence.

The backend is any callable from (system message, user message,
temperature) to response text. A real HTTP chat-completions client and
deterministic offline mocks both satisfy it, so every test runs without
network access. Responses that cannot be parsed, and transient backend
failures (:func:`_transient`) that outlast the retries, fall back to label
A and are flagged. Any other error is neither retried nor falls back: it
stops the run at once, as a backend that cannot work as configured does
(:class:`BackendSetupError`: a missing API key, a request the server
rejects, a malformed reply).
"""

from __future__ import annotations

import os
import re
import time
from typing import Callable, NamedTuple, Sequence

from .corpus import SystemOutput, TokenSentence, ValidationError, check_aligned
from .seeds import derive_rng, derive_seed

Backend = Callable[[str, str, float], str]

_LABELS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"  # string.ascii_uppercase


class BackendSetupError(ValidationError, RuntimeError):
    """A backend that cannot work as configured: a missing API key, an HTTP
    4xx status other than 429, or a reply that is not a chat completion.

    Retrying cannot help, so it is raised at once, never retried and never
    replaced by a fallback label.
    """


DEFAULT_TASK_DESCRIPTION = (
    "You are an expert English proofreader. You will see an original "
    "sentence and several edited candidate versions labeled with capital "
    "letters. Judge which candidates correct the sentence best."
)

_INSTRUCTION = {
    "a": (
        "Reply with the label of the single best candidate in exactly this "
        "format:\nOUTPUT:\n<label>"
    ),
    "b": (
        "Reply with all candidate labels ranked from best to worst, "
        "separated by spaces, in exactly this format:\nOUTPUT:\n<labels>"
    ),
}


class RankPrompt(NamedTuple):
    """A rendered ranking request for one sentence."""

    variant: str
    sentences: tuple[TokenSentence, ...]  # the candidates in label order A, B, ...
    text: str

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(_LABELS[: len(self.sentences)])


def check_prompt(variant: str, n_candidates: int) -> None:
    """Raise :class:`ValidationError` unless a prompt can label ``n_candidates``
    candidates, 2 to 26 (one letter each), and ``variant`` is "a" or "b"."""
    if not 2 <= n_candidates <= len(_LABELS):
        raise ValidationError(f"llm-rank takes 2 to 26 systems, got {n_candidates}")
    if variant not in _INSTRUCTION:
        raise ValidationError(f"unknown prompt variant {variant!r}")


def build_prompt(
    variant: str,
    source: TokenSentence,
    candidates: Sequence[TokenSentence],
    seed: int | None,
) -> RankPrompt:
    """Label and render candidate sentences in seeded-shuffled order, as
    :func:`check_prompt` allows. ``seed=None`` disables shuffling (identity
    permutation)."""
    check_prompt(variant, len(candidates))
    order = list(candidates)
    if seed is not None:
        derive_rng(seed).shuffle(order)
    lines = ["ORIGINAL:", source.text, "EDITED:"]
    lines += [f"{label}: {sentence.text}" for label, sentence in zip(_LABELS, order)]
    text = "\n".join(lines) + "\n\n" + _INSTRUCTION[variant]
    return RankPrompt(variant, tuple(order), text)


def parse_response(text: str, prompt: RankPrompt) -> tuple[int, bool]:
    """The position in ``prompt.sentences`` of the chosen candidate, and
    whether the reply fell back to label A, position 0.

    Only the text after the reply's last ``OUTPUT:`` is read, or the whole
    reply when it has none. Variant "a" takes the first standalone capital
    letter there that is an issued label. Variant "b" takes the first label
    of the longest whitespace-separated run of distinct issued labels there.
    """
    text = text.rpartition("OUTPUT:")[2]
    labels = prompt.labels
    if prompt.variant == "a":
        for match in re.finditer(r"\b[A-Z]\b", text):
            if match.group(0) in labels:
                return labels.index(match.group(0)), False
        return 0, True

    issued = set(labels)
    best: list[str] = []
    run: list[str] = []
    for token in text.split():
        if token in issued and token not in run:
            run.append(token)
        else:
            if len(run) > len(best):
                best = run
            run = [token] if token in issued else []
    if len(run) > len(best):
        best = run
    if not best:
        return 0, True
    return labels.index(best[0]), False


# ---------------------------------------------------------------------------
# Backends


class MockLexminBackend:
    """Deterministic offline backend: prefers the lexicographically
    smallest candidate sentence. Content-based, so its choice is invariant
    under label shuffling; used to test positional-bias immunity."""

    def __call__(self, system_message: str, user_message: str, temperature: float) -> str:
        ranked = sorted(_parse_candidates(user_message), key=lambda lc: lc[1])
        return "OUTPUT:\n" + " ".join(label for label, _ in ranked)


class MockLabelBackend:
    """Offline backend that always answers a fixed positional label."""

    def __init__(self, label: str = "A"):
        self.label = label

    def __call__(self, system_message: str, user_message: str, temperature: float) -> str:
        return f"OUTPUT:\n{self.label}"


def _parse_candidates(user_message: str) -> list[tuple[str, tuple[str, ...]]]:
    # Inverse of build_prompt's rendering, for mocks that judge content.
    out = []
    in_block = False
    for line in user_message.splitlines():
        if line == "EDITED:":
            in_block = True
            continue
        if in_block:
            m = re.match(r"^([A-Z]): (.*)$", line)
            if not m:
                break
            out.append((m.group(1), tuple(m.group(2).split())))
    return out


API_KEY_ENV = "GECKIT_API_KEY"  # holds the http backend's bearer token


class HttpChatBackend:
    """Chat-completions client: POST {base_url}/chat/completions.

    The bearer token is read from the environment variable
    :data:`API_KEY_ENV` so credentials never appear in configs or argv.
    A timeout, a connection lost or refused (a ``URLError`` whose reason is
    an ``OSError``), a reply cut short (``RemoteDisconnected``,
    ``IncompleteRead``) and HTTP 429 and 5xx propagate as raised, and
    :func:`call_with_retries` retries them. Any other 4xx, with the
    ``urllib.error.HTTPError`` as its cause, and a reply without a string
    at ``choices[0].message.content`` raise :class:`BackendSetupError`;
    anything else, such as ``http.client.InvalidURL``, propagates unretried.
    """

    def __init__(self, base_url: str, model: str, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.timeout = timeout

    def __call__(self, system_message: str, user_message: str, temperature: float) -> str:
        key = os.environ.get(API_KEY_ENV)
        if not key:
            raise BackendSetupError(f"environment variable {API_KEY_ENV} is not set")
        body = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": system_message},
                {"role": "user", "content": user_message},
            ],
            "temperature": temperature,
        }
        # Imported here, as http.client, email and ssl add ~25 ms to every start-up
        import json
        import urllib.error
        import urllib.request
        url = f"{self.base_url}/chat/completions"
        headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}
        request = urllib.request.Request(url, json.dumps(body).encode(), headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                text = resp.read().decode(errors="replace")
        except urllib.error.HTTPError as err:
            if 400 <= err.code < 500 and err.code != 429:
                detail = err.read().decode(errors="replace")[:200]
                raise BackendSetupError(f"{url} answered HTTP {err.code}: {detail}") from err
            raise
        try:
            content = json.loads(text)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            content = None
        if not isinstance(content, str):
            raise BackendSetupError(f"{url}: malformed chat response: {text[:200]}")
        return content


# Each backend name, and how to build that backend from (base_url, model)
_BACKENDS: dict[str, Callable[[str | None, str | None], Backend]] = {
    "mock-lexmin": lambda base_url, model: MockLexminBackend(),
    "mock-label-a": lambda base_url, model: MockLabelBackend("A"),
    "http": HttpChatBackend,
}


def check_backend(kind: str, base_url: str | None, model: str | None) -> None:
    """Raise :class:`ValidationError` unless backend ``kind`` can run with
    ``base_url`` and ``model``: ``http`` needs both, the URL with an http or
    https scheme, a host and a valid port if any, and an offline mock neither."""
    if kind not in _BACKENDS:
        raise ValidationError(f"unknown backend {kind!r}; expected one of {', '.join(_BACKENDS)}")
    if kind == "http":
        if not (base_url and model):
            raise ValidationError("http backend needs base_url and model")
        from urllib.parse import urlsplit  # loaded on first use: the mocks take no URL

        try:
            url = urlsplit(base_url)
            url.port  # raises ValueError unless the port is absent or in 0..65535
        except ValueError:  # as urlsplit does on an unclosed "[" of an IPv6 host
            url = None
        if url is None or url.scheme not in ("http", "https") or not url.hostname:
            raise ValidationError(
                f"base_url must be an http:// or https:// URL with a host, got {base_url!r}"
            )
    elif base_url is not None or model is not None:
        raise ValidationError(f"backend {kind} runs offline: base_url and model are for http")


def make_backend(
    kind: str, *, base_url: str | None = None, model: str | None = None
) -> Backend:
    """Build a backend from a config/CLI name, checked by :func:`check_backend`."""
    check_backend(kind, base_url, model)
    return _BACKENDS[kind](base_url, model)


def _transient(err: BaseException) -> bool:
    """Whether a retry may fix the backend error ``err``: a timeout, a
    ``ConnectionError`` (``RemoteDisconnected`` is one), a ``URLError`` whose
    reason is an ``OSError``, ``IncompleteRead``, or HTTP 429 or 5xx."""
    if isinstance(err, (TimeoutError, ConnectionError)):
        return True
    import http.client  # loaded on first use: the mocks raise nothing
    import urllib.error

    if isinstance(err, urllib.error.HTTPError):
        return err.code == 429 or err.code >= 500
    if isinstance(err, urllib.error.URLError):
        return isinstance(err.reason, OSError)
    return isinstance(err, http.client.IncompleteRead)


def call_with_retries(
    backend: Backend,
    system_message: str,
    user_message: str,
    temperature: float,
    retries: int = 3,
    backoff: float = 1.0,
) -> str:
    """Call the backend, retrying a :func:`_transient` error with exponential
    backoff; the last one, or any other error, is raised at once."""
    attempt = 0
    while True:
        try:
            return backend(system_message, user_message, temperature)
        except Exception as err:
            if attempt >= retries or not _transient(err):
                raise
            time.sleep(backoff * (2**attempt))
            attempt += 1


# ---------------------------------------------------------------------------
# Corpus runs


class RankedRun(NamedTuple):
    """One complete pass over the corpus with one shuffle seed."""

    output: SystemOutput
    fallbacks: tuple[int, ...]  # sentence indices that fell back to label A


def run_seeds(root: int, runs: int) -> list[int]:
    """The shuffle seed of each of ``runs`` runs, derived from ``root``."""
    return [derive_seed(root, "run", r) for r in range(runs)]


def llm_rank_corpus(
    sources: Sequence[TokenSentence],
    outputs: Sequence[SystemOutput],
    variant: str,
    seeds: Sequence[int],
    backend: Backend,
    *,
    shuffle: bool = True,
    jobs: int = 1,
) -> list[RankedRun]:
    """Rank every sentence once per run, one run per seed; runs stay separate.

    Each run reshuffles candidates with its own seed (see :func:`run_seeds`)
    and samples the backend at temperature 1.0. A sentence whose candidates
    are all one sentence gets that sentence, with no prompt and no backend
    call, since any label would pick it; each prompt's shuffle seed comes
    from the run seed and the sentence index, so no other sentence moves.
    Evaluation averages scores across the returned runs; the runs are never
    merged into one output. A :func:`_transient` backend error that
    outlasts its retries selects label A for that sentence and is recorded
    in the run's ``fallbacks``; any other error, a
    :class:`BackendSetupError` among them, propagates instead.
    """
    if not seeds:
        raise ValidationError("runs must be >= 1")
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    check_aligned(outputs, len(sources))
    check_prompt(variant, len(outputs))  # also when no sentence needs a prompt

    results: list[RankedRun] = []
    for run_index, run_seed in enumerate(seeds):

        def rank_one(i: int) -> tuple[TokenSentence, bool]:
            candidates = [out.sentences[i] for out in outputs]
            if candidates.count(candidates[0]) == len(candidates):
                return candidates[0], False
            prompt_seed = derive_seed(run_seed, "sentence", i) if shuffle else None
            prompt = build_prompt(variant, sources[i], candidates, prompt_seed)
            try:
                raw = call_with_retries(backend, DEFAULT_TASK_DESCRIPTION, prompt.text, 1.0)
            except Exception as err:  # only a transient error outlasts its retries
                if not _transient(err):
                    raise
                return prompt.sentences[0], True
            position, fallback = parse_response(raw, prompt)
            return prompt.sentences[position], fallback

        if jobs > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=jobs) as pool:
                ranked = list(pool.map(rank_one, range(len(sources))))
        else:
            ranked = [rank_one(i) for i in range(len(sources))]

        sentences = tuple(sentence for sentence, _ in ranked)
        flagged = tuple(i for i, (_, fb) in enumerate(ranked) if fb)
        output = SystemOutput(f"llm-rank-{variant}[run{run_index}]", sentences)
        results.append(RankedRun(output, flagged))
    return results
