"""Chat-model candidate ranking.

Per sentence, the member sentences are shuffled, given the labels A, B,
C, ... and rendered into a prompt that asks the model either for the best
candidate (variant "a") or for a full ranking (variant "b"; only the top
label feeds selection). Shuffling breaks positional bias; the prompt keeps
the shuffled sentences in label order, so a parsed label indexes them.
The answer is read after the reply's last ``OUTPUT:``, if it has one.

The backend is any callable from (system message, user message,
temperature) to response text. A real HTTP chat-completions client and
deterministic offline mocks both satisfy it, so every test runs without
network access. Responses that cannot be parsed, and transient backend
failures that outlast the retries, fall back to label A and are flagged. A
backend that cannot work as configured (:class:`BackendSetupError`: a
missing API key, a request the server rejects, a malformed reply) is
neither retried nor falls back: it stops the run at once.
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


class RankResponse(NamedTuple):
    parsed: tuple[str, ...]  # single label for "a", sequence for "b"
    fallback: bool

    @property
    def top(self) -> str:
        return self.parsed[0]


def build_prompt(
    variant: str,
    source: TokenSentence,
    candidates: Sequence[TokenSentence],
    seed: int | None,
) -> RankPrompt:
    """Label and render candidate sentences in seeded-shuffled order.

    ``seed=None`` disables shuffling (identity permutation). Requires at
    least 2 candidates and at most 26 (single-letter labels).
    """
    if variant not in ("a", "b"):
        raise ValidationError(f"unknown prompt variant {variant!r}")
    if len(candidates) < 2:
        raise ValidationError("prompt needs at least 2 candidates")
    if len(candidates) > len(_LABELS):
        raise ValidationError("at most 26 candidates supported")
    order = list(candidates)
    if seed is not None:
        derive_rng(seed).shuffle(order)
    lines = ["ORIGINAL:", source.text, "EDITED:"]
    lines += [f"{label}: {sentence.text}" for label, sentence in zip(_LABELS, order)]
    text = "\n".join(lines) + "\n\n" + _INSTRUCTION[variant]
    return RankPrompt(variant, tuple(order), text)


def parse_response(text: str, prompt: RankPrompt) -> RankResponse:
    """Extract the chosen label(s); fall back to label A / issued order.

    Only the text after the reply's last ``OUTPUT:`` is read, or the whole
    reply when it has none. Variant "a" takes the first standalone capital
    letter there that is an issued label. Variant "b" takes the longest
    whitespace-separated run of distinct issued labels there.
    """
    text = text.rpartition("OUTPUT:")[2]
    labels = prompt.labels
    if prompt.variant == "a":
        for match in re.finditer(r"\b[A-Z]\b", text):
            if match.group(0) in labels:
                return RankResponse((match.group(0),), False)
        return RankResponse((labels[0],), True)

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
        return RankResponse(labels, True)
    return RankResponse(tuple(best), False)


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
    Timeouts, connection errors, 429 and 5xx raise ordinary exceptions,
    which :func:`call_with_retries` retries. Any other 4xx, with the
    ``urllib.error.HTTPError`` as its cause, and a reply without a string
    at ``choices[0].message.content`` raise :class:`BackendSetupError`.
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


def make_backend(
    kind: str, *, base_url: str | None = None, model: str | None = None
) -> Backend:
    """Build a backend from a config/CLI name.

    ``mock-lexmin`` and ``mock-label-a`` run offline; ``http`` needs
    ``base_url`` and ``model``.
    """
    if kind == "mock-lexmin":
        return MockLexminBackend()
    if kind == "mock-label-a":
        return MockLabelBackend("A")
    if kind == "http":
        if not base_url or not model:
            raise ValidationError("http backend needs base_url and model")
        return HttpChatBackend(base_url, model)
    raise ValidationError(f"unknown backend {kind!r}")


def call_with_retries(
    backend: Backend,
    system_message: str,
    user_message: str,
    temperature: float,
    retries: int = 3,
    backoff: float = 1.0,
) -> str:
    """Call the backend, retrying failures with exponential backoff.

    A :class:`BackendSetupError` is raised at once, without retries.
    """
    attempt = 0
    while True:
        try:
            return backend(system_message, user_message, temperature)
        except BackendSetupError:
            raise
        except Exception:
            if attempt >= retries:
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
    and samples the backend at temperature 1.0. Evaluation averages
    scores across the returned runs; the runs are never merged into one
    output. Backend failures that survive the retry budget select label A
    for that sentence and are recorded in the run's ``fallbacks``; a
    :class:`BackendSetupError` propagates instead.
    """
    if not seeds:
        raise ValidationError("runs must be >= 1")
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    check_aligned(outputs, len(sources))

    results: list[RankedRun] = []
    for run_index, run_seed in enumerate(seeds):

        def rank_one(i: int) -> tuple[TokenSentence, bool]:
            candidates = [out.sentences[i] for out in outputs]
            prompt_seed = derive_seed(run_seed, "sentence", i) if shuffle else None
            prompt = build_prompt(variant, sources[i], candidates, prompt_seed)
            try:
                raw = call_with_retries(backend, DEFAULT_TASK_DESCRIPTION, prompt.text, 1.0)
            except BackendSetupError:
                raise
            except Exception:
                return prompt.sentences[0], True
            response = parse_response(raw, prompt)
            return prompt.sentences[_LABELS.index(response.top)], response.fallback

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
