"""Prompt building, response parsing, mocks, backends, and rank-run determinism."""

import http.client
import random
import re
import threading
import urllib.error
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geckit.corpus import SystemOutput, TokenSentence, ValidationError
from geckit.llm import (
    BackendSetupError,
    HttpChatBackend,
    MockLabelBackend,
    MockLexminBackend,
    build_prompt,
    call_with_retries,
    check_backend,
    llm_rank_corpus,
    make_backend,
    parse_response,
    run_seeds,
)
from geckit.seeds import derive_rng, derive_seed

SRC = TokenSentence("I likes turtles .".split())


def ts(text):
    return TokenSentence(text.split())


def cands(*texts):
    return [ts(t) for t in texts]


def test_prompt_text_layout():
    prompt = build_prompt(
        "a", SRC, cands("I like turtles .", "I likes turtle .", "I likes turtles !"),
        seed=None,
    )
    assert prompt.text.startswith(
        "ORIGINAL:\n"
        "I likes turtles .\n"
        "EDITED:\n"
        "A: I like turtles .\n"
        "B: I likes turtle .\n"
        "C: I likes turtles !\n"
    )
    assert "OUTPUT:" in prompt.text
    assert prompt.labels == ("A", "B", "C")


def test_seed_derivation_is_pinned():
    """A change in how seeds are derived (hash, key format, generator) would
    reshuffle every prompt, and a content-based mock such as mock-lexmin
    could not see it; so the derivation is pinned to literals."""
    assert derive_seed(0, "run", 2) == 17931629419272285697
    assert derive_rng(7, "sentence", 3).random() == 0.26887315583542926
    assert run_seeds(0, 3)[2] == derive_seed(0, "run", 2)


def test_prompt_labels_up_to_seven():
    prompt = build_prompt("b", SRC, cands(*[f"v{i} ." for i in range(7)]), seed=None)
    assert prompt.labels == tuple("ABCDEFG")


def test_prompt_variant_b_asks_for_full_ranking():
    pa = build_prompt("a", SRC, cands("x .", "y ."), seed=None).text
    pb = build_prompt("b", SRC, cands("x .", "y ."), seed=None).text
    assert pa != pb
    assert "<label>" in pa and "<labels>" in pb


def test_prompt_shuffle_is_seed_deterministic():
    candidates = cands(*[f"v{i} ." for i in range(5)])
    one = build_prompt("a", SRC, candidates, seed=1234)
    two = build_prompt("a", SRC, candidates, seed=1234)
    assert one.text == two.text and one.sentences == two.sentences
    other = build_prompt("a", SRC, candidates, seed=1235)
    assert sorted(other.sentences) == sorted(one.sentences)


def test_prompt_permutation_maps_labels_to_systems():
    """Labels go in order to the seeded shuffle of the members' sentences,
    and each label is shown with the sentence at its position."""
    candidates = cands("x .", "y .", "z .")
    prompt = build_prompt("a", SRC, candidates, seed=99)
    order = list(candidates)
    derive_rng(99).shuffle(order)
    assert prompt.sentences == tuple(order)
    for label, sentence in zip(prompt.labels, prompt.sentences):
        assert f"\n{label}: {sentence.text}\n" in prompt.text


def test_prompt_validation():
    with pytest.raises(ValidationError):
        build_prompt("c", SRC, cands("x .", "y ."), seed=None)
    with pytest.raises(ValidationError):
        build_prompt("a", SRC, cands("x ."), seed=None)
    with pytest.raises(ValidationError):
        build_prompt("a", SRC, cands(*[f"v{i} ." for i in range(27)]), seed=None)


# --------------------------------------------------------------------------


def three_prompt(variant="a"):
    return build_prompt(variant, SRC, cands("x .", "y .", "z ."), seed=None)


@pytest.mark.parametrize(
    "reply, expected",
    [
        ("OUTPUT:\nC", "C"),
        ("C", "C"),
        ("The answer: B.", "B"),
        ("I think B is the best candidate", "B"),
    ],
)
def test_parse_single_label(reply, expected):
    assert parse_response(reply, three_prompt()) == ("ABC".index(expected), False)


def test_parse_single_label_ignores_unissued_letters():
    # Z was never issued; fall back to label A, position 0, and flag it
    assert parse_response("the best is Z", three_prompt()) == (0, True)


def test_parse_ranking_takes_longest_distinct_run():
    assert parse_response("OUTPUT:\nC A B", three_prompt("b")) == (2, False)


def test_parse_ranking_with_repeats_keeps_longest_segment():
    # runs "B" and "B A": the longer one's first label is B, position 1
    assert parse_response("B B A", three_prompt("b")) == (1, False)


def test_parse_ranking_fallback_is_issued_order():
    # no run: the first label in issued order, A, at position 0
    assert parse_response("no labels anywhere", three_prompt("b")) == (0, True)


def test_parse_ranking_counts_only_single_issued_labels():
    # "AB" is no label, so the longest run is "C B", not "AB C B"
    assert parse_response("AB C B", three_prompt("b")) == (2, False)


@pytest.mark.parametrize(
    "variant, n, reply, expected",
    [
        ("a", 3, "A close call, but C is best.\nOUTPUT:\nC", 2),
        ("a", 9, "I think the best is C.\nOUTPUT:\nC", 2),
        ("b", 3, "A B C are all fine, but\nOUTPUT:\nC A", 2),
        ("a", 3, "OUTPUT:\nA\nOn reflection:\nOUTPUT:\nB", 1),
    ],
    ids=["article-before-marker", "pronoun-before-marker", "labels-before-marker",
         "last-marker"],
)
def test_parse_reads_the_answer_after_the_last_output_marker(variant, n, reply, expected):
    prompt = build_prompt(variant, SRC, cands(*[f"v{i} ." for i in range(n)]), seed=None)
    assert parse_response(reply, prompt) == (expected, False)


def test_parse_never_raises_on_garbage():
    for garbage in ("", "....", "OUTPUT:\n", "42", "\n\n\n"):
        for variant in ("a", "b"):
            assert parse_response(garbage, three_prompt(variant)) == (0, True)


# --------------------------------------------------------------------------


def test_mock_lexmin_is_content_deterministic():
    prompt = build_prompt("a", SRC, cands("b .", "a .", "c ."), seed=None)
    reply = MockLexminBackend()("sys", prompt.text, 1.0)
    assert parse_response(reply, prompt) == (1, False)  # "a ." got label B


def test_mock_label_backend_answers_fixed_label():
    prompt = three_prompt()
    reply = MockLabelBackend("B")("sys", prompt.text, 1.0)
    assert parse_response(reply, prompt) == (1, False)


def test_make_backend_kinds():
    assert isinstance(make_backend("mock-lexmin"), MockLexminBackend)
    assert isinstance(make_backend("mock-label-a"), MockLabelBackend)
    with pytest.raises(ValidationError):
        make_backend("nonsense")


@pytest.mark.parametrize("kind, base_url, model", [
    ("nonsense", None, None),
    ("http", None, "m"),
    ("http", "http://localhost:1", None),
    ("mock-lexmin", "http://localhost:1", None),
    ("mock-label-a", None, "m"),
], ids=["unknown", "http-no-base-url", "http-no-model", "mock-base-url", "mock-model"])
def test_make_backend_refuses_what_check_backend_refuses(kind, base_url, model):
    with pytest.raises(ValidationError) as checked:
        check_backend(kind, base_url, model)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(checked.value))}$"):
        make_backend(kind, base_url=base_url, model=model)


def test_http_backend_requires_api_key(monkeypatch):
    monkeypatch.delenv("GECKIT_API_KEY", raising=False)
    backend = make_backend("http", base_url="http://localhost:1", model="m")
    with pytest.raises(RuntimeError) as exc:
        backend("sys", "user", 1.0)
    assert "GECKIT_API_KEY" in str(exc.value)


def test_retries_then_success():
    calls = []

    def flaky(sys_msg, user_msg, temperature):
        calls.append(1)
        if len(calls) < 3:
            raise ConnectionError("transient")
        return "OUTPUT:\nA"

    out = call_with_retries(flaky, "s", "u", 1.0, retries=3, backoff=0.0)
    assert out == "OUTPUT:\nA"
    assert len(calls) == 3


def test_retries_exhausted_raises():
    def broken(sys_msg, user_msg, temperature):
        raise ConnectionError("down")

    with pytest.raises(ConnectionError):
        call_with_retries(broken, "s", "u", 1.0, retries=2, backoff=0.0)


# --------------------------------------------------------------------------


def corpus_fixture():
    sources = [ts("s one a"), ts("s two b"), ts("s three c")]
    outputs = [
        SystemOutput("m1", (ts("s one x"), ts("s two b"), ts("s three q"))),
        SystemOutput("m2", (ts("s one a"), ts("s two y"), ts("s three c"))),
        SystemOutput("m3", (ts("s one x"), ts("s two z"), ts("s three c"))),
    ]
    return sources, outputs


def test_rank_corpus_run_naming_and_shape():
    sources, outputs = corpus_fixture()
    runs = llm_rank_corpus(sources, outputs, "a", [1, 2], MockLexminBackend())
    assert [r.output.name for r in runs] == ["llm-rank-a[run0]", "llm-rank-a[run1]"]
    assert all(len(r.output.sentences) == 3 for r in runs)
    for r in runs:
        for i, sentence in enumerate(r.output.sentences):
            assert sentence in {out.sentences[i] for out in outputs}


def test_rank_corpus_identical_across_seeds_with_content_mock():
    """A content-based judge is immune to the label permutation."""
    sources, outputs = corpus_fixture()
    picks = []
    for seed in (1, 2, 3, 4):
        (run,) = llm_rank_corpus(sources, outputs, "a", [seed], MockLexminBackend())
        picks.append(run.output.sentences)
    assert len(set(picks)) == 1


def test_rank_corpus_invariant_under_member_order_with_content_mock():
    sources, outputs = corpus_fixture()
    (fwd,) = llm_rank_corpus(sources, outputs, "a", [7], MockLexminBackend())
    (rev,) = llm_rank_corpus(sources, list(reversed(outputs)), "a", [7],
                             MockLexminBackend())
    assert fwd.output.sentences == rev.output.sentences


def test_rank_corpus_variants_pick_the_lexmin_sentence_under_the_content_mock():
    """mock-lexmin ranks by content, so variant "b"'s top label and variant
    "a"'s one label both give the lexicographically smallest sentence."""
    rng = random.Random(30)
    sources = [ts(f"s{i} .") for i in range(200)]
    outputs = [
        SystemOutput(f"m{k}", tuple(
            TokenSentence(rng.choices("abcd", k=rng.randint(1, 4))) for _ in sources
        ))
        for k in range(5)
    ]
    lexmin = tuple(min(out.sentences[i] for out in outputs) for i in range(len(sources)))
    for variant in ("a", "b"):
        runs = llm_rank_corpus(sources, outputs, variant, run_seeds(0, 5), MockLexminBackend())
        assert [run.output.sentences for run in runs] == [lexmin] * 5
        assert [run.fallbacks for run in runs] == [()] * 5


def test_rank_corpus_positional_mock_depends_on_seed():
    # sanity check that the shuffle is real: a label-A judge's pick varies
    sources, outputs = corpus_fixture()
    seen = set()
    for seed in range(8):
        (run,) = llm_rank_corpus(sources, outputs, "a", [seed], MockLabelBackend())
        seen.add(run.output.sentences)
    assert len(seen) > 1


def test_rank_corpus_no_shuffle_gives_input_order_to_positional_mock():
    sources, outputs = corpus_fixture()
    (run,) = llm_rank_corpus(
        sources, outputs, "a", [0], MockLabelBackend(), shuffle=False
    )
    assert run.output.sentences == outputs[0].sentences


def test_rank_corpus_backend_failure_falls_back_and_is_recorded(sleeps):
    def broken(sys_msg, user_msg, temperature):
        raise ConnectionError("down")

    sources, outputs = corpus_fixture()
    (run,) = llm_rank_corpus(sources, outputs, "a", [0], broken, shuffle=False)
    assert run.output.sentences == outputs[0].sentences  # label A = first
    assert run.fallbacks == (0, 1, 2)
    assert sleeps == [1.0, 2.0, 4.0] * 3  # each sentence's retries, then its fallback


def _http_error(code):
    return urllib.error.HTTPError("http://h/chat/completions", code, "status", {}, None)


# case: an error a backend raises that a retry may fix
_TRANSIENT = {
    "timeout": lambda: TimeoutError("timed out"),
    "connection-refused": lambda: ConnectionRefusedError(111, "refused"),
    "url-error-of-an-os-error": lambda: urllib.error.URLError(OSError(101, "unreachable")),
    "url-error-of-a-timeout": lambda: urllib.error.URLError(TimeoutError("timed out")),
    "remote-disconnected": lambda: http.client.RemoteDisconnected("closed"),
    "incomplete-read": lambda: http.client.IncompleteRead(b"{", 10),
    "http-429": lambda: _http_error(429),
    "http-500": lambda: _http_error(500),
    "http-503": lambda: _http_error(503),
}
# case: an error no retry can fix, and the class it propagates as
_PERMANENT = {
    "invalid-url": (lambda: http.client.InvalidURL("nonnumeric port"), http.client.InvalidURL),
    "url-error-of-a-string": (lambda: urllib.error.URLError("unknown url type: x"),
                              urllib.error.URLError),
    "http-404": (lambda: _http_error(404), urllib.error.HTTPError),
    "bug": (lambda: KeyError("choices"), KeyError),
    "setup": (lambda: BackendSetupError("bad key"), BackendSetupError),
}


@pytest.mark.parametrize("case", list(_TRANSIENT))
def test_an_error_a_retry_may_fix_is_retried_then_falls_back(sleeps, case):
    calls = []

    def failing(sys_msg, user_msg, temperature):
        calls.append(1)
        raise _TRANSIENT[case]()

    sources, outputs = corpus_fixture()
    (run,) = llm_rank_corpus(sources, outputs, "a", [0], failing, shuffle=False)
    assert run.output.sentences == outputs[0].sentences  # label A = first
    assert run.fallbacks == (0, 1, 2)
    assert len(calls) == 3 * 4
    assert sleeps == [1.0, 2.0, 4.0] * 3


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("case", list(_PERMANENT))
def test_an_error_no_retry_can_fix_stops_the_run_at_once(sleeps, case, jobs):
    error, kind = _PERMANENT[case]
    prompts = []

    def failing(sys_msg, user_msg, temperature):
        prompts.append(user_msg)
        raise error()

    sources, outputs = corpus_fixture()
    with pytest.raises(kind):
        llm_rank_corpus(sources, outputs, "a", [0], failing, jobs=jobs)
    assert sleeps == []
    assert len(set(prompts)) == len(prompts)  # no sentence is asked again
    if jobs == 1:
        assert len(prompts) == 1  # the first error stops the run


def test_an_error_no_retry_can_fix_is_a_traceback_from_the_cli(tmp_path, monkeypatch, capsys):
    """Not a run of fallbacks that exits 0: the error is a bug, so exit 2."""
    import geckit.llm

    def failing(sys_msg, user_msg, temperature):
        raise http.client.InvalidURL("nonnumeric port")

    monkeypatch.setitem(geckit.llm._BACKENDS, "mock-lexmin", lambda base_url, model: failing)
    monkeypatch.setattr("geckit.llm.time.sleep", lambda seconds: pytest.fail("slept"))
    argv = ["llm-rank", "--src", str(tmp_path / "src.txt"), "--out-prefix", str(tmp_path / "o")]
    for name, text in (("src", "a b .\n"), ("m1", "a c .\n"), ("m2", "a d .\n")):
        (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8")
        argv += [] if name == "src" else ["--sys", str(tmp_path / f"{name}.txt")]
    from geckit.cli import main

    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "http.client.InvalidURL: nonnumeric port"
    assert not (tmp_path / "o.run0.txt").exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_missing_api_key_stops_the_run_without_retries(monkeypatch, jobs):
    monkeypatch.delenv("GECKIT_API_KEY", raising=False)
    sleeps = []
    monkeypatch.setattr("geckit.llm.time.sleep", sleeps.append)
    backend = make_backend("http", base_url="http://localhost:1", model="m")
    sources, outputs = corpus_fixture()
    with pytest.raises(BackendSetupError, match="GECKIT_API_KEY"):
        llm_rank_corpus(sources, outputs, "a", [0], backend, jobs=jobs)
    assert sleeps == []


class _QuietServer(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address):
        pass  # a client that timed out has closed its socket


@pytest.fixture
def chat_server(monkeypatch):
    """Start a chat-completions endpoint on 127.0.0.1 in a thread.

    ``start(*replies, delay=0)`` answers the n-th POST with the n-th
    ``(status, body)`` reply, repeating the last, after ``delay`` seconds.
    It returns the base URL and the list of Authorization headers received.
    """
    monkeypatch.setenv("GECKIT_API_KEY", "test-key")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")  # never route to a configured proxy
    servers = []

    def start(*replies, delay=0.0):
        received = []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                received.append(self.headers["Authorization"])
                status, body = replies[min(len(received), len(replies)) - 1]
                threading.Event().wait(delay)  # time.sleep may be patched
                data = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        server = _QuietServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_port}", received

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def sleeps(monkeypatch):
    """The backoff sleeps of call_with_retries, recorded instead of slept."""
    recorded = []
    monkeypatch.setattr("geckit.llm.time.sleep", recorded.append)
    return recorded


_REPLY_B = '{"choices": [{"message": {"content": "OUTPUT:\\nB"}}]}'


@pytest.mark.parametrize(
    "status, body",
    [
        (400, '{"error": "bad request"}'),
        (401, '{"error": "bad key"}'),
        (404, "not found"),
        (200, "not json"),
        (200, '{"choices": []}'),
        (200, '{"choices": [{"message": {"content": null}}]}'),
    ],
)
def test_http_rejection_or_malformed_reply_stops_the_run_at_once(
    chat_server, sleeps, status, body
):
    url, received = chat_server((status, body))
    backend = make_backend("http", base_url=url, model="m")
    sources, outputs = corpus_fixture()
    with pytest.raises(BackendSetupError, match=str(status) if status != 200 else "malformed"):
        llm_rank_corpus(sources, outputs, "a", [0], backend)
    assert received == ["Bearer test-key"]
    assert sleeps == []


@pytest.mark.parametrize("status", [429, 500, 503])
def test_http_transient_errors_are_retried_then_fall_back(chat_server, sleeps, status):
    url, received = chat_server((status, '{"error": "busy"}'))
    backend = make_backend("http", base_url=url, model="m")
    sources, outputs = corpus_fixture()
    (run,) = llm_rank_corpus(sources, outputs, "a", [0], backend, shuffle=False)
    assert run.fallbacks == (0, 1, 2)
    assert run.output.sentences == outputs[0].sentences
    assert len(received) == 3 * 4
    assert sleeps == [1.0, 2.0, 4.0] * 3


def test_http_transient_error_then_success_uses_the_answer(chat_server, sleeps):
    url, received = chat_server((503, "busy"), (200, _REPLY_B))
    backend = make_backend("http", base_url=url, model="m")
    assert call_with_retries(backend, "s", "u", 1.0) == "OUTPUT:\nB"
    assert len(received) == 2
    assert sleeps == [1.0]


def test_http_timeout_is_retried(chat_server, sleeps):
    url, received = chat_server((200, _REPLY_B), delay=2.0)
    backend = HttpChatBackend(url, "m", timeout=0.2)
    with pytest.raises(TimeoutError):
        call_with_retries(backend, "s", "u", 1.0, retries=1)
    assert len(received) == 2
    assert sleeps == [1.0]


def test_rank_corpus_parallel_matches_serial():
    sources, outputs = corpus_fixture()
    (serial,) = llm_rank_corpus(sources, outputs, "b", [3], MockLexminBackend())
    (parallel,) = llm_rank_corpus(
        sources, outputs, "b", [3], MockLexminBackend(), jobs=4
    )
    assert serial.output.sentences == parallel.output.sentences


@pytest.mark.parametrize("jobs", [0, -3])
def test_rank_corpus_rejects_jobs_below_one(jobs):
    sources, outputs = corpus_fixture()
    with pytest.raises(ValidationError, match=f"jobs must be >= 1, got {jobs}"):
        llm_rank_corpus(sources, outputs, "a", [0], MockLexminBackend(), jobs=jobs)


def test_rank_corpus_validates():
    sources, outputs = corpus_fixture()
    with pytest.raises(ValidationError, match="^runs must be >= 1$"):
        llm_rank_corpus(sources, outputs, "a", [], MockLexminBackend())  # one run per seed
    with pytest.raises(ValidationError):
        llm_rank_corpus(sources[:2], outputs, "a", [1], MockLexminBackend())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_two_candidate_prompts_cover_both_orders_but_lexmin_pick_is_stable(seed):
    candidates = cands("b x", "a x")
    prompt = build_prompt("a", SRC, candidates, seed=seed)
    reply = MockLexminBackend()("sys", prompt.text, 1.0)
    position, _ = parse_response(reply, prompt)
    assert prompt.sentences[position] == ts("a x")
