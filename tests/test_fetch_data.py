"""scripts/fetch_data.py: standard library only, tested on 127.0.0.1."""

import importlib.util
import socket
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fetch_data.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("fetch_data", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fetch_data = _load_script()


class _QuietServer(ThreadingHTTPServer):
    daemon_threads = True


@pytest.fixture
def file_server(monkeypatch):
    """Serve ``/present.txt`` on 127.0.0.1 in a thread; any other path is 404."""
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")  # never route to a configured proxy

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            if self.path != "/present.txt":
                self.send_error(404)
                return
            data = b"one line\nanother\n"
            self.send_response(200)
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
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_try_get_returns_the_body_of_a_200(file_server, capsys):
    session = urllib.request.build_opener()
    assert fetch_data.try_get(session, f"{file_server}/present.txt") == b"one line\nanother\n"
    assert capsys.readouterr().err == ""


def test_try_get_returns_none_quietly_on_404(file_server, capsys):
    session = urllib.request.build_opener()
    assert fetch_data.try_get(session, f"{file_server}/absent.txt") is None
    assert capsys.readouterr().err == ""


def test_try_get_names_the_url_when_the_connection_is_refused(monkeypatch, capsys):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    with socket.socket() as sock:  # a port that was free a moment ago
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    url = f"http://127.0.0.1:{port}/present.txt"
    assert fetch_data.try_get(urllib.request.build_opener(), url) is None
    err = capsys.readouterr().err
    assert url in err and "refused" in err.lower()
