"""Localhost stand-in for the rating model endpoint.

Answers are ``MockModelClient`` responses, a pure function of the prompt, so
every rating can be checked. A small fixed share of prompts fails: some
permanently with HTTP 404, others once with a 503 or a malformed body
before answering. Service takes a fixed delay and at most two requests are
served at a time, matching a two-core host. Every arrival is logged.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from depgrowth.complexity import MockModelClient

SERVICE_DELAY_S = 0.005
MAX_CONCURRENT = 2
PERMANENT_SHARE = 0.005
TRANSIENT_SHARE = 0.01


def prompt_digest(system_text: str, user_text: str) -> str:
    """The digest ``depgrowth.complexity.prompt_sha256`` stamps on ratings."""
    return hashlib.sha256(system_text.encode("utf-8") + b"\x1f" + user_text.encode("utf-8")).hexdigest()


def failure_plan(queue: list[str], seed: int) -> tuple[set[str], set[str]]:
    """Pick the permanently failing and the once-failing prompts.

    ``queue`` holds prompt digests in the order the program submits them.
    The shares are rounded to whole prompts so every input fails the same
    number of requests, and they are drawn from the first half of the queue
    only: a failing prompt near the end would leave one worker sleeping in
    backoff while the other idles, which would make wall time depend on the
    seed. Within that half the pick is a seeded hash.
    """
    first_half = queue[: (len(queue) + 1) // 2]
    ranked = sorted(set(first_half), key=lambda d: hashlib.sha256(f"{seed}:{d}".encode()).hexdigest())
    n_perm = max(1, round(PERMANENT_SHARE * len(queue)))
    n_trans = max(1, round(TRANSIENT_SHARE * len(queue)))
    return set(ranked[:n_perm]), set(ranked[n_perm : n_perm + n_trans])


def answer(permanent: set[str], transient: set[str], digest: str, attempt: int, body: dict) -> tuple[int, bytes]:
    """Status and body for the ``attempt``-th request (1-based) of a prompt."""
    if digest in permanent:
        return 404, b'{"error": "model not found"}'
    if digest in transient and attempt == 1:
        if int(digest, 16) % 2:
            return 503, b'{"error": "overloaded"}'
        return 200, b'{"text": "<rating-response>truncated'
    text = MockModelClient().complete(body["system"], body["user"])
    return 200, json.dumps({"text": text}).encode("utf-8")


class StubModel:
    """Threaded HTTP server on 127.0.0.1; use as a context manager."""

    def __init__(self, permanent: set[str], transient: set[str]) -> None:
        self.permanent = permanent
        self.transient = transient
        self._lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(MAX_CONCURRENT)
        self.arrivals: list[tuple[float, str, int]] = []
        self._attempts: dict[str, int] = {}
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self) -> None:  # noqa: N802 (http.server naming)
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                with stub._slots:
                    digest = prompt_digest(body["system"], body["user"])
                    with stub._lock:
                        attempt = stub._attempts.get(digest, 0) + 1
                        stub._attempts[digest] = attempt
                    time.sleep(SERVICE_DELAY_S)
                    status, payload = answer(stub.permanent, stub.transient, digest, attempt, body)
                    with stub._lock:
                        stub.arrivals.append((time.perf_counter(), digest, status))
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, format: str, *args: object) -> None:  # noqa: A002
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/complete"

    def reset(self) -> None:
        """Forget arrivals and attempts, so the next run starts fresh."""
        with self._lock:
            self.arrivals = []
            self._attempts = {}

    def __enter__(self) -> "StubModel":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
