"""A loopback completion service that answers as the mock oracle, for console runs over HTTP.

    python3 tools/oracle_server.py PORT_FILE KIND=CORPUS [KIND=CORPUS ...]

It serves `/v1/completions` on 127.0.0.1 at a free port, which it writes
to PORT_FILE once it listens. Each request is answered by a
`MockOracleBackend` over the gold samples of every corpus given, after a
short delay, so requests that overlap show as more than one in flight.
`GET /peak` returns the most requests in flight at once since the last
`GET /peak`, and starts the count again. It runs until it is killed.
"""

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from tabgen.backends import GenerationRequest, MockOracleBackend
from tabgen.corpus import load_jsonl
from tabgen.kinds import DatasetKind

DELAY_S = 0.005


class OracleServer(ThreadingHTTPServer):
    """The HTTP server, holding the oracle and the in-flight count its handlers share."""

    daemon_threads = True

    def __init__(self, oracle: MockOracleBackend):
        super().__init__(("127.0.0.1", 0), OracleHandler)
        self.oracle = oracle
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0


class OracleHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive, as a hosted service would
    # A response goes out in more than one write; without this, a kept-alive
    # connection waits out the client's delayed ACK before the body is sent.
    disable_nagle_algorithm = True
    server: OracleServer

    def do_POST(self) -> None:
        server = self.server
        with server.lock:
            server.in_flight += 1
            server.peak = max(server.peak, server.in_flight)
        try:
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            time.sleep(DELAY_S)
            request = GenerationRequest(payload["prompt"], max_new_tokens=payload["max_tokens"])
            text = server.oracle.generate(request).text
        finally:
            with server.lock:
                server.in_flight -= 1
        self._send({"choices": [{"text": text}]})

    def do_GET(self) -> None:
        with self.server.lock:
            peak, self.server.peak = self.server.peak, 0
        self._send({"peak": peak})

    def _send(self, data: dict) -> None:
        body = json.dumps(data, ensure_ascii=False).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args) -> None:  # one line per request would drown the run's output
        pass


def main(port_file: str, *corpora: str) -> None:
    samples = []
    for spec in corpora:
        kind, path = spec.split("=", 1)
        samples += load_jsonl(path, DatasetKind(kind))
    server = OracleServer(MockOracleBackend([(s.text, s.gold) for s in samples]))
    # Written whole, so a reader never sees a partial port.
    with open(port_file + ".tmp", "w", encoding="utf-8") as stream:
        stream.write(str(server.server_port))
    os.replace(port_file + ".tmp", port_file)
    server.serve_forever()


if __name__ == "__main__":
    main(*sys.argv[1:])
