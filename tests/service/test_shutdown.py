"""``repro serve`` shuts down cleanly on Ctrl-C, even with a client connected.

A real server subprocess: SIGINT reaches asyncio's own handler exactly as a
terminal Ctrl-C does, and stderr is what the user would see.
"""

import http.client
import os
import signal
import subprocess
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def test_sigint_with_an_idle_keep_alive_client_prints_no_traceback(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--store-dir", str(tmp_path / "store")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    conn = None
    try:
        line = server.stdout.readline()
        assert line.startswith("serving on http://"), line
        port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("GET", "/v1/healthz")
        response = conn.getresponse()
        response.read()
        assert response.status == 200
        # The connection stays open and idle: the server is parked reading
        # the next request when the interrupt arrives.
        server.send_signal(signal.SIGINT)
        out, err = server.communicate(timeout=30)
    finally:
        if conn is not None:
            conn.close()
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert server.returncode == 0
    assert "shutting down" in out
    assert "Traceback" not in err, err
