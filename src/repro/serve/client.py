"""Small stdlib client for the estimation service.

``http.client`` only — usable from any Python without this package's
dependencies installed (copy the file, point it at a server).  One
request per connection, matching the server's ``Connection: close``
discipline.

Usage::

    client = ServeClient("http://127.0.0.1:8400")
    client.healthz()
    response = client.call("failure_estimate", {
        "family": {"type": "CountSketch", "params": {"m": 16, "n": 64}},
        "instance": {"type": "PermutedIdentity", "n": 64, "d": 4},
        "epsilon": 0.5, "trials": 50, "seed": 0,
    })
    response["result"]            # the estimate
    response["replay"]            # offline-reproduction recipe
    response["cache"]             # per-request hit/miss tally
"""

from __future__ import annotations

import json
import urllib.parse
from typing import Any, Dict, Optional

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """A non-200 server response.

    ``status`` is the HTTP code; ``payload`` the decoded error body;
    ``retry_after`` the parsed ``Retry-After`` hint on 429s (seconds),
    else ``None``.
    """

    def __init__(self, status: int, payload: Dict[str, Any],
                 retry_after: Optional[float] = None) -> None:
        super().__init__(
            f"server returned {status}: "
            f"{payload.get('error', payload)}"
        )
        self.status = status
        self.payload = payload
        self.retry_after = retry_after


class ServeClient:
    """JSON-over-HTTP client for ``python -m repro.serve``."""

    def __init__(self, base_url: str, timeout: float = 600.0) -> None:
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(
                f"only http:// urls are supported, got {base_url!r}"
            )
        netloc = parsed.netloc or parsed.path
        host, _, port = netloc.partition(":")
        if not host:
            raise ValueError(f"no host in base url {base_url!r}")
        self._host = host
        self._port = int(port) if port else 80
        self._timeout = timeout

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        # Imported on the first request: a process that imports the
        # client but never sends one loads no HTTP stack.
        import http.client

        connection = http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout,
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body, sort_keys=True,
                                     allow_nan=False).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload,
                               headers=headers)
            response = connection.getresponse()
            raw = response.read()
            decoded: Dict[str, Any] = json.loads(raw.decode("utf-8"))
            if response.status != 200:
                retry_after: Optional[float] = None
                header = response.getheader("Retry-After")
                if header is not None:
                    try:
                        retry_after = float(header)
                    except ValueError:
                        retry_after = None
                raise ServeError(response.status, decoded, retry_after)
            return decoded
        finally:
            connection.close()

    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        """``GET /metrics``."""
        return self._request("GET", "/metrics")

    def call(self, endpoint: str,
             payload: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /v1/<endpoint>`` with a JSON payload."""
        return self._request("POST", f"/v1/{endpoint}", payload)
