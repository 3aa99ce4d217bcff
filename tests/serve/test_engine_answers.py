"""Every answer ``ServeEngine.handle`` gives, pinned by digest.

A seeded stream of requests covers every branch of the request path on
both clocks: valid, invalid, duplicate and over-cap submits over four
tenants; unknown ops, missing fields, non-finite and bool fields;
cancels caught in admission, pending, waiting and running, repeated and
of completed jobs; status of admitted, waiting, running, completed and
unknown ids; ``stats``, ``ping`` and one final ``drain``.  The SHA-256
of the ``canonical_json`` answers and the latency histograms' names and
counts were computed on commit ``f8755a2``, before the request path
became a dispatch table over state built at init, with::

    git worktree add ../before f8755a2
    cp tests/serve/test_engine_answers.py ../before/tests/serve/
    cd ../before && PYTHONPATH=src python tests/serve/test_engine_answers.py

Leaving out the inputs whose answers changed on purpose since then: a
non-positive ``runtime`` / ``estimate`` (now a protocol error) and a
second ``drain`` / ``shutdown`` (each now answered with its own id).
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from typing import Any, Iterator

import pytest

from repro.api import SimulationSetup
from repro.records import canonical_json
from repro.serve.engine import ServeEngine
from repro.serve.protocol import encode

_TENANTS = ("alice", "bob", "carol", "dave")

#: Requests refused before any engine state is read.
_MALFORMED: tuple[dict[str, Any], ...] = (
    {"op": "warp"},
    {"id": 3},
    {"op": 7},
    {"op": "submit", "id": 1, "size": 4},
    {"op": "cancel"},
    {"op": "status", "id": -1},
    {"op": "status", "id": True},
    {"op": "status", "id": "3"},
    {"op": "submit", "id": 1, "size": True, "runtime": 5.0},
    {"op": "submit", "id": 1, "size": 0, "runtime": 5.0},
    {"op": "submit", "id": 1, "size": 2.0, "runtime": 5.0},
    {"op": "submit", "id": 1, "size": 4, "runtime": True},
    {"op": "submit", "id": 1, "size": 4, "runtime": "5"},
    {"op": "submit", "id": 1, "size": 4, "runtime": float("nan")},
    {"op": "submit", "id": 1, "size": 4, "runtime": 5.0, "estimate": float("inf")},
    {"op": "submit", "id": 1, "size": 4, "runtime": 5.0, "arrival": -float("inf")},
    {"op": "submit", "id": 1, "size": 4, "runtime": 10**400},
    {"op": "submit", "id": 1, "size": 4, "runtime": 5.0, "estimate": False},
    {"op": "submit", "id": 1, "size": 4, "runtime": 5.0, "tenant": 3},
)


def request_stream(clock: str, seed: int = 0, n: int = 1500) -> Iterator[dict[str, Any]]:
    """``n`` seeded requests, then one ``drain``."""
    rng = random.Random(seed)
    submitted: list[int] = []
    t = 0.0
    next_id = 0
    for _ in range(n):
        r = rng.random()
        if r < 0.55:
            if submitted and rng.random() < 0.08:
                job_id = rng.choice(submitted)  # a duplicate
            else:
                job_id = next_id
                next_id += 1
                submitted.append(job_id)
            msg = {
                "op": "submit",
                "id": job_id,
                "size": rng.choice((1, 2, 4, 8, 16, 32, 64, 7, 11, 10**6)),
                "runtime": rng.choice((30.0, 120.0, 600, 3600.0)),
                "tenant": rng.choice(_TENANTS),
            }
            if rng.random() < 0.3:
                msg["estimate"] = msg["runtime"] * rng.choice((1, 2, 5))
            if clock == "trace":
                t += rng.choice((0.0, 10.0, 45.0))
                if rng.random() < 0.03:
                    msg["arrival"] = max(t - 500.0, 0.0)  # in the simulated past
                elif rng.random() > 0.02:
                    msg["arrival"] = t
            elif rng.random() < 0.1:
                msg["arrival"] = rng.choice((0, 5.5))
            yield msg
        elif r < 0.70:
            known = submitted and rng.random() < 0.9
            yield {"op": "status", "id": rng.choice(submitted) if known else 10**5}
        elif r < 0.80:
            known = submitted and rng.random() < 0.9
            yield {"op": "cancel", "id": rng.choice(submitted) if known else 10**5}
        elif r < 0.84:
            yield {"op": "stats", "id": rng.randrange(100)} if rng.random() < 0.5 else {"op": "stats"}
        elif r < 0.87:
            yield {"op": "ping"}
        else:
            yield dict(rng.choice(_MALFORMED))
    yield {"op": "drain", "id": 99}


def run_stream(clock: str) -> tuple[list[dict[str, Any]], dict[str, int]]:
    """The answers to :func:`request_stream` and the latency histograms'
    counts by name."""
    setup = SimulationSetup(site="sdsc", n_jobs=80, n_failures=40, seed=11)
    engine = ServeEngine.from_setup(
        setup, clock=clock, tenant_cap=6, engine_cap=24, pump_interval=4
    )
    answers = [engine.handle(message) for message in request_stream(clock)]
    histograms = engine.metrics_snapshot()["histograms"]
    return answers, {name: h["count"] for name, h in histograms.items()}


def digest(answers: list[dict[str, Any]]) -> str:
    blob = "\n".join(canonical_json(answer) for answer in answers)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def wire_digest(answers: list[dict[str, Any]]) -> str:
    """The same answers as the service writes them: ``encode``'s lines."""
    return hashlib.sha256(b"".join(encode(answer) for answer in answers)).hexdigest()


_PINNED = {
    "logical": (
        "987331b8b1c5ba1922ddc2cb0189e663f530c63f1eb5c69e770fd3d1adbf1f6a",
        {
            "serve.cancel_latency_us": 159,
            "serve.drain_latency_us": 1,
            "serve.ping_latency_us": 52,
            "serve.stats_latency_us": 64,
            "serve.status_latency_us": 231,
            "serve.submit_latency_us": 779,
        },
    ),
    "trace": (
        "110f7c1cb4258777305b15d88089d417433dc65ce96510af3a862b6f884b6ae2",
        {
            "serve.cancel_latency_us": 164,
            "serve.drain_latency_us": 1,
            "serve.ping_latency_us": 50,
            "serve.stats_latency_us": 55,
            "serve.status_latency_us": 213,
            "serve.submit_latency_us": 803,
        },
    ),
}


#: :func:`wire_digest` of the same streams, computed while ``encode`` was
#: ``canonical_json`` plus a newline for every message.
_PINNED_WIRE = {
    "logical": "8e11af8a4d3ac2c932a995e879e388018e69cb13d098fbd2bfafa07e89e8062e",
    "trace": "af996a40990f1f4d9c8f9b495de3b37ec70209b940e5aa812a9c75d9a7893042",
}


@pytest.mark.parametrize("clock", ["logical", "trace"])
def test_answers_and_histograms_are_pinned(clock):
    answers, histograms = run_stream(clock)
    assert (digest(answers), histograms) == _PINNED[clock]


@pytest.mark.parametrize("clock", ["logical", "trace"])
def test_wire_lines_are_canonical_json_and_pinned(clock):
    """``encode`` formats a refusal from its own template; every line it
    writes must still be the ``canonical_json`` line."""
    answers, _ = run_stream(clock)
    for answer in answers:
        assert encode(answer) == (canonical_json(answer) + "\n").encode()
    assert wire_digest(answers) == _PINNED_WIRE[clock]


def test_stream_reaches_every_branch():
    """What the digests cover, so a pin cannot silently lose a branch."""
    seen: Counter[str] = Counter()
    for clock in ("logical", "trace"):
        answers, _ = run_stream(clock)
        for answer in answers:
            for key in ("state", "caught"):
                if key in answer:
                    seen[f"{key}:{answer[key]}"] += 1
            if answer.get("rejected"):
                seen["over cap"] += 1
            elif answer.get("protocol_error"):
                seen["protocol error"] += 1
            elif "queued" in answer:
                seen["acked"] += 1
            elif "error" in answer:
                for phrase in (
                    "already submitted", "already completed", "not known",
                    "no rectangular partition", "simulated past", "requires an 'arrival'",
                ):
                    if phrase in answer["error"]:
                        seen[phrase] += 1
        assert answers[-1]["ok"] and answers[-1]["report"]["records"]
    expected = {
        "state:admitted", "state:pending", "state:waiting", "state:running",
        "state:completed", "state:cancelled",
        "caught:admission", "caught:pending", "caught:waiting", "caught:running",
        "caught:cancelled",
        "over cap", "protocol error", "acked",
        "already submitted", "already completed", "not known",
        "no rectangular partition", "simulated past", "requires an 'arrival'",
    }
    assert expected <= set(seen), expected - set(seen)


if __name__ == "__main__":
    for clock in ("logical", "trace"):
        answers, histograms = run_stream(clock)
        print(clock, digest(answers), wire_digest(answers), histograms)
