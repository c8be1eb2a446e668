"""The benchmark's checks on itself: span arithmetic, scaling to reference
speed and stub determinism.

``run()`` returns a list of problems, empty when all hold. Every benchmark
run calls it first; ``python3 perfbench/selfcheck.py`` (with ``src`` on
PYTHONPATH) runs it alone.
"""

from __future__ import annotations

import sys

from stub import PERMANENT_SHARE, TRANSIENT_SHARE, StubModel, answer, failure_plan, prompt_digest
from tracer import outermost_total, self_times


def _span_arithmetic() -> list[str]:
    # root [0,10]; a [1,4] holds a1 [2,3]; b [3,6] overlaps a (another
    # thread) and holds d [4,6], which nests a same-named d2 [5,6]; c [8,9]
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["a1", 2.0, 3.0, 1],
        ["b", 3.0, 6.0, 0],
        ["c", 8.0, 9.0, 0],
        ["d", 4.0, 6.0, 3],
        ["d", 5.0, 6.0, 5],
    ]
    expected_self = [10 - 5 - 1, 3 - 1, 1, 3 - 2, 1, 2 - 1, 1]
    problems = []
    got = self_times(spans)
    if any(abs(g - e) > 1e-12 for g, e in zip(got, expected_self)):
        problems.append(f"self times {got} != {expected_self}")
    if outermost_total(spans, "d") != 2.0:
        problems.append(f"outermost d total {outermost_total(spans, 'd')} != 2.0")
    return problems


def _scaling() -> list[str]:
    from workloads import Child

    problems = []
    # 3 s wall of which 2 s CPU, run at half speed: 1 s waited, 1 s of CPU
    waited = Child({"code": 0, "wall_s": 3.0, "cpu_s": 2.0, "rss_mb": 1.0, "slowdown": 2.0})
    if (waited.wall_s, waited.cpu_s) != (2.0, 1.0):
        problems.append(f"scaled wall, cpu {waited.wall_s}, {waited.cpu_s} != 2.0, 1.0")
    # two threads busy at once: more CPU than wall, nothing waited
    parallel = Child({"code": 0, "wall_s": 2.0, "cpu_s": 3.0, "rss_mb": 1.0, "slowdown": 2.0})
    if (parallel.wall_s, parallel.cpu_s) != (1.0, 1.5):
        problems.append(f"scaled wall, cpu {parallel.wall_s}, {parallel.cpu_s} != 1.0, 1.5")
    return problems


def _stub_determinism() -> list[str]:
    from depgrowth.cli import HttpModelClient
    from depgrowth.complexity import MockModelClient

    problems = []
    body = {"system": "system text", "user": "user text é"}
    digest = prompt_digest(body["system"], body["user"])
    expected = MockModelClient().complete(body["system"], body["user"])
    if answer(set(), set(), digest, 1, body) != answer(set(), set(), digest, 1, body):
        problems.append("stub answer differs between two calls")
    digests = [prompt_digest("s", str(i)) for i in range(300)]
    if failure_plan(digests, 3) != failure_plan(digests[:150][::-1] + digests[150:], 3):
        problems.append("failure plan depends on the order within the first half")
    permanent, transient = failure_plan(digests, 3)
    if (permanent | transient) - set(digests[:150]):
        problems.append("failure plan reaches into the second half of the queue")
    sizes = (round(PERMANENT_SHARE * 300), round(TRANSIENT_SHARE * 300))
    if (len(permanent), len(transient)) != sizes or permanent & transient:
        problems.append(f"failure plan sizes {len(permanent)}, {len(transient)} != {sizes}")
    with StubModel(set(), {digest}) as stub:
        client = HttpModelClient(stub.endpoint, "stub", timeout=10)
        try:
            first = client.complete(body["system"], body["user"])
        except OSError:
            first = None
        if first == expected:
            problems.append("stub did not fail the first attempt of a transient prompt")
        if client.complete(body["system"], body["user"]) != expected:
            problems.append("stub answer differs from MockModelClient")
        if [status for _t, _d, status in stub.arrivals] not in ([503, 200], [200, 200]):
            problems.append(f"stub arrival log {stub.arrivals}")
    return problems


def run() -> list[str]:
    return _span_arithmetic() + _scaling() + _stub_determinism()


if __name__ == "__main__":
    found = run()
    for problem in found:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck: ok" if not found else f"selfcheck: {len(found)} problem(s)")
    sys.exit(1 if found else 0)
