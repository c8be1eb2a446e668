"""Tests for prompt rendering, response parsing, retries, and agreement."""

from __future__ import annotations

import http.client
import io
import pathlib
import re
import sys
import threading
import time
import urllib.request
from datetime import date
from xml.sax.saxutils import escape, unescape

import pytest
from hypothesis import given
from hypothesis import strategies as st

from depgrowth import complexity
from depgrowth.complexity import (
    MIN_NOTE_CHARS,
    SYSTEM_PROMPT,
    USER_PROMPT_TEMPLATE,
    AgreementStats,
    ComplexityRating,
    ExhaustedRetries,
    HttpModelClient,
    MalformedResponse,
    MockModelClient,
    NotEligible,
    PromptBundle,
    RequestRejected,
    RetryPolicy,
    _TokenBucket,
    _xml_unescape,
    agreement_stats,
    build_prompt,
    eligible_for_rating,
    parse_rating_response,
    prompt_sha256,
    rate_many,
    rating_record,
    render_rating,
    xml_escape,
)
from depgrowth.ingest import PackageRelease, RepoSnapshot
from depgrowth.semver import ReleaseType
from depgrowth.stats import DegenerateInput

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _release(notes, *, package="turbo-widget", ecosystem="npm"):
    return PackageRelease(
        release_date=date(2023, 5, 2),
        ecosystem=ecosystem,
        package_name=package,
        owner="acme",
        repo_name="turbo-widget",
        version_text="2.1.0",
        release_notes=notes,
    )


def _repo(**overrides):
    fields = dict(
        snapshot_date=date(2023, 5, 1),
        owner="acme",
        name="turbo-widget",
        stars=412,
        forks=37,
        is_fork=False,
        description='Fast & "zero-config" widget <engine> for DAGs',
        topics=("widgets", "dag", "build-tools"),
        language="TypeScript",
    )
    fields.update(overrides)
    return RepoSnapshot(**fields)


# Fixture notes for the rendered golden file. Deliberately contain XML
# metacharacters, backticks, and newlines; length comfortably over the
# eligibility floor.
GOLDEN_NOTES = (
    "## 2.1.0\n"
    "\n"
    "This release reworks the scheduler so that <Widget> graphs with "
    "diamond-shaped dependency chains resolve in topological order && "
    "without duplicate builds.\n"
    "\n"
    + "- Caching: artifact fingerprints now include the toolchain version, "
    "so upgrading node no longer reuses stale outputs.\n" * 4
    + "\n"
    "Upgrade notes: run `turbo-widget migrate` once; the config schema "
    "gains a required `pipeline` block and drops `tasks`."
)


def golden_release():
    return _release(GOLDEN_NOTES)


# ---------------------------------------------------------------------------
# eligibility


def test_notes_at_floor_are_eligible():
    assert eligible_for_rating(_release("x" * MIN_NOTE_CHARS))


def test_notes_one_below_floor_are_not():
    assert not eligible_for_rating(_release("x" * (MIN_NOTE_CHARS - 1)))


def test_absent_notes_not_eligible():
    assert not eligible_for_rating(_release(None))


def test_surrounding_whitespace_does_not_count():
    padded = "  \n" + "x" * (MIN_NOTE_CHARS - 1) + "\t\n "
    assert not eligible_for_rating(_release(padded))
    assert eligible_for_rating(_release("  " + "x" * MIN_NOTE_CHARS + "\n"))


def test_eligibility_counts_code_points_not_bytes():
    # each é is 2 bytes in UTF-8 but a single code point
    assert eligible_for_rating(_release("é" * MIN_NOTE_CHARS))
    assert not eligible_for_rating(_release("é" * (MIN_NOTE_CHARS - 1)))


def test_golden_fixture_is_eligible():
    assert len(GOLDEN_NOTES.strip()) >= MIN_NOTE_CHARS
    assert eligible_for_rating(golden_release())


# ---------------------------------------------------------------------------
# golden templates


def test_system_prompt_matches_golden_bytes():
    assert SYSTEM_PROMPT.encode("utf-8") == (GOLDEN / "system_prompt.txt").read_bytes()


@given(st.text() | st.text(alphabet=st.sampled_from("&<>;amplgt#x ab")))
def test_xml_escaping_matches_saxutils(text):
    assert xml_escape(text) == escape(text)
    assert _xml_unescape(text) == unescape(text)


def test_user_template_matches_golden_bytes():
    expected = (GOLDEN / "user_prompt_template.txt").read_bytes()
    assert USER_PROMPT_TEMPLATE.encode("utf-8") == expected


def test_template_has_each_placeholder_exactly_once():
    for name in (
        "{repo_name}",
        "{repo_description}",
        "{repo_topics}",
        "{repo_language}",
        "{release_notes}",
    ):
        assert USER_PROMPT_TEMPLATE.count(name) == 1


def test_template_has_no_other_braces():
    stripped = USER_PROMPT_TEMPLATE
    for name in ("repo_name", "repo_description", "repo_topics", "repo_language", "release_notes"):
        stripped = stripped.replace("{" + name + "}", "")
    assert "{" not in stripped and "}" not in stripped


def test_rendered_prompt_matches_golden_bytes():
    bundle = build_prompt(golden_release(), _repo())
    expected = (GOLDEN / "user_prompt_rendered.txt").read_bytes()
    assert bundle.user_text.encode("utf-8") == expected
    assert bundle.system_text == SYSTEM_PROMPT


# ---------------------------------------------------------------------------
# build_prompt


def test_build_prompt_is_deterministic():
    a = build_prompt(golden_release(), _repo())
    b = build_prompt(golden_release(), _repo())
    assert a == b and a.user_text == b.user_text


def test_build_prompt_rejects_ineligible():
    with pytest.raises(NotEligible):
        build_prompt(_release("too short"), _repo())


def test_topics_join_comma_space():
    bundle = build_prompt(golden_release(), _repo())
    assert "<repository-topics>widgets, dag, build-tools</repository-topics>" in bundle.user_text


def test_empty_topics_render_empty_element():
    bundle = build_prompt(golden_release(), _repo(topics=()))
    assert "<repository-topics></repository-topics>" in bundle.user_text


def test_absent_description_and_language_become_literal_null():
    bundle = build_prompt(golden_release(), _repo(description=None, language=None))
    assert "<repository-description>null</repository-description>" in bundle.user_text
    assert "<repository-language>null</repository-language>" in bundle.user_text


def test_repo_name_is_owner_slash_name():
    bundle = build_prompt(golden_release(), _repo())
    assert "<repository-name>acme/turbo-widget</repository-name>" in bundle.user_text


def test_xml_metacharacters_are_escaped():
    bundle = build_prompt(golden_release(), _repo())
    assert "&lt;Widget&gt;" in bundle.user_text
    assert "&amp;&amp;" in bundle.user_text
    assert "&quot;" not in bundle.user_text  # element content: quotes stay raw
    assert '"zero-config"' in bundle.user_text
    # the raw markers must not leak through unescaped
    start = bundle.user_text.index("<release-notes>") + len("<release-notes>")
    end = bundle.user_text.index("</release-notes>")
    body = bundle.user_text[start:end]
    assert "<" not in body and ">" not in body


def test_description_escaping():
    bundle = build_prompt(golden_release(), _repo(description="a <b> & c"))
    assert "<repository-description>a &lt;b&gt; &amp; c</repository-description>" in bundle.user_text


# ---------------------------------------------------------------------------
# parse_rating_response


def _response(skills="parsing; caching", reasoning="small fix; local scope", rating="5",
              closer="rating-response"):
    return (
        "<rating-response>\n"
        f"    <required-skills>{skills}</required-skills>\n"
        f"    <reasoning>{reasoning}</reasoning>\n"
        f"    <complexity-rating>{rating}</complexity-rating>\n"
        f"</{closer}>"
    )


def test_parse_well_formed():
    got = parse_rating_response(_response())
    assert got == ComplexityRating(
        required_skills=("parsing", "caching"),
        reasoning=("small fix", "local scope"),
        rating=5,
    )


def test_parse_accepts_classification_closer():
    got = parse_rating_response(_response(closer="classification-response"))
    assert got.rating == 5


def test_parse_null_rating():
    assert parse_rating_response(_response(rating="null")).rating is None


def test_parse_strips_rating_whitespace():
    assert parse_rating_response(_response(rating="  7\n")).rating == 7


def test_parse_tolerates_surrounding_chatter():
    noisy = "Sure! Here is my rating:\n" + _response(rating="2") + "\nHope that helps."
    assert parse_rating_response(noisy).rating == 2


def test_parse_semicolon_lists_trim_and_drop_empties():
    got = parse_rating_response(_response(skills=" a ;; b ; ", reasoning=";"))
    assert got.required_skills == ("a", "b")
    assert got.reasoning == ()


def test_parse_unescapes_entities():
    got = parse_rating_response(_response(skills="streams &amp; pipes; &lt;xml&gt;"))
    assert got.required_skills == ("streams & pipes", "<xml>")


@pytest.mark.parametrize("bad", ["0", "8", "9", "-1", "3.5", "five", ""])
def test_parse_rejects_bad_ratings(bad):
    with pytest.raises(MalformedResponse):
        parse_rating_response(_response(rating=bad))


def test_parse_rejects_missing_field():
    text = (
        "<rating-response>\n"
        "    <required-skills>a</required-skills>\n"
        "    <complexity-rating>3</complexity-rating>\n"
        "</rating-response>"
    )
    with pytest.raises(MalformedResponse):
        parse_rating_response(text)


def test_parse_rejects_missing_envelope():
    with pytest.raises(MalformedResponse):
        parse_rating_response("complexity: 5")


def test_parse_rejects_unterminated_envelope():
    with pytest.raises(MalformedResponse):
        parse_rating_response("<rating-response><complexity-rating>5</complexity-rating>")


# round-trip: parse(render(r)) preserves everything for all ratings and both closers
@pytest.mark.parametrize("closer", ["rating-response", "classification-response"])
@pytest.mark.parametrize("value", [1, 2, 3, 4, 5, 6, 7, None])
def test_render_parse_round_trip_rating(value, closer):
    original = ComplexityRating(("skill a",), ("reason b",), value)
    assert parse_rating_response(render_rating(original, closer=closer)) == original


_note_text = (
    st.text(
        alphabet=st.characters(blacklist_characters=";", blacklist_categories=("Cs",)),
        min_size=1,
        max_size=30,
    )
    .map(str.strip)
    .filter(bool)
)


@given(
    skills=st.lists(_note_text, max_size=4),
    reasons=st.lists(_note_text, max_size=4),
    rating=st.sampled_from([1, 2, 3, 4, 5, 6, 7, None]),
)
def test_render_parse_round_trip_property(skills, reasons, rating):
    original = ComplexityRating(tuple(skills), tuple(reasons), rating)
    got = parse_rating_response(render_rating(original))
    assert got == original


def test_render_rejects_unknown_closer():
    with pytest.raises(ValueError):
        render_rating(ComplexityRating((), (), 1), closer="other")


# ---------------------------------------------------------------------------
# one release through rate_many / retries


def _rate_one(release, repo, client, policy=None):
    """One release through rate_many: its rating, or its failure message."""
    ratings, failures = rate_many([("one", release, build_prompt(release, repo))], client, policy)
    return ratings["one"] if ratings else failures["one"]


class ScriptedClient:
    """Plays back a fixed script of responses and exceptions."""

    model_id = "scripted"

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def complete(self, system_text, user_text):
        self.calls += 1
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


def test_rate_one_single_clean_call():
    client = ScriptedClient([_response(rating="4")])
    sleeps = []
    got = _rate_one(golden_release(), _repo(), client,
                    RetryPolicy(max_attempts=3, sleeper=sleeps.append))
    assert got.rating == 4
    assert client.calls == 1
    assert sleeps == []


def test_rate_one_recovers_after_two_failures():
    client = ScriptedClient([
        "garbage",
        ConnectionError("reset"),
        _response(rating="6"),
    ])
    sleeps = []
    got = _rate_one(golden_release(), _repo(), client,
                    RetryPolicy(max_attempts=3, backoff=0.5, sleeper=sleeps.append))
    assert got.rating == 6
    assert client.calls == 3
    assert sleeps == [0.5, 1.0]


def test_rate_one_exhausts_retries():
    client = ScriptedClient(["nope", "still nope"])
    sleeps = []
    got = _rate_one(golden_release(), _repo(), client,
                    RetryPolicy(max_attempts=2, backoff=0.25, sleeper=sleeps.append))
    assert got.startswith(f"{ExhaustedRetries.__name__}: 2 attempt(s) failed for npm:")
    assert client.calls == 2
    assert sleeps == [0.25]


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=-1.0)


# ---------------------------------------------------------------------------
# mock client


def test_mock_client_is_deterministic():
    mock = MockModelClient()
    a = mock.complete(SYSTEM_PROMPT, "payload")
    b = mock.complete(SYSTEM_PROMPT, "payload")
    assert a == b


def test_mock_client_always_parses_to_a_valid_rating():
    mock = MockModelClient()
    for i in range(40):
        got = parse_rating_response(mock.complete(SYSTEM_PROMPT, f"user text {i}"))
        assert got.rating in {1, 2, 3, 4, 5, 6, 7}
        assert got.required_skills and got.reasoning


def test_mock_client_varies_with_input_and_uses_both_closers():
    mock = MockModelClient()
    responses = [mock.complete(SYSTEM_PROMPT, f"user text {i}") for i in range(40)]
    ratings = {parse_rating_response(r).rating for r in responses}
    assert len(ratings) > 1
    assert any(r.endswith("</rating-response>") for r in responses)
    assert any(r.endswith("</classification-response>") for r in responses)


def test_mock_end_to_end_through_rate_one():
    got = _rate_one(golden_release(), _repo(), MockModelClient())
    again = _rate_one(golden_release(), _repo(), MockModelClient())
    assert got == again
    assert got.rating in {1, 2, 3, 4, 5, 6, 7}


# ---------------------------------------------------------------------------
# rate_many


def _batch(n):
    items = []
    for i in range(n):
        rel = _release(GOLDEN_NOTES + f"\nrelease {i}", package=f"pkg-{i}")
        items.append((f"npm:pkg-{i}", rel, build_prompt(rel, _repo())))
    return items


def test_rate_many_rates_every_item():
    ratings, failures = rate_many(_batch(5), MockModelClient())
    assert failures == {}
    assert sorted(ratings) == [f"npm:pkg-{i}" for i in range(5)]
    assert all(r.rating in {1, 2, 3, 4, 5, 6, 7} for r in ratings.values())


def test_rate_many_skips_already_rated_keys():
    client = MockModelClient()
    calls = []
    original = client.complete

    def counting(system_text, user_text):
        calls.append(user_text)
        return original(system_text, user_text)

    client.complete = counting
    ratings, failures = rate_many(_batch(4), client, skip_keys=["npm:pkg-1", "npm:pkg-3"])
    assert sorted(ratings) == ["npm:pkg-0", "npm:pkg-2"]
    assert len(calls) == 2
    assert failures == {}



def test_rate_many_reports_exhausted_retries_as_failure():
    client = ScriptedClient(["bad"] * 10)
    policy = RetryPolicy(max_attempts=2, sleeper=lambda s: None)
    ratings, failures = rate_many(_batch(1), client, policy=policy)
    assert ratings == {}
    assert failures["npm:pkg-0"].startswith("ExhaustedRetries")


def test_rate_many_reports_rejected_request_as_failure():
    client = ScriptedClient([RequestRejected("model endpoint refused the request: HTTP 404")])
    sleeps = []
    policy = RetryPolicy(max_attempts=3, sleeper=sleeps.append)
    ratings, failures = rate_many(_batch(1), client, policy=policy)
    assert ratings == {}
    assert failures["npm:pkg-0"].startswith("RequestRejected")
    assert client.calls == 1
    assert sleeps == []


def _cut_short(request, timeout=None):
    raise http.client.IncompleteRead(b'{"text": "<cla')


def _garbled_status(request, timeout=None):
    raise http.client.BadStatusLine("HTTP/1.1 2OO OK")


def _latin1_body(request, timeout=None):
    return io.BytesIO('{"text": "caf\u00e9"}'.encode("latin-1"))


@pytest.mark.parametrize("urlopen", [_cut_short, _garbled_status, _latin1_body])
def test_rate_many_reports_broken_http_response_as_exhausted(monkeypatch, urlopen):
    calls = []

    def fake_urlopen(request, timeout=None):
        calls.append(request)
        return urlopen(request, timeout)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    client = HttpModelClient("http://model.test/v1", "remote-model")
    policy = RetryPolicy(max_attempts=3, sleeper=lambda s: None)
    ratings, failures = rate_many(_batch(1), client, policy=policy)
    assert ratings == {}
    assert failures["npm:pkg-0"].startswith("ExhaustedRetries")
    assert len(calls) == 3


def test_rate_many_parallel_matches_serial():
    serial, _ = rate_many(_batch(8), MockModelClient(), max_workers=1)
    parallel, _ = rate_many(_batch(8), MockModelClient(), max_workers=4)
    assert serial == parallel


def test_rate_many_streams_results_through_callback():
    seen = []
    ratings, _ = rate_many(_batch(3), MockModelClient(),
                           on_result=lambda key, rating: seen.append(key))
    assert sorted(seen) == sorted(ratings)


def test_rate_many_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        rate_many([], MockModelClient(), max_workers=0)


def test_token_bucket_spaces_acquisitions():
    now = [100.0]
    sleeps = []
    bucket = _TokenBucket(rate_per_sec=2.0, clock=lambda: now[0], sleeper=sleeps.append)
    bucket.acquire()  # first: no wait
    bucket.acquire()  # clock frozen, so each call queues another 0.5s
    bucket.acquire()
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_token_bucket_rejects_nonpositive_rate(rate):
    with pytest.raises(ValueError, match="finite positive"):
        _TokenBucket(rate_per_sec=rate)


def test_token_bucket_takes_an_int_too_large_for_a_float():
    sleeps = []
    bucket = _TokenBucket(rate_per_sec=10**400, clock=lambda: 100.0, sleeper=sleeps.append)
    bucket.acquire()
    bucket.acquire()
    assert sleeps == []


# ---------------------------------------------------------------------------
# rate_many's schedule: retries wait out their backoff without a worker


class PlannedClient:
    """Answers like MockModelClient after the failures planned for each
    release of ``_batch``; records each call's release, start time and the
    number of calls in flight."""

    model_id = "planned"

    def __init__(self, plan=None, delay=0.0):
        self.plan = {i: list(actions) for i, actions in (plan or {}).items()}
        self.delay = delay
        self.calls = []
        self.in_flight = self.peak = 0
        self._lock = threading.Lock()

    def complete(self, system_text, user_text):
        release = int(re.search(r"release (\d+)</release-notes>", user_text).group(1))
        with self._lock:
            self.calls.append((release, time.monotonic()))
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            planned = self.plan.get(release)
            action = planned.pop(0) if planned else None
        try:
            time.sleep(self.delay)
            if isinstance(action, Exception):
                raise action
            return action if action is not None else MockModelClient().complete(system_text, user_text)
        finally:
            with self._lock:
                self.in_flight -= 1

    def order(self):
        return [release for release, _ in self.calls]


def test_rate_many_rates_ready_releases_while_a_retry_waits():
    client = PlannedClient({0: [ConnectionError("reset"), "garbage"]})
    sleeps = []
    ratings, failures = rate_many(_batch(3), client, RetryPolicy(sleeper=sleeps.append))
    assert client.order() == [0, 1, 2, 0, 0]
    # the first wait is what is left of release 0's backoff once 1 and 2
    # are rated; the second starts with nothing else to do
    assert sleeps == [pytest.approx(0.5, abs=0.05), pytest.approx(1.0)]
    assert sleeps[0] <= 0.5
    assert len(ratings) == 3 and failures == {}


def test_rate_many_keeps_at_most_max_workers_requests_in_flight():
    plan = {2: [ConnectionError("reset")], 5: ["garbage"], 11: [OSError("x"), "bad"], 17: ["bad"], 30: ["bad"]}
    client = PlannedClient(plan, delay=0.002)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        ratings, failures = rate_many(
            _batch(40), client, RetryPolicy(sleeper=lambda s: None), max_workers=3
        )
    finally:
        sys.setswitchinterval(interval)
    assert len(ratings) == 40 and failures == {}
    assert len(client.calls) == 46
    assert 1 <= client.peak <= 3


def test_rate_many_retries_no_sooner_than_the_backoff():
    backoff = 0.05
    plan = {0: ["bad", OSError("x")], 1: [ConnectionError("reset")], 3: ["bad", "bad", "bad"]}
    client = PlannedClient(plan)
    ratings, failures = rate_many(
        _batch(6), client, RetryPolicy(max_attempts=3, backoff=backoff), max_workers=2
    )
    assert sorted(ratings) == ["npm:pkg-0", "npm:pkg-1", "npm:pkg-2", "npm:pkg-4", "npm:pkg-5"]
    assert list(failures) == ["npm:pkg-3"]
    for release in (0, 1, 3):
        starts = [t for r, t in client.calls if r == release]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert len(gaps) == len(plan[release]) - (release == 3)
        for k, gap in enumerate(gaps, start=1):
            assert gap >= backoff * 2 ** (k - 1)


def test_rate_many_outcomes_do_not_depend_on_the_worker_count():
    plan = {
        1: ["garbage"],
        4: [OSError("x"), "bad", "bad"],
        6: [RequestRejected("model endpoint refused the request: HTTP 404")],
        9: [ConnectionError("reset"), "bad"],
    }
    items = _batch(12)
    policy = RetryPolicy(sleeper=lambda s: None)
    serial = rate_many(items, PlannedClient(plan), policy, max_workers=1)
    parallel = rate_many(items, PlannedClient(plan, delay=0.001), policy, max_workers=4)
    assert parallel == serial
    assert serial[1] == {
        "npm:pkg-4": "ExhaustedRetries: 3 attempt(s) failed for npm:pkg-4 2.1.0",
        "npm:pkg-6": "RequestRejected: model endpoint refused the request: HTTP 404",
    }


def test_an_unexpected_error_stops_the_batch():
    workers = 3
    client = PlannedClient({0: [RuntimeError("client bug")]}, delay=0.01)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="client bug"):
        rate_many(_batch(50), client, RetryPolicy(sleeper=lambda s: None), max_workers=workers)
    assert len(client.calls) <= 1 + workers
    assert threading.active_count() == threads


def test_rate_many_starts_a_due_retry_while_a_slow_request_is_in_flight():
    backoff = 0.05
    client = PlannedClient({0: [ConnectionError("reset")]})
    planned = client.complete

    def slow_release_1(system_text, user_text):
        if "release 1</release-notes>" in user_text:
            time.sleep(0.4)
        return planned(system_text, user_text)

    client.complete = slow_release_1
    ratings, failures = rate_many(_batch(2), client, RetryPolicy(backoff=backoff), max_workers=2)
    assert len(ratings) == 2 and failures == {}
    first, retry = [t for r, t in client.calls if r == 0]
    # the retry is not held back until release 1's reply, 0.4 s after its start
    assert backoff <= retry - first <= 0.3


def test_an_error_in_on_result_reaches_the_caller():
    def refuse(key, rating):
        raise LookupError(f"no room for {key}")

    threads = threading.active_count()
    with pytest.raises(LookupError, match="no room for npm:pkg-"):
        rate_many(_batch(20), PlannedClient(delay=0.005), RetryPolicy(sleeper=lambda s: None),
                  max_workers=3, on_result=refuse)
    assert threading.active_count() == threads


def test_rate_many_throttles_retries_too(monkeypatch):
    now = [100.0]
    sleeps = []
    real_bucket = complexity._TokenBucket
    monkeypatch.setattr(
        complexity,
        "_TokenBucket",
        lambda rate: real_bucket(rate, clock=lambda: now[0], sleeper=sleeps.append),
    )
    client = PlannedClient({0: [ConnectionError("reset")], 2: ["bad"]})
    ratings, _ = rate_many(_batch(3), client, RetryPolicy(sleeper=lambda s: None), rate_per_sec=2.0)
    assert len(ratings) == 3
    assert len(client.calls) == 5
    # the clock is frozen, so each acquisition after the first queues 0.5 s more
    assert sleeps == [0.5, 1.0, 1.5, 2.0]


# ---------------------------------------------------------------------------
# agreement


def test_agreement_identical_vectors():
    ratings = [1, 2, 3, 4, 5, 6, 7, 3, 2, 5]
    got = agreement_stats(ratings, ratings)
    assert got.n == 10
    assert got.within_one_rank_pct == 100.0
    assert got.spearman_rho == pytest.approx(1.0)
    assert got.pearson_r == pytest.approx(1.0)


def test_agreement_constant_offset_of_two_scores_zero():
    human = [1, 2, 3, 4, 5]
    model = [h + 2 for h in human]
    got = agreement_stats(model, human)
    assert got.within_one_rank_pct == 0.0
    assert got.spearman_rho == pytest.approx(1.0)


def test_agreement_two_hundred_pair_fixture_is_exactly_683_halves():
    # 200 pairs, exactly 137 of them within one rank: pct must be exactly 68.5
    human = [(i % 7) + 1 for i in range(200)]
    model = []
    for i, h in enumerate(human):
        if i < 137:
            model.append(h if i % 2 == 0 else min(7, h + 1))
        else:
            model.append(h + 2 if h <= 5 else h - 2)
    within = sum(1 for m, h in zip(model, human) if abs(m - h) <= 1)
    assert within == 137
    got = agreement_stats(model, human)
    assert got.n == 200
    assert got.within_one_rank_pct == 68.5


def test_agreement_permutation_invariance():
    import random

    human = [(i * 3 % 7) + 1 for i in range(30)]
    model = [((i * 5 + 2) % 7) + 1 for i in range(30)]
    base = agreement_stats(model, human)
    rng = random.Random(7)
    for _ in range(5):
        order = list(range(30))
        rng.shuffle(order)
        got = agreement_stats([model[i] for i in order], [human[i] for i in order])
        assert got.within_one_rank_pct == base.within_one_rank_pct
        assert got.spearman_rho == pytest.approx(base.spearman_rho)
        assert got.pearson_r == pytest.approx(base.pearson_r)


def test_agreement_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        agreement_stats([1, 2, 3], [1, 2])


def test_agreement_rejects_tiny_samples():
    with pytest.raises(DegenerateInput):
        agreement_stats([1, 2], [1, 2])


def test_agreement_rejects_constant_vector():
    with pytest.raises(DegenerateInput):
        agreement_stats([4, 4, 4, 4], [1, 2, 3, 4])


# ---------------------------------------------------------------------------
# provenance helpers


def test_prompt_sha256_shape_and_stability():
    bundle = build_prompt(golden_release(), _repo())
    digest = prompt_sha256(bundle)
    assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
    assert digest == prompt_sha256(build_prompt(golden_release(), _repo()))


def test_prompt_sha256_distinguishes_messages():
    a = prompt_sha256(PromptBundle("s", "u"))
    b = prompt_sha256(PromptBundle("su", ""))
    assert a != b  # separator byte keeps the split unambiguous


def test_rating_record_shape():
    bundle = build_prompt(golden_release(), _repo())
    rating = ComplexityRating(("a",), ("b", "c"), None)
    record = rating_record("npm:turbo-widget:2.1.0", rating, "mock-rater-v1", bundle, None, ReleaseType.ZERO_MINOR)
    # the row's keys in the order ratings.jsonl writes them
    assert list(record.items()) == [
        ("key", "npm:turbo-widget:2.1.0"),
        ("rating", None),
        ("required_skills", ["a"]),
        ("reasoning", ["b", "c"]),
        ("prompt_sha256", prompt_sha256(bundle)),
        ("model_id", "mock-rater-v1"),
        ("timestamp", "1970-01-01T00:00:00Z"),
        ("language", None),
        ("release_type", "zero_minor"),
    ]
