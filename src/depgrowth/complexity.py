"""Release-note complexity rating through a pluggable model endpoint.

The rating protocol is prompt-driven: a fixed system message plus a user
message rendered from a golden template with five release-specific fields
substituted. The templates are frozen byte-for-byte (tests/golden keeps
reference copies); do not reflow or "fix" their text, including the
mismatched closing tag in the documented response structure, which real
responses are observed to use both sides of. The parser therefore accepts
either closer.

Endpoint access goes through the small ``ModelClient`` protocol so tests
and offline runs can use the deterministic mock below instead of a live
service.
"""

from __future__ import annotations

import collections
import hashlib
import heapq
import itertools
import queue
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Protocol, Sequence

from .ingest import PackageRelease, RepoSnapshot
from .stats import DegenerateInput, pearson, spearman

__all__ = [
    "MIN_NOTE_CHARS",
    "SYSTEM_PROMPT",
    "USER_PROMPT_TEMPLATE",
    "NotEligible",
    "MalformedResponse",
    "ExhaustedRetries",
    "RequestRejected",
    "PromptBundle",
    "ComplexityRating",
    "AgreementStats",
    "RetryPolicy",
    "ModelClient",
    "MockModelClient",
    "eligible_for_rating",
    "build_prompt",
    "parse_rating_response",
    "render_rating",
    "rate_release",
    "rate_many",
    "agreement_stats",
    "prompt_sha256",
    "rating_record",
]


# xml.sax.saxutils' escape and unescape with no extra entities: "&" goes
# first on the way in and last on the way out. (The xml.sax package imports
# urllib.request, and with it http.client.)
def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _xml_unescape(text: str) -> str:
    return text.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")


# Minimum size of usable release notes, in Unicode code points after
# stripping leading/trailing whitespace. Shorter notes carry too little
# signal to rate and are skipped rather than rated "null".
MIN_NOTE_CHARS = 512


class NotEligible(ValueError):
    """Release notes are absent or below the minimum length."""


class MalformedResponse(ValueError):
    """Model response does not follow the documented XML structure."""


class ExhaustedRetries(RuntimeError):
    """All rating attempts failed; the last cause is chained."""


class RequestRejected(RuntimeError):
    """The model endpoint refused the request itself; a retry cannot help."""


SYSTEM_PROMPT = (
    "You are computer science grad student. As a computer science grad "
    "student, you are extremely knowledgeable in software development, "
    "development lifecycles, and release patterns. Further, you also know "
    "and use multiple programming languages and frameworks. Currently you "
    "are tasked with rating the complexity of a software release given the "
    "release notes. As this is a research project, you will be provided an "
    "annotation procedure and the example to annotate. Be sure to follow "
    "the procedure and always respond with the XML formatted rating "
    "information.\n"
)

USER_PROMPT_TEMPLATE = """## Task

Rate the complexity of a software release given the software release's release notes. Specifically, you should rate the "complexity to implement" (i.e. how difficult does the feature, or bug, or change seem to be to implement).

For your "complexity to implement" rating, take on the persona of a core developer for the library. That is, some things may be easier or harder in different languages and those differences should be taken into account.

I know you will do great! Just try your best!

### Rating Scale for Complexity to Implement

Use the following scale and criteria to rate the complexity to implement:

- 1. Almost no changes.

If any, they may be purely for documentation, project administration, or very minor bugfixes such as a typo or a small formatting issue.

- 2. Very few changes.

They may involve a new feature or a minor bugfix. But the changes are entirely minor. The changes are so small that they may not require any new documentation outside of a very brief mention in the release notes.

- 3. A few changes.

Changes involve some basic understanding of the library. They may involve a new feature or a minor bugfix. But the feature itself shouldn't be major. For example, it may be the addition of a new parameter to a function, or a new method to a class. It may require some new documentation but not a lot.

- 4. A small number of changes.

Changes involve some moderate level of understanding the library. They may involve a new major feature or a major bugfix. They may require some refactoring or changes to existing code but that isn't the main focus of the release. They likely require some additional documentation to announce the new feature, bugfix, or new behavior.

- 5. A moderate number of changes.

Changes involve a decently-high level of understanding the library. This may include multiple new features, major bugfixes or changes, or a moderate amount of refactoring. They should require extensive documentation to announce the new features, bugfixes, or new behavior.

- 6. A large number of changes.

Changes involve a high level of understanding the library. There are multiple new features, major bugfixes or changes, and/or a large amount of refactoring. Each change may be interacting with multiple systems or modules of the library or tool.

- 7. Extensive changes.

The release includes new features, refactoring. Complex interactions between multiple systems. To implement these changes would require extensive knowledge of the whole library to fully understand the effects of each change. Further, it would require extensive testing to ensure that the changes are correct and do not break existing functionality. This also requires extensive documentation to explain the changes to users.

## Input Structure

You will be provided with an XML object with the following structure:
<release-notes-information>
    <repository-name>...</repository-name>
    <repository-description>...</repository-description>
    <repository-topics>...</repository-topics>
    <repository-language>...</repository-language>
    <release-notes>...</release-notes>
</release-notes-information>

## Response Structure

- `required-skills`: A list of short (less than a sentence) semi-colon separated notes, of the skills required to implement the changes in the release notes. I.e. what knowledge (e.g. asynchrony, data structures, etc.) would be required to implement the changes.

- `reasoning`: A list of short (less than a sentence) semi-colon separated notes, that justify the rating you are providing.

- `complexity-rating`: The complexity rating you are providing. This should be a number between 1 and 7, inclusive, where 1 is "very low complexity" and 7 is "very high complexity". Always try to rate the release on the scale from 1 to 7, however, if there is almost no information in the release notes, rate the complexity as "null".

Your response should have the following structure:

<rating-response>
    <required-skills>...</required-skills>
    <reasoning>...</reasoning>
    <complexity-rating>...</complexity-rating>
</classification-response>

Provide only the XML response, without any additional text or formatting.

## Release Information

<release-notes-information>
    <repository-name>{repo_name}</repository-name>
    <repository-description>{repo_description}</repository-description>
    <repository-topics>{repo_topics}</repository-topics>
    <repository-language>{repo_language}</repository-language>
    <release-notes>{release_notes}</release-notes>
</release-notes-information>

## Rating Response
"""


@dataclass(frozen=True)
class PromptBundle:
    """The two chat messages sent for one rating call."""

    system_text: str
    user_text: str


@dataclass(frozen=True)
class ComplexityRating:
    """Parsed model verdict. rating is None when the model answered "null"."""

    required_skills: tuple[str, ...]
    reasoning: tuple[str, ...]
    rating: Optional[int]


@dataclass(frozen=True)
class AgreementStats:
    n: int
    spearman_rho: float
    pearson_r: float
    within_one_rank_pct: float


def eligible_for_rating(release: PackageRelease) -> bool:
    """True when the release carries notes of at least MIN_NOTE_CHARS.

    Length is the Unicode code-point count of the raw notes after stripping
    surrounding whitespace; no markup is removed first.
    """
    notes = release.release_notes
    if notes is None:
        return False
    return len(notes.strip()) >= MIN_NOTE_CHARS


def build_prompt(release: PackageRelease, repo: RepoSnapshot) -> PromptBundle:
    """Render the golden templates for one release.

    Substituted values are XML-escaped so the envelope stays well formed.
    Topics join with ", "; a missing description or language becomes the
    literal text "null" (unescaped, by construction it needs none).

    Raises:
        NotEligible: the release fails eligible_for_rating.
    """
    if not eligible_for_rating(release):
        raise NotEligible(
            f"{release.ecosystem}:{release.package_name} {release.version_text}: "
            f"notes shorter than {MIN_NOTE_CHARS} characters"
        )
    description = "null" if repo.description is None else _xml_escape(repo.description)
    language = "null" if repo.language is None else _xml_escape(repo.language)
    user_text = USER_PROMPT_TEMPLATE.format(
        repo_name=_xml_escape(f"{repo.owner}/{repo.name}"),
        repo_description=description,
        repo_topics=_xml_escape(", ".join(repo.topics)),
        repo_language=language,
        release_notes=_xml_escape(release.release_notes or ""),
    )
    return PromptBundle(system_text=SYSTEM_PROMPT, user_text=user_text)


# Either closer is accepted: the documented response structure opens with
# <rating-response> but closes with </classification-response>, and live
# output follows one or the other.
_ENVELOPE_RE = re.compile(
    r"<rating-response\s*>(?P<body>.*?)</(?:rating-response|classification-response)\s*>",
    re.DOTALL,
)

_FIELD_NAMES = ("required-skills", "reasoning", "complexity-rating")
_FIELD_RES = {
    name: re.compile(rf"<{name}\s*>(?P<value>.*?)</{name}\s*>", re.DOTALL)
    for name in _FIELD_NAMES
}


def _split_notes(text: str) -> tuple[str, ...]:
    parts = (part.strip() for part in text.split(";"))
    return tuple(part for part in parts if part)


def parse_rating_response(text: str) -> ComplexityRating:
    """Extract the three rating fields from a model response.

    Raises:
        MalformedResponse: no envelope, a missing field, or a rating that
            is neither an integer in 1..7 nor the literal "null".
    """
    envelope = _ENVELOPE_RE.search(text)
    if envelope is None:
        raise MalformedResponse("no <rating-response> envelope found")
    body = envelope.group("body")

    values = {}
    for name in _FIELD_NAMES:
        match = _FIELD_RES[name].search(body)
        if match is None:
            raise MalformedResponse(f"missing <{name}> field")
        values[name] = _xml_unescape(match.group("value"))

    raw_rating = values["complexity-rating"].strip()
    if raw_rating == "null":
        rating: Optional[int] = None
    else:
        try:
            rating = int(raw_rating)
        except ValueError:
            raise MalformedResponse(f"rating {raw_rating!r} is not an integer or null") from None
        if not 1 <= rating <= 7:
            raise MalformedResponse(f"rating {rating} outside the 1..7 scale")

    return ComplexityRating(
        required_skills=_split_notes(values["required-skills"]),
        reasoning=_split_notes(values["reasoning"]),
        rating=rating,
    )


def render_rating(rating: ComplexityRating, closer: str = "rating-response") -> str:
    """Serialize a rating back into the documented response XML.

    ``closer`` picks which of the two accepted closing tags to emit.
    round-trip guarantee: parse_rating_response(render_rating(r)) preserves
    the rating field and the trimmed note lists.
    """
    if closer not in ("rating-response", "classification-response"):
        raise ValueError(f"unknown closer {closer!r}")
    rating_text = "null" if rating.rating is None else str(rating.rating)
    skills = _xml_escape("; ".join(rating.required_skills))
    reasons = _xml_escape("; ".join(rating.reasoning))
    return (
        "<rating-response>\n"
        f"    <required-skills>{skills}</required-skills>\n"
        f"    <reasoning>{reasons}</reasoning>\n"
        f"    <complexity-rating>{rating_text}</complexity-rating>\n"
        f"</{closer}>"
    )


@dataclass(frozen=True)
class RetryPolicy:
    """Retry schedule for each rating.

    A malformed response or a transport error (OSError family) on attempt
    k is retried no sooner than backoff * 2**(k-1) seconds later, up to
    max_attempts attempts in all. A release waiting out its backoff holds
    no worker: the workers rate other releases meanwhile, and one calls
    ``sleeper`` only when nothing else is ready, for the time until the
    earliest retry is due, then takes that retry. ``sleeper`` is injectable
    for tests; a recording sleeper makes every wait instant.
    """

    max_attempts: int = 3
    backoff: float = 0.5
    sleeper: Callable[[float], None] = field(default=time.sleep, compare=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff < 0:
            raise ValueError("backoff must be non-negative")


class ModelClient(Protocol):
    """Minimal chat contract: two messages in, raw text out."""

    model_id: str

    def complete(self, system_text: str, user_text: str) -> str: ...


class MockModelClient:
    """Offline stand-in that derives a canned valid response from its input.

    The response is a pure function of the prompt bytes (sha256), so runs
    are reproducible without any network access. The digest also picks
    which of the two documented closing tags to emit, keeping both parser
    paths exercised.
    """

    model_id = "mock-rater-v1"

    _SKILLS = (
        "API design",
        "asynchrony",
        "data structures",
        "dependency management",
        "build tooling",
        "testing",
        "performance profiling",
        "documentation",
    )
    _REASONS = (
        "small self-contained fix",
        "single feature with local scope",
        "touches several modules",
        "requires refactoring existing code",
        "extensive new surface area",
        "mostly routine maintenance",
    )

    def complete(self, system_text: str, user_text: str) -> str:
        digest = hashlib.sha256(
            system_text.encode("utf-8") + b"\x1f" + user_text.encode("utf-8")
        ).digest()
        rating = 1 + digest[0] % 7
        skills = (
            self._SKILLS[digest[1] % len(self._SKILLS)],
            self._SKILLS[digest[2] % len(self._SKILLS)],
        )
        reasons = (self._REASONS[digest[3] % len(self._REASONS)],)
        closer = "rating-response" if digest[4] % 2 == 0 else "classification-response"
        return render_rating(
            ComplexityRating(required_skills=skills, reasoning=reasons, rating=rating),
            closer=closer,
        )


def rate_release(
    release: PackageRelease,
    repo: RepoSnapshot,
    client: ModelClient,
    policy: RetryPolicy | None = None,
) -> ComplexityRating:
    """Prompt the client for one release, retrying transient failures.

    Malformed responses and transport errors (OSError family) are retried
    under the policy; the first clean parse wins.

    Raises:
        NotEligible: release notes below the minimum length.
        RequestRejected: the client refused the request; never retried.
        ExhaustedRetries: every attempt failed; last cause chained.
    """
    batch = _Batch([_Task("", release, repo)], client, policy or RetryPolicy(), 1, None)
    ratings, failures = batch.run(None)
    if failures:
        raise failures[""]
    return ratings[""]


class _TokenBucket:
    """Blocking rate limiter: at most rate_per_sec acquisitions per second."""

    def __init__(
        self,
        rate_per_sec: float,
        clock: Callable[[], float] = time.monotonic,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        if rate_per_sec <= 0:
            raise ValueError("rate_per_sec must be positive")
        self._interval = 1.0 / rate_per_sec
        self._clock = clock
        self._sleeper = sleeper
        self._lock = threading.Lock()
        self._next_free = clock()

    def acquire(self) -> None:
        with self._lock:
            now = self._clock()
            wait = self._next_free - now
            self._next_free = max(self._next_free, now) + self._interval
        if wait > 0:
            self._sleeper(wait)


# The outcomes reported as a release's failure. Any other exception stops
# the batch and reaches the caller.
_FAILURES = (NotEligible, RequestRejected, ExhaustedRetries)


@dataclass(eq=False)
class _Task:
    key: str
    release: PackageRelease
    repo: RepoSnapshot
    bundle: PromptBundle | None = None
    attempts: int = 0


class _Batch:
    """Releases rated by a fixed set of worker threads from one schedule.

    Every release starts ready. After a transient failure it waits in
    ``_waiting``, a heap on its not-before time, so its worker is free to
    take other work. A worker takes a due retry first, then the next ready
    release; when nothing is ready it takes the earliest retry and sleeps
    until that retry is due. Each outcome reaches the calling thread
    through ``_results``, and each worker's exit through a ``None``.
    """

    def __init__(
        self,
        todo: Sequence[_Task],
        client: ModelClient,
        policy: RetryPolicy,
        workers: int,
        bucket: _TokenBucket | None,
    ) -> None:
        self._ready = collections.deque(todo)
        self._waiting: list[tuple[float, int, _Task]] = []
        self._tiebreak = itertools.count()
        self._lock = threading.Lock()
        self._stopped = False
        self._results: queue.SimpleQueue = queue.SimpleQueue()
        self._client = client
        self._policy = policy
        self._bucket = bucket
        self._threads = [threading.Thread(target=self._work) for _ in range(min(workers, len(todo)))]

    def run(
        self, on_result: Callable[[str, ComplexityRating], None] | None
    ) -> tuple[dict[str, ComplexityRating], dict[str, Exception]]:
        """Ratings and failures by key; the first other exception is raised
        once every worker has finished its request in flight."""
        ratings: dict[str, ComplexityRating] = {}
        failures: dict[str, Exception] = {}
        error: BaseException | None = None
        try:
            for thread in self._threads:
                thread.start()
            running = len(self._threads)
            while running:
                result = self._results.get()
                if result is None:
                    running -= 1
                    continue
                key, outcome = result
                if isinstance(outcome, ComplexityRating):
                    ratings[key] = outcome
                    if on_result is not None:
                        on_result(key, outcome)
                elif isinstance(outcome, _FAILURES):
                    failures[key] = outcome
                elif error is None:
                    error = outcome
        finally:
            self._stopped = True
            for thread in self._threads:
                if thread.ident is not None:
                    thread.join()
        if error is not None:
            raise error
        return ratings, failures

    def _next(self, retry: tuple[_Task, float] | None) -> tuple[_Task, float] | None:
        """Schedule ``retry``, a task and its backoff, then pick the next task
        and the seconds to wait before it; None when no work is left.

        One clock reading both sets the retry's not-before time and decides
        what is due.
        """
        with self._lock:
            now = time.monotonic()
            if retry is not None:
                task, backoff = retry
                heapq.heappush(self._waiting, (now + backoff, next(self._tiebreak), task))
            if self._stopped:
                return None
            if self._waiting and (self._waiting[0][0] <= now or not self._ready):
                due, _, task = heapq.heappop(self._waiting)
                return task, due - now
            if self._ready:
                return self._ready.popleft(), 0.0
            return None

    def _attempt(self, task: _Task) -> ComplexityRating | ExhaustedRetries | float:
        """One request for ``task``: the rating, the backoff before its retry,
        or ExhaustedRetries with the last failure chained. The one retry rule."""
        task.attempts += 1
        bundle = task.bundle
        try:
            return parse_rating_response(self._client.complete(bundle.system_text, bundle.user_text))
        except (MalformedResponse, OSError) as exc:
            if task.attempts < self._policy.max_attempts:
                return self._policy.backoff * 2.0 ** (task.attempts - 1)
            release = task.release
            exhausted = ExhaustedRetries(
                f"{self._policy.max_attempts} attempt(s) failed for "
                f"{release.ecosystem}:{release.package_name} {release.version_text}"
            )
            exhausted.__cause__ = exc
            return exhausted

    def _work(self) -> None:
        retry = None
        try:
            while (picked := self._next(retry)) is not None:
                task, wait = picked
                retry = None
                try:
                    if wait > 0:
                        self._policy.sleeper(wait)
                    if task.bundle is None:
                        task.bundle = build_prompt(task.release, task.repo)
                    if self._bucket is not None:
                        self._bucket.acquire()
                    if self._stopped:
                        return
                    outcome = self._attempt(task)
                except BaseException as exc:  # handed to the calling thread
                    if not isinstance(exc, _FAILURES):
                        self._stopped = True
                    outcome = exc
                if isinstance(outcome, float):
                    retry = task, outcome
                else:
                    self._results.put((task.key, outcome))
        finally:
            self._results.put(None)


def rate_many(
    items: Iterable[tuple[str, PackageRelease, RepoSnapshot]],
    client: ModelClient,
    policy: RetryPolicy | None = None,
    max_workers: int = 1,
    rate_per_sec: float | None = None,
    skip_keys: Iterable[str] = (),
    on_result: Callable[[str, ComplexityRating], None] | None = None,
) -> tuple[dict[str, ComplexityRating], dict[str, str]]:
    """Rate a batch of releases with at most ``max_workers`` requests in flight.

    ``items`` yields (key, release, repo) triples; keys already present in
    ``skip_keys`` are not re-rated (resume support). ``min(max_workers,
    releases)`` threads share one schedule. A release waiting out its
    retry backoff holds no worker: see RetryPolicy. ``rate_per_sec``
    throttles every request, retries included. ``on_result`` fires on the
    calling thread as each rating completes, in completion order; callers
    wanting stable order sort by key afterwards. Returns (ratings by key,
    failure reason by key). Ineligible, rejected and exhausted releases are
    reported as failures, not errors. Any other exception stops the batch:
    no request starts after it, those in flight finish, and the first such
    exception is raised.
    """
    if max_workers < 1:
        raise ValueError("max_workers must be at least 1")
    skip = set(skip_keys)
    bucket = _TokenBucket(rate_per_sec) if rate_per_sec is not None else None
    todo = [_Task(key, rel, repo) for key, rel, repo in items if key not in skip]
    ratings, failures = _Batch(todo, client, policy or RetryPolicy(), max_workers, bucket).run(on_result)
    return ratings, {key: f"{type(exc).__name__}: {exc}" for key, exc in failures.items()}


def agreement_stats(
    model_ratings: Sequence[int],
    human_ratings: Sequence[int],
) -> AgreementStats:
    """Model-vs-human agreement over paired integer ratings.

    within_one_rank_pct is the share of pairs whose ratings differ by at
    most one rank, scaled to [0, 100]. Both correlation flavors are
    reported because agreement is quoted ambiguously in the wild.

    Raises:
        ValueError: length mismatch.
        DegenerateInput: n < 3 or a constant vector (no correlation).
    """
    if len(model_ratings) != len(human_ratings):
        raise ValueError(
            f"length mismatch: {len(model_ratings)} vs {len(human_ratings)}"
        )
    n = len(model_ratings)
    if n < 3:
        raise DegenerateInput(f"agreement needs n >= 3, got n={n}")
    within = sum(
        1 for m, h in zip(model_ratings, human_ratings) if abs(m - h) <= 1
    )
    rho = spearman(model_ratings, human_ratings).rho
    r = pearson(model_ratings, human_ratings)
    return AgreementStats(
        n=n,
        spearman_rho=rho,
        pearson_r=r,
        within_one_rank_pct=100.0 * within / n,
    )


def prompt_sha256(bundle: PromptBundle) -> str:
    """Stable hex digest of both messages, for provenance records."""
    payload = bundle.system_text.encode("utf-8") + b"\x1f" + bundle.user_text.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def rating_record(
    key: str,
    rating: ComplexityRating,
    bundle: PromptBundle,
    model_id: str,
    timestamp: str,
) -> Mapping[str, object]:
    """One line-delimited output record for a completed rating."""
    return {
        "key": key,
        "rating": rating.rating,
        "required_skills": list(rating.required_skills),
        "reasoning": list(rating.reasoning),
        "prompt_sha256": prompt_sha256(bundle),
        "model_id": model_id,
        "timestamp": timestamp,
    }
