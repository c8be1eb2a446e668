"""The four workloads: set-up, reference, timed command and output check.

A run calls ``setup`` (timed, more than once), then ``reference`` (untimed,
cached per input digest), then ``before``, the timed ``command`` and
``after`` for each timed command. ``setup`` runs ``build`` in a child
process, ``python3 perfbench/workloads.py WORKLOAD ROOT WS SEED SCALE``, so
that it is timed like the commands.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import corpus
import stub

HERE = Path(__file__).resolve().parent
# a child still running after this is killed; full-scale stages take minutes
CHILD_TIMEOUT_S = {"bench": 150, "full": 1800}


class Child:
    """One finished subprocess, as ``spawn.py`` reports it.

    ``raw_wall_s`` and ``raw_cpu_s`` are as measured; ``cpu_s`` is the CPU
    time at reference speed (raw over the slowdown the probes saw) and
    ``wall_s`` the time the child waited plus ``cpu_s``.
    """

    def __init__(self, result: dict) -> None:
        self.code = result["code"]
        self.raw_wall_s = result["wall_s"]
        self.raw_cpu_s = result["cpu_s"]
        self.rss_mb = result["rss_mb"]
        self.slowdown = result["slowdown"]
        busy = min(self.raw_cpu_s, self.raw_wall_s)
        self.cpu_s = self.raw_cpu_s / self.slowdown
        self.wall_s = self.raw_wall_s - busy + busy / self.slowdown


class Launcher:
    """Runs children through ``spawn.py`` on CPU ``cpu``, so their peak RSS
    is their own and their times can be scaled to reference speed."""

    def __init__(self, root: Path, cpu: int) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py"), str(cpu)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=root,
        )

    def run(self, request: dict) -> Child:
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawn.py ended early with code {self._proc.wait()}")
        return Child(json.loads(line))

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=30)


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def corpus_args(directory: Path) -> list[str]:
    return [
        "--releases",
        str(directory / "releases.jsonl"),
        "--repo-snapshots",
        str(directory / "repo_snapshots.jsonl"),
        "--dependent-edges",
        str(directory / "dependent_edges.jsonl"),
    ]


class Workload:
    """Base: ``build`` makes inputs, ``command`` is the timed CLI call.

    ``launcher`` is None in the set-up child, which only builds.
    """

    name = ""
    token = False

    def __init__(self, root: Path, ws: Path, seed: int, scale: str, launcher: Launcher | None) -> None:
        self.root = root
        self.ws = ws
        self.seed = seed
        self.scale = scale
        self.log = ws / "children.log"
        self.timeout_s = CHILD_TIMEOUT_S[scale]
        self.problems: list[str] = []
        self.synth: dict[str, float] = {}
        self.operations = 1  # operations one timed command counts for
        self.launcher = launcher

    # -- children ----------------------------------------------------------

    def _env(self) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "DEPGROWTH_MODEL_TOKEN")}
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONHASHSEED"] = "0"
        if self.token:
            env["DEPGROWTH_MODEL_TOKEN"] = "perfbench-dummy-token"
        return env

    def _child(self, argv: list[str], probe: bool = True) -> Child:
        request = {
            "argv": argv,
            "env": self._env(),
            "cwd": str(self.root),
            "log": str(self.log),
            "timeout_s": self.timeout_s,
            "probe": probe,
        }
        return self.launcher.run(request)

    def cli(self, args: list[str], probe: bool = True) -> Child:
        """Run ``depgrowth`` cold; ``probe`` False leaves it unpaused."""
        return self._child([sys.executable, "-m", "depgrowth.cli", *args], probe)

    def traced_cli(self, args: list[str], trace_file: Path) -> Child:
        """Run ``depgrowth`` in-process under the tracer, unpaused."""
        return self._child([sys.executable, str(HERE / "tracer.py"), "--out", str(trace_file), "--", *args], False)

    def setup(self) -> Child:
        """Build the inputs in a child process; returns that child."""
        argv = [sys.executable, str(HERE / "workloads.py"), self.name, str(self.root), str(self.ws), str(self.seed), self.scale]
        child = self._child(argv)
        if child.code != 0:
            raise RuntimeError(f"set-up exited {child.code}; see {self.log}")
        self.synth = json.loads((self.ws / "setup.json").read_text(encoding="utf-8"))
        self.load()
        return child

    def run_cli(self, args: list[str]) -> None:
        """Run ``depgrowth`` directly, for a set-up step or a reference."""
        with open(self.log, "ab") as log:
            code = subprocess.run(
                [sys.executable, "-m", "depgrowth.cli", *args],
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=log,
                env=self._env(),
                cwd=self.root,
                timeout=self.timeout_s,
            ).returncode
        if code != 0:
            raise RuntimeError(f"depgrowth {args[0]} exited {code}; see {self.log}")

    def generate(self, scale: str) -> None:
        self.synth = corpus.generate(scale, self.seed, fresh(self.ws / "corpus"))

    def cached(self, name: str, key_files: list[Path], build):
        """A reference result, cached per input digest and not timed."""
        digest = hashlib.sha256()
        for path in key_files:
            digest.update(hashlib.sha256(path.read_bytes()).digest())
        path = self.root / ".perfbench_work" / "cache" / f"{name}-{digest.hexdigest()[:24]}.json"
        if path.exists():
            return json.loads(path.read_text(encoding="utf-8"))
        value = build()
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(value), encoding="utf-8")
        os.replace(tmp, path)
        return value

    # -- hooks ---------------------------------------------------------------

    def build(self) -> None:
        """Make the inputs; runs in the set-up child and sets ``synth``."""

    def load(self) -> None:
        """Take up what ``build`` made, in the benchmark process."""

    def reference(self) -> None:
        """Compute what the outputs must be; runs once, after set-up."""

    def before(self) -> None:
        """Reset state so each timed command starts cold."""

    def after(self) -> int:
        """Check one timed command's outputs; returns its failed operations."""
        raise NotImplementedError

    def metadata(self, wall_s: float) -> dict:
        return {}

    def stub_arrivals(self) -> list | None:
        return None

    def close(self) -> None:
        """Stop anything the workload started."""

    def _fail(self, problems: list[str]) -> int:
        self.problems += problems
        return int(bool(problems))


class FullAll(Workload):
    """``depgrowth all`` on a fresh output directory, checked against the oracle."""

    name = "full-all"

    def build(self) -> None:
        self.generate(self.scale)

    def load(self) -> None:
        self.corpus = self.ws / "corpus"
        self.digests = None

    def reference(self) -> None:
        files = [self.corpus / name for name in corpus.CORPUS_FILES]
        self.oracle = self.cached("oracle", files, lambda: checks.oracle_reference(self.corpus))

    def command(self) -> list[str]:
        return ["all", *corpus_args(self.corpus), "--out-dir", str(self.ws / "out")]

    def before(self) -> None:
        fresh(self.ws / "out")

    def after(self) -> int:
        problems = checks.check_against_oracle(self.ws / "out", self.oracle)
        digests = checks.tree_digests(self.ws / "out")
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            problems.append("artifacts differ between runs of the same input")
        return self._fail(problems)


class DailyDumpFilter(Workload):
    """``depgrowth filter`` on a date-major, duplicated, partly malformed dump."""

    name = "daily-dump-filter"

    def build(self) -> None:
        self.generate(self.scale)
        self.synth["violations"] = corpus.daily_dump(self.ws / "corpus", fresh(self.ws / "dump"), self.seed)

    def load(self) -> None:
        self.clean = self.ws / "corpus"
        self.corpus = self.ws / "dump"
        self.violations = self.synth.pop("violations")

    def reference(self) -> None:
        def build():
            out = fresh(self.ws / "clean_out")
            self.run_cli(["filter", *corpus_args(self.clean), "--out-dir", str(out)])
            return checks.filter_reference(out)

        files = [self.clean / name for name in corpus.CORPUS_FILES]
        self.expected = self.cached("clean-filter", files, build)

    def command(self) -> list[str]:
        return ["filter", *corpus_args(self.corpus), "--out-dir", str(self.ws / "out")]

    def before(self) -> None:
        fresh(self.ws / "out")

    def after(self) -> int:
        return self._fail(checks.check_same_filter(self.ws / "out", self.expected, self.violations))


class AnalyzeOnly(Workload):
    """``depgrowth analyze`` over upstream artifacts built in set-up."""

    name = "analyze-only"

    def build(self) -> None:
        self.generate(self.scale)
        self.run_cli(["all", *corpus_args(self.ws / "corpus"), "--out-dir", str(fresh(self.ws / "out"))])

    def load(self) -> None:
        self.corpus = self.ws / "corpus"
        self.out = self.ws / "out"

    def reference(self) -> None:
        self.digests = checks.tree_digests(self.out)

    def command(self) -> list[str]:
        return ["analyze", *corpus_args(self.corpus), "--out-dir", str(self.out)]

    def after(self) -> int:
        same = checks.tree_digests(self.out) == self.digests
        return self._fail([] if same else ["analyze artifacts differ from the set-up run"])


class RateLive(Workload):
    """``depgrowth complexity`` against the localhost stub model, two workers.

    Each eligible release key is an operation besides the command itself.
    """

    name = "rate-live"
    token = True
    model = None

    def build(self) -> None:
        self.generate("full" if self.scale == "full" else "rate")
        corpus.lengthen_notes(self.ws / "corpus", self.seed)
        self.run_cli(["filter", *corpus_args(self.ws / "corpus"), "--out-dir", str(fresh(self.ws / "filtered"))])

    def load(self) -> None:
        self.corpus = self.ws / "corpus"
        self.base = self.ws / "filtered"

    def reference(self) -> None:
        def build():
            out = fresh(self.ws / "mock_out")
            shutil.copy(self.base / "filtered_releases.jsonl", out)
            self.run_cli(["complexity", *corpus_args(self.corpus), "--out-dir", str(out)])
            return checks.rating_reference(out)

        files = [self.corpus / "repo_snapshots.jsonl", self.base / "filtered_releases.jsonl"]
        self.expected = self.cached("mock-ratings", files, build)
        ratings = self.expected["ratings"]
        queue = []  # prompt digests in the order the complexity stage submits them
        for row in checks.rows(self.base / "filtered_releases.jsonl"):
            key = f"{row['ecosystem']}:{row['package_name']}:{row['release_date']}:{row['version_text']}"
            if key in ratings:
                queue.append(ratings[key]["prompt_sha256"])
        self.permanent, self.transient = stub.failure_plan(queue, self.seed)
        self.model = stub.StubModel(self.permanent, self.transient).__enter__()
        self.operations = 1 + self.expected["eligible"]

    def command(self) -> list[str]:
        return [
            "complexity",
            *corpus_args(self.corpus),
            "--out-dir",
            str(self.ws / "out"),
            "--workers",
            "2",
            "--model-endpoint",
            self.model.endpoint,
        ]

    def before(self) -> None:
        out = fresh(self.ws / "out")
        shutil.copy(self.base / "filtered_releases.jsonl", out)
        self.model.reset()

    def after(self) -> int:
        wrong, problems = checks.check_ratings(self.ws / "out", self.expected, self.permanent)
        self.problems += problems
        return wrong

    def metadata(self, wall_s: float) -> dict:
        eligible = len(self.expected["ratings"])
        return {
            "ratings_per_s": (eligible - len(self.permanent)) / wall_s,
            "rating_failures_ratio": len(self.permanent) / eligible,
        }

    def stub_arrivals(self) -> list | None:
        return self.model.arrivals

    def close(self) -> None:
        if self.model is not None:
            self.model.__exit__(None, None, None)


WORKLOADS = {cls.name: cls for cls in (FullAll, DailyDumpFilter, AnalyzeOnly, RateLive)}


def main(argv: list[str]) -> int:
    """Set-up child: build one workload's inputs and write ``setup.json``."""
    name, root, ws, seed, scale = argv
    workload = WORKLOADS[name](Path(root), Path(ws), int(seed), scale, None)
    workload.build()
    (workload.ws / "setup.json").write_text(json.dumps(workload.synth), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
