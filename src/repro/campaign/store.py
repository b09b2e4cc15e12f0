"""Persistent JSON result store for simulation campaigns.

One file per run under a root directory, keyed by
``(machine, benchmark, config.label(), seed, scale)`` plus the engine
flavor. The store survives across invocations, so re-running a figure
driver or campaign only simulates design points it has never seen —
the caching layer that makes repeated regenerations cheap — and it can
be shared by several hosts executing disjoint shards of one campaign.

Layout::

    <root>/
      <machine>/
        <benchmark>/
          <config-label>__seed<seed>__scale<scale>[__ref][__samp-<plan>].json

Reference-engine runs (``cycle_skip=False``) get the ``__ref`` suffix:
the two engines are bit-identical by contract, but an engine cross-check
that silently read the other engine's cache entry would verify nothing,
so the flavors never share an entry. Sampled runs get a ``__samp-<plan>``
suffix for the same reason with the opposite sign: a sampled result is
an *extrapolation*, and serving it to a caller that asked for a full
run (or vice versa) would silently change result semantics. Files
outside the ``<machine>/<benchmark>/`` layout are not entries: a store
never reads them.

Labels are sanitised for the filesystem (``::`` and other separators
become ``-``); the authoritative key is stored inside the JSON payload
and verified on load, so a sanitisation collision cannot silently serve
the wrong result.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.campaign.spec import RunKey, RunSpec
from repro.errors import ConfigurationError, SimulationError
from repro.machine.results import SimulationResult
from repro.machine.serialization import (
    _LEGACY_MACHINE,
    result_from_dict,
    result_to_dict,
)
from repro.obs.recorder import metrics_registry as _active_metrics

_UNSAFE = re.compile(r"[^A-Za-z0-9._=-]+")

#: Process umask, captured once at import (reading it requires setting
#: it; doing so here keeps the racy set/restore out of concurrent
#: ``put()`` calls). Entries are chmodded to umask-based permissions so
#: shared store trees stay readable across users — ``mkstemp`` alone
#: would pin every result file to 0600.
_UMASK = os.umask(0)
os.umask(_UMASK)


def _sanitize(part: str) -> str:
    return _UNSAFE.sub("-", part)


def _format_scale(scale: float) -> str:
    # Stable, filesystem-safe rendering: 1.0 -> "1", 0.15 -> "0.15".
    text = f"{scale:g}"
    return text.replace("/", "-")


def _entry_identity(entry: dict) -> tuple[RunKey, tuple[str, str]]:
    """The ``(key, (engine, sampling))`` identity of one journal entry.

    The single place the journal's field defaults live: ``--status``,
    the ``--from-failures`` manifest rebuild and journal compaction all
    reconstruct identities through here, so a new flavor axis cannot
    silently desynchronize them.
    """
    key: RunKey = (
        str(entry.get("machine", _LEGACY_MACHINE)),
        str(entry.get("benchmark", "")),
        str(entry.get("label", "")),
        int(entry.get("seed", 0)),
        float(entry.get("scale", 1.0)),
    )
    flavor = (
        str(entry.get("engine", "skip")),
        str(entry.get("sampling", "")),
    )
    return key, flavor


def _normalize_key(raw: object) -> RunKey | None:
    """Rebuild a :data:`RunKey` from a stored payload header."""
    if not isinstance(raw, list) or len(raw) != 5:
        return None
    machine, benchmark, label, seed, scale = raw
    return (str(machine), str(benchmark), str(label), int(seed), float(scale))


class ResultStore:
    """Directory-backed store of :class:`SimulationResult` keyed by run."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ConfigurationError(
                f"result store root {self.root} is not a usable directory: "
                f"{exc}"
            ) from exc

    # -- paths -------------------------------------------------------------

    def _filename(self, spec: RunSpec) -> str:
        _machine, _benchmark, label, seed, scale = spec.key
        engine = "" if spec.cycle_skip else "__ref"
        sampling = f"__samp-{_sanitize(spec.sampling)}" if spec.sampling else ""
        return (
            f"{_sanitize(label)}__seed{seed}__scale{_format_scale(scale)}"
            f"{engine}{sampling}.json"
        )

    def path_for(self, spec: RunSpec) -> Path:
        machine, benchmark = spec.key[0], spec.key[1]
        return (
            self.root
            / _sanitize(machine)
            / _sanitize(benchmark)
            / self._filename(spec)
        )

    # -- access ------------------------------------------------------------

    def __contains__(self, spec: RunSpec) -> bool:
        return self.path_for(spec).exists()

    def get(self, spec: RunSpec) -> SimulationResult | None:
        """Load the stored result for ``spec``, or None when absent."""
        registry = _active_metrics()
        if registry is None:
            return self._get(spec)
        started = time.perf_counter()
        result = self._get(spec)
        registry.histogram("store.result.get_s").observe(
            time.perf_counter() - started
        )
        registry.counter(
            "store.result.requests",
            outcome="hit" if result is not None else "miss",
        ).inc()
        return result

    def _get(self, spec: RunSpec) -> SimulationResult | None:
        path = self.path_for(spec)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SimulationError(
                f"corrupt result cache entry {path}: {exc}"
            ) from exc
        stored_key = payload.get("key")
        if stored_key is not None and _normalize_key(stored_key) != spec.key:
            raise SimulationError(
                f"result cache entry {path} holds key {stored_key}, "
                f"expected {spec.key} (label sanitisation collision?)"
            )
        stored_engine = payload.get("engine")
        if stored_engine is not None and stored_engine != spec.engine:
            raise SimulationError(
                f"result cache entry {path} was produced by the "
                f"{stored_engine!r} engine but the {spec.engine!r} engine "
                f"was requested; engine flavors never share cache entries"
            )
        stored_sampling = payload.get("sampling", "")
        if stored_sampling != spec.sampling:
            raise SimulationError(
                f"result cache entry {path} holds sampling flavor "
                f"{stored_sampling!r} but {spec.sampling!r} was requested; "
                f"sampled (extrapolated) and full results never share "
                f"cache entries"
            )
        stored_digest = payload.get("config_digest")
        if stored_digest is not None and stored_digest != spec.config_digest():
            raise SimulationError(
                f"result cache entry {path} was produced by a different "
                f"machine configuration than requested: the design-point "
                f"label {spec.key[2]!r} does not distinguish them. Use "
                f"distinct labels or a separate cache directory."
            )
        result = result_from_dict(
            payload["result"], expect_machine=spec.machine
        )
        result.metrics = payload.get("metrics")
        return result

    def put(self, spec: RunSpec, result: SimulationResult) -> Path:
        """Persist one result; returns the written path."""
        registry = _active_metrics()
        started = time.perf_counter() if registry is not None else 0.0
        path = self._put(spec, result)
        if registry is not None:
            registry.histogram("store.result.put_s").observe(
                time.perf_counter() - started
            )
        return path

    def _put(self, spec: RunSpec, result: SimulationResult) -> Path:
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": list(spec.key),
            "engine": spec.engine,
            "config_digest": spec.config_digest(),
            "result": result_to_dict(result),
        }
        if spec.sampling:
            payload["sampling"] = spec.sampling
        if result.metrics is not None:
            # Beside (not inside) the result payload: the result dict is
            # the bit-identity contract, while recorded metrics carry
            # wall times that legitimately vary run to run.
            payload["metrics"] = result.metrics
        # Unique tmp per writer: two runners recovering the same run
        # over one store tree (shards, --from-failures) may put() the
        # same spec concurrently, and a shared tmp name would let one
        # writer's replace() consume the other's half-written file.
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.stem + ".", suffix=".tmp", dir=path.parent
        )
        tmp = Path(tmp_name)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload, indent=2) + "\n")
            # os.chmod (not fchmod: absent on Windows < 3.13) so shared
            # store trees keep umask-based cross-user readability.
            os.chmod(tmp, 0o666 & ~_UMASK)
            tmp.replace(path)  # atomic within one filesystem
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    # -- maintenance ---------------------------------------------------------

    def _entry_paths(self) -> list[Path]:
        return sorted(self.root.glob("*/*/*.json"))

    def payloads(self) -> list[dict]:
        """Every readable entry payload, in deterministic path order.

        The read-only sweep behind ``repro.obs summary`` and the
        ``--status`` phase breakdown: callers get the raw stored dicts
        (``key``/``engine``/``result`` headers, and ``result.metrics``
        when the run recorded any) without reconstructing specs or
        machine configs. Corrupt entries are skipped, matching
        :meth:`keys`.
        """
        found: list[dict] = []
        for path in self._entry_paths():
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if isinstance(payload, dict):
                found.append(payload)
        return found

    def keys(self) -> list[RunKey]:
        """Every key currently stored (reads each payload's header)."""
        found: list[RunKey] = []
        for path in self._entry_paths():
            try:
                payload = json.loads(path.read_text())
            except json.JSONDecodeError:
                continue
            key = _normalize_key(payload.get("key"))
            if key is not None:
                found.append(key)
        return found

    def __len__(self) -> int:
        return len(self._entry_paths())

    def gc(self, dry_run: bool = False) -> list[Path]:
        """Drop entries whose identity no longer parses.

        An entry is collectable when its payload is not valid JSON, its
        key header cannot be rebuilt, its machine is not a registered
        model, its engine flavor is unknown, or its sampling flavor is
        not a parseable plan spec — the debris left behind when a store
        tree outlives the code (renamed machine models, retired flavor
        formats). Returns the removed paths; with ``dry_run`` nothing
        is deleted, the would-be victims are only reported.
        """
        from repro.machine.model import model_names
        from repro.sampling.plan import resolve_plan

        known_machines = set(model_names())
        victims: list[Path] = []
        for path in self._entry_paths():
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                victims.append(path)
                continue
            key = _normalize_key(payload.get("key"))
            parseable = (
                key is not None
                and key[0] in known_machines
                and payload.get("engine", "skip") in ("skip", "reference")
            )
            if parseable:
                try:
                    resolve_plan(str(payload.get("sampling", "")))
                except ConfigurationError:
                    parseable = False
            if not parseable:
                victims.append(path)
        if not dry_run:
            for path in victims:
                path.unlink(missing_ok=True)
        return victims

    def journalled_flavors(self) -> set[tuple[RunKey, tuple[str, str]]]:
        """The ``(key, (engine, sampling))`` identities in the journal."""
        return {
            _entry_identity(entry) for entry in self.journalled_failures()
        }

    # -- failure journal -----------------------------------------------------

    @property
    def journal_path(self) -> Path:
        """The resume manifest: one JSON object per permanently-failed run."""
        return self.root / "failures.jsonl"

    def journalled_failures(self) -> list[dict]:
        """Parse ``failures.jsonl`` (malformed lines are skipped)."""
        path = self.journal_path
        if not path.exists():
            return []
        entries: list[dict] = []
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict):
                entries.append(entry)
        return entries

    def failed_specs(self) -> list[RunSpec]:
        """Rebuild the journalled runs as specs — the resume manifest.

        Entries whose run has since landed in the store are skipped, so
        the manifest stays accurate without ever rewriting the
        append-only journal (several hosts may be appending to it
        concurrently over one shared tree). Entries whose machine model
        or configuration cannot be rebuilt (e.g. written by a newer
        version) are skipped rather than aborting the resume.
        """
        from repro.machine.model import get_model

        specs: list[RunSpec] = []
        seen: set[tuple[RunKey, tuple[str, str]]] = set()
        for entry in self.journalled_failures():
            try:
                model = get_model(entry.get("machine", _LEGACY_MACHINE))
                config = model.config_type(**entry["config"])
                spec = RunSpec(
                    benchmark=entry["benchmark"],
                    config=config,
                    seed=int(entry.get("seed", 0)),
                    scale=float(entry.get("scale", 1.0)),
                    warm_l2=bool(entry.get("warm_l2", True)),
                    cycle_skip=entry.get("engine", "skip") == "skip",
                    sampling=str(entry.get("sampling", "")),
                )
            except Exception:
                continue
            if (spec.key, spec.flavor) in seen or spec in self:
                continue
            seen.add((spec.key, spec.flavor))
            specs.append(spec)
        return specs

    def prune_journal(
        self, succeeded: set[tuple[RunKey, tuple[str, str]]]
    ) -> int:
        """Compact the journal: drop entries whose runs have succeeded.

        ``succeeded`` holds ``(run key, (engine, sampling) flavor)``
        pairs — the flavor matters because a scheduled-engine success
        says nothing about a still-failing reference cross-check of the
        same design point, and a sampled success says nothing about the
        full run. The rewrite is an explicit, single-operator compaction
        (the ``--from-failures`` flow); routine sweeps never rewrite
        the journal, they only append, so concurrent hosts cannot lose
        each other's entries. The replacement file lands atomically.
        Returns the number of entries removed.
        """
        path = self.journal_path
        if not path.exists() or not succeeded:
            return 0
        kept: list[str] = []
        dropped = 0
        for entry in self.journalled_failures():
            if _entry_identity(entry) in succeeded:
                dropped += 1
            else:
                kept.append(json.dumps(entry))
        if dropped:
            text = "\n".join(kept)
            tmp = path.with_suffix(".jsonl.tmp")
            tmp.write_text(text + "\n" if text else "")
            tmp.replace(path)  # atomic within one filesystem
        return dropped


@dataclass
class MergeReport:
    """Outcome of one store-tree merge."""

    copied: int = 0
    replaced: int = 0
    skipped: int = 0
    journal_entries: int = 0
    checkpoints: int = 0

    def summary(self) -> str:
        return (
            f"{self.copied} entries copied, {self.replaced} replaced "
            f"(newer), {self.skipped} kept (destination newer or equal), "
            f"{self.journal_entries} journal entries merged, "
            f"{self.checkpoints} checkpoint(s) merged"
        )


def merge_stores(
    sources: list[str | Path], destination: str | Path
) -> MergeReport:
    """Union sharded store trees into one (``newest wins`` on collision).

    The multi-host flow: several machines sweep disjoint shards into
    local trees (or one NFS tree splits), and a merge folds them back
    together. Entries are matched by their store path — the sanitised
    key plus flavor suffixes — and on a collision the file with the
    newer modification time wins, so a re-run of a previously-failed
    design point supersedes the stale entry regardless of which tree it
    landed in. Failure journals are unioned line-wise (duplicates
    dropped); :meth:`ResultStore.failed_specs` already ignores entries
    whose run has since landed, so merged journals stay usable as
    resume manifests. Warm-checkpoint trees (``checkpoints/`` beside
    the entries) are unioned the same newest-wins way, so merged trees
    keep amortising functional warming for every future sampled run.
    """
    import shutil

    destination_store = ResultStore(destination)
    report = MergeReport()
    journal_lines: list[str] = []
    seen_lines: set[str] = set()
    destination_journal = destination_store.journal_path
    if destination_journal.exists():
        for line in destination_journal.read_text().splitlines():
            if line.strip():
                seen_lines.add(line.strip())
    # Validate every source before copying anything: failing halfway
    # through would leave a partially-merged tree whose journal lines
    # (written only after the loop) were silently dropped.
    for source in sources:
        source_root = Path(source)
        if not source_root.is_dir():
            raise ConfigurationError(
                f"merge source {source_root} is not a directory"
            )
        if source_root.resolve() == destination_store.root.resolve():
            raise ConfigurationError(
                f"merge source {source_root} is the destination itself"
            )
    for source in sources:
        source_store = ResultStore(Path(source))
        for path in source_store._entry_paths():
            relative = path.relative_to(source_store.root)
            target = destination_store.root / relative
            if target.exists():
                if target.stat().st_mtime >= path.stat().st_mtime:
                    report.skipped += 1
                    continue
                report.replaced += 1
            else:
                report.copied += 1
            target.parent.mkdir(parents=True, exist_ok=True)
            # copy2 preserves mtimes, keeping newest-wins transitive
            # across repeated merges.
            shutil.copy2(path, target)
        source_checkpoints = source_store.root / "checkpoints"
        if source_checkpoints.is_dir():
            for path in sorted(
                source_checkpoints.glob("*/*/*/*/*/detail*.json")
            ):
                relative = path.relative_to(source_store.root)
                target = destination_store.root / relative
                if target.exists() and (
                    target.stat().st_mtime >= path.stat().st_mtime
                ):
                    continue
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(path, target)
                report.checkpoints += 1
        source_journal = source_store.journal_path
        if source_journal.exists():
            for line in source_journal.read_text().splitlines():
                line = line.strip()
                if line and line not in seen_lines:
                    seen_lines.add(line)
                    journal_lines.append(line)
    if journal_lines:
        with destination_journal.open("a") as journal:
            for line in journal_lines:
                journal.write(line + "\n")
        report.journal_entries = len(journal_lines)
    return report
