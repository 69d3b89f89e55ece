"""On-disk experiment-result cache keyed by configuration and code version.

A cache entry is one JSON file holding the serialized
:class:`~repro.harness.report.ExperimentResult` together with the exact
fingerprint that produced it.  The fingerprint covers:

* the experiment name,
* every field of the :class:`~repro.harness.config.ExperimentConfig`
  (datasets, bandwidth, seed, ...), and
* a *code version* — by default a hash over every ``.py`` file of the
  installed ``repro`` package, so editing any simulator, model or experiment
  invalidates all previously cached results.

This makes suite re-runs incremental: unchanged (config, code) pairs are
served from disk, everything else is recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import asdict
from pathlib import Path
from typing import Any, Iterator

import repro
from repro.harness.config import ExperimentConfig
from repro.harness.report import ExperimentResult, json_default
from repro.obs import metrics

_CODE_VERSION: str | None = None
_CODE_VERSION_LOCK = threading.Lock()


def source_tree_version() -> str:
    """Hash of every ``.py`` file of the installed ``repro`` package.

    Computed once per process (double-checked lock: concurrent first calls
    from harness threads race on the same deterministic digest); any source
    edit changes the digest and thereby invalidates all cache entries made
    with the previous code.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        with _CODE_VERSION_LOCK:
            if _CODE_VERSION is None:
                digest = hashlib.sha256()
                package_root = Path(repro.__file__).resolve().parent
                for path in sorted(package_root.rglob("*.py")):
                    digest.update(str(path.relative_to(package_root)).encode())
                    digest.update(path.read_bytes())
                # repro: allow(CONC001) per-process memo of a pure function of the source tree; every process computes the identical digest
                _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def config_fingerprint(config: ExperimentConfig) -> dict[str, Any]:
    """JSON-safe dict of every config field, used as part of the cache key."""
    fingerprint = asdict(config)
    fingerprint["datasets"] = list(fingerprint["datasets"])
    # A scenario's persistent identity is its *definition*, wherever it was
    # resolved from (carried by the config or the process registry); keying
    # on the carried tuple alone would let a redefined registry scenario hit
    # stale entries, and a carried-but-unused spec would split keys needlessly.
    fingerprint["scenarios"] = [
        asdict(spec)
        for spec in (config.effective_scenario(name) for name in config.datasets)
        if spec is not None
    ]
    return fingerprint


class ResultCache:
    """Directory of cached experiment results with fingerprint-based lookup.

    Args:
        directory: where entries are stored (created on first write).
        code_version: override of :func:`source_tree_version`, mainly for
            tests that need to simulate a code change.
    """

    def __init__(self, directory: str | Path, code_version: str | None = None):
        self.directory = Path(directory)
        self.code_version = code_version or source_tree_version()

    def key(self, name: str, config: ExperimentConfig) -> str:
        """Hex digest identifying (experiment, config, code version)."""
        payload = json.dumps(
            {
                "experiment": name,
                "config": config_fingerprint(config),
                "code_version": self.code_version,
            },
            sort_keys=True,
            default=json_default,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def path_for(self, name: str, config: ExperimentConfig) -> Path:
        """File path of the entry for (experiment, config, code version)."""
        return self.directory / f"{name}-{self.key(name, config)}.json"

    def get(self, name: str, config: ExperimentConfig) -> ExperimentResult | None:
        """The cached result, or ``None`` on a miss or unreadable entry."""
        path = self.path_for(name, config)
        if not path.exists():
            metrics.inc("cache.misses")
            return None
        try:
            entry = json.loads(path.read_text())
            result = ExperimentResult.from_dict(entry["result"])
        except (json.JSONDecodeError, KeyError, TypeError):
            metrics.inc("cache.misses")
            return None
        metrics.inc("cache.hits")
        return result

    def put(
        self,
        name: str,
        config: ExperimentConfig,
        result: ExperimentResult,
        elapsed_seconds: float | None = None,
    ) -> Path:
        """Store one result; returns the path of the written entry.

        Entries of the same experiment written by *older code versions* are
        pruned: they can never hit again (any source edit changes every key),
        so keeping them would grow the cache by one full generation per code
        change.  Entries of the current code version are kept — different
        configurations (bandwidth sweeps, dataset subsets) coexist.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        self._prune_stale(name)
        path = self.path_for(name, config)
        entry = {
            "experiment": name,
            "key": self.key(name, config),
            "code_version": self.code_version,
            "config": config_fingerprint(config),
            "elapsed_seconds": elapsed_seconds,
            "result": result.to_dict(),
        }
        # Write beside the entry, then rename over it: a writer killed
        # mid-write leaves a stray ``.tmp`` file (no ``*.json`` glob matches
        # it) instead of truncating the entry already there.
        tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
        tmp.write_text(json.dumps(entry, indent=2, default=json_default) + "\n")
        os.replace(tmp, path)
        metrics.inc("cache.writes")
        return path

    def _prune_stale(self, name: str) -> None:
        """Drop entries of ``name`` written by other code versions (or unreadable)."""
        for path in self.directory.glob(f"{name}-*.json"):
            try:
                version = json.loads(path.read_text()).get("code_version")
            except (json.JSONDecodeError, OSError):
                version = None
            if version != self.code_version:
                path.unlink(missing_ok=True)

    def entries(self) -> Iterator[Path]:
        """Paths of every entry currently in the cache directory."""
        if self.directory.exists():
            yield from sorted(self.directory.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            path.unlink()
            removed += 1
        return removed
