"""Run manifests: the provenance header of every trace and benchmark.

A figure table or a ``BENCH_*.json`` trajectory is only evidence if it
can be traced back to the exact inputs that produced it.  A
:class:`RunManifest` records those inputs — the workload configuration
(flattened to JSON scalars), every seed it contains, a canonical hash
of the configuration, the git commit of the source tree, the strategy
and the worker count — and is written as the first record of every
trace (``record: "manifest"``) and embedded into benchmark JSON output
by ``benchmarks/conftest.py``.

The manifest deliberately carries *no wall-clock timestamp*: two runs
of the same config at different times must produce byte-identical
manifests, so manifest equality *is* run reproducibility.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional

#: Trace schema version; bump on breaking record changes.  Version 2
#: writes one ``span`` event per finished span where version 1 wrote an
#: open and a close event.
MANIFEST_VERSION = 2


def config_fingerprint(config: Mapping[str, object]) -> str:
    """Canonical sha256 of a configuration mapping.

    Keys are sorted and values JSON-encoded (non-JSON values degrade to
    ``str``), so logically equal configs hash equal regardless of dict
    order or dataclass identity.
    """
    canonical = json.dumps(dict(config), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def current_git_sha(root: Optional[Path] = None) -> Optional[str]:
    """The source tree's commit hash, or ``None`` outside a checkout.

    Best-effort by design: a manifest from an installed wheel or a CI
    tarball still records everything else; ``git_sha: null`` is the
    honest value there.
    """
    cwd = root if root is not None else Path(__file__).resolve().parent
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(cwd),
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def extract_seeds(config: Mapping[str, object]) -> Dict[str, int]:
    """Every integer seed field of a config (keys ending in ``seed``)."""
    return {key: value for key, value in config.items()
            if key.endswith("seed") and isinstance(value, int)
            and not isinstance(value, bool)}


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one simulation or benchmark run."""

    strategy: str
    workload: Dict[str, object]
    seeds: Dict[str, int]
    config_hash: str
    git_sha: Optional[str]
    workers: int = 1
    extras: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def collect(cls, strategy: str, config: Mapping[str, object],
                workers: int = 1,
                git_sha: Optional[str] = None,
                **extras: object) -> "RunManifest":
        """Build a manifest from a flattened config mapping.

        ``config`` is typically ``dataclasses.asdict(WorkloadConfig)``;
        seeds and the canonical hash are derived from it.  ``git_sha``
        defaults to the current checkout's commit.  Keyword ``extras``
        (message sizes, energy constants, grid cell area, ...) land in
        the manifest verbatim and must be JSON-representable.
        """
        workload = dict(config)
        return cls(strategy=strategy, workload=workload,
                   seeds=extract_seeds(workload),
                   config_hash=config_fingerprint(workload),
                   git_sha=(git_sha if git_sha is not None
                            else current_git_sha()),
                   workers=workers, extras=dict(extras))

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (embedded in benchmark JSON outputs)."""
        return {"version": MANIFEST_VERSION, "strategy": self.strategy,
                "workload": dict(self.workload),
                "seeds": dict(self.seeds),
                "config_hash": self.config_hash, "git_sha": self.git_sha,
                "workers": self.workers, "extras": dict(self.extras)}

    def to_record(self) -> Dict[str, object]:
        """Trace-record form (the first line of a JSONL trace)."""
        record: Dict[str, object] = {"record": "manifest"}
        record.update(self.to_dict())
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "RunManifest":
        """Rebuild a manifest from its record/dict form."""
        workload = record.get("workload")
        seeds = record.get("seeds")
        extras = record.get("extras")
        git_sha = record.get("git_sha")
        workers_raw = record.get("workers", 1)
        workers = (workers_raw if isinstance(workers_raw, int)
                   and not isinstance(workers_raw, bool) else 1)
        seed_map: Dict[str, int] = {}
        if isinstance(seeds, Mapping):
            for key, value in seeds.items():
                if isinstance(value, int) and not isinstance(value, bool):
                    seed_map[str(key)] = value
        return cls(strategy=str(record["strategy"]),
                   workload=dict(workload)
                   if isinstance(workload, Mapping) else {},
                   seeds=seed_map,
                   config_hash=str(record["config_hash"]),
                   git_sha=str(git_sha) if git_sha is not None else None,
                   workers=workers,
                   extras=dict(extras)
                   if isinstance(extras, Mapping) else {})
