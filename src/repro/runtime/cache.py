"""Content-addressed on-disk caches for profiles and SpMU throughputs.

Collecting the evaluation's profiles means functionally executing eleven
application variants on three datasets each -- by far the most expensive
part of regenerating any table or figure. Profiles are deterministic given
(application, dataset, run context, code), so :class:`ProfileCache` caches
them on disk keyed by exactly that content:

* the application and dataset names,
* the :class:`~repro.runtime.registry.RunContext` fingerprint (scale,
  iteration counts, scanner override), and
* a fingerprint of the package source that produces profiles (everything
  under ``repro`` except the eval/runtime harness layers), so editing any
  model or application invalidates stale entries automatically.

:class:`ThroughputStore` applies the same machinery to the stochastic SpMU
random-access microbenchmark behind
:func:`~repro.core.spmu.effective_bank_throughput_batch`: the measured
throughput is deterministic given the SpMU variant, the random trace
(vectors, seed) and the simulator code, so persisting it keyed by that
content lets Table 4 and design-space sweeps skip re-simulating every
point in every fresh process.

Entries are JSON files (one per record) written atomically; a corrupt,
truncated, or version-skewed entry reads as a miss, never as an error.

Set ``REPRO_PROFILE_CACHE`` / ``REPRO_THROUGHPUT_CACHE`` to relocate the
cache directories and ``REPRO_PROFILE_CACHE_DISABLE=1`` /
``REPRO_THROUGHPUT_CACHE_DISABLE=1`` to turn either cache off entirely.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from ..apps.profile import WorkloadProfile
from ..core.spmu import THROUGHPUT_SEED, THROUGHPUT_VECTORS, SpMUVariant
from .registry import RunContext

#: Bump when the serialized profile layout changes incompatibly.
CACHE_VERSION = 1

#: Bump when the serialized throughput layout changes incompatibly.
THROUGHPUT_CACHE_VERSION = 1

#: Package subdirectories excluded from the code fingerprint: they consume
#: profiles but cannot change what a functional run produces.
_FINGERPRINT_EXCLUDED = ("eval", "runtime", "__pycache__")


def cache_enabled() -> bool:
    """Whether the on-disk profile cache is enabled (kill switch honored)."""
    return os.environ.get("REPRO_PROFILE_CACHE_DISABLE", "") not in ("1", "true", "yes")


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_PROFILE_CACHE`` or ``~/.cache/repro/profiles``."""
    override = os.environ.get("REPRO_PROFILE_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "profiles"


def throughput_store_enabled() -> bool:
    """Whether the on-disk throughput store is enabled (kill switch honored)."""
    return os.environ.get("REPRO_THROUGHPUT_CACHE_DISABLE", "") not in ("1", "true", "yes")


def default_throughput_dir() -> Path:
    """The store root: ``$REPRO_THROUGHPUT_CACHE`` or ``~/.cache/repro/throughput``."""
    override = os.environ.get("REPRO_THROUGHPUT_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "throughput"


_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint(refresh: bool = False) -> str:
    """Hash of all profile-producing package sources (memoized per process)."""
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is not None and not refresh:
        return _CODE_FINGERPRINT
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root)
        if any(part in _FINGERPRINT_EXCLUDED for part in relative.parts):
            continue
        digest.update(str(relative).encode())
        digest.update(path.read_bytes())
    _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


def _write_json_atomic(root: Path, path: Path, payload: Dict[str, Any]) -> None:
    """Write one JSON entry atomically (write-to-temp, then rename)."""
    root.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _json_default(value: Any):
    """Serialize numpy scalars/arrays the profiles may carry."""
    item = getattr(value, "item", None)
    if callable(item):
        return value.item()
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return value.tolist()
    raise TypeError(f"unserializable profile value: {value!r}")


def profile_to_dict(profile: WorkloadProfile) -> Dict[str, Any]:
    """Serialize one profile to a JSON-compatible dict."""
    raw = dataclasses.asdict(profile)
    # Round-trip through JSON so numpy scalars are normalized identically
    # whether a profile was computed or loaded from cache.
    return json.loads(json.dumps(raw, default=_json_default))


def profile_from_dict(data: Dict[str, Any]) -> WorkloadProfile:
    """Rebuild a profile, ignoring unknown fields from newer layouts."""
    known = {f.name for f in dataclasses.fields(WorkloadProfile)}
    return WorkloadProfile(**{k: v for k, v in data.items() if k in known})


class ProfileCache:
    """Content-addressed :class:`WorkloadProfile` store.

    Attributes:
        root: Directory holding one ``<key>.json`` file per profile.
        hits / misses / stores: Per-instance access statistics.
    """

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key(
        self,
        app: str,
        dataset: str,
        context: RunContext,
        fingerprint: Optional[str] = None,
        context_fields: Optional[tuple] = None,
    ) -> str:
        """Cache key for one (app, dataset, context, code) combination.

        Args:
            app / dataset / context: Task coordinates.
            fingerprint: Code-fingerprint override (testing).
            context_fields: Which context parameters the application reads
                (its :attr:`~repro.runtime.registry.AppSpec.context_fields`);
                ``None`` fingerprints all of them.
        """
        material = {
            "version": CACHE_VERSION,
            "app": app,
            "dataset": dataset,
            "context": context.fingerprint(context_fields),
            "code": fingerprint if fingerprint is not None else code_fingerprint(),
        }
        encoded = json.dumps(material, sort_keys=True).encode()
        return hashlib.sha256(encoded).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[WorkloadProfile]:
        """Read one cached profile; any malformed entry is a miss."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(payload, dict) or payload.get("version") != CACHE_VERSION:
            self.misses += 1
            return None
        try:
            profile = profile_from_dict(payload["profile"])
        except (KeyError, TypeError, AttributeError):
            self.misses += 1
            return None
        self.hits += 1
        return profile

    def store(self, key: str, profile: WorkloadProfile) -> None:
        """Write one profile atomically (write-to-temp, then rename)."""
        payload = {
            "version": CACHE_VERSION,
            "code": code_fingerprint(),
            "profile": profile_to_dict(profile),
        }
        _write_json_atomic(self.root, self._path(key), payload)
        self.stores += 1

    def clear(self) -> int:
        """Delete every cache entry (and stray temp files); returns the count."""
        removed = 0
        if self.root.is_dir():
            for path in list(self.root.glob("*.json")) + list(self.root.glob("*.tmp")):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def prune(self) -> int:
        """Remove entries written by other code versions, and stray temps.

        Every source edit changes the code fingerprint and orphans the
        previous entries; pruning keeps only profiles the current code
        could still serve. Returns the number of files removed.
        """
        removed = 0
        if not self.root.is_dir():
            return 0
        current = code_fingerprint()
        for path in self.root.glob("*.tmp"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in self.root.glob("*.json"):
            try:
                payload = json.loads(path.read_text())
                stale = payload.get("code") != current or payload.get("version") != CACHE_VERSION
            except (OSError, ValueError, AttributeError):
                stale = True
            if stale:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))


class ThroughputStore:
    """Content-addressed store for SpMU microbenchmark throughputs.

    One entry per (SpMU variant, trace vectors, trace seed, code)
    combination; the code fingerprint shares
    :func:`code_fingerprint`, so any edit to the simulator (or anything
    else that could change a measurement) orphans stale entries.

    Attributes:
        root: Directory holding one ``<key>.json`` file per measurement.
        hits / misses / stores: Per-instance access statistics.
    """

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else default_throughput_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def key(
        self,
        variant: SpMUVariant,
        *,
        vectors: int = THROUGHPUT_VECTORS,
        fingerprint: Optional[str] = None,
    ) -> str:
        """Store key for one microbenchmark measurement.

        The only place the key's fields are spelled out: every field of the
        :class:`~repro.core.spmu_array.SpMUVariant`, plus the random
        trace's length and seed, plus the code fingerprint.

        Args:
            variant: The measured SpMU configuration point.
            vectors: The random trace's length.
            fingerprint: Code-fingerprint override (testing).
        """
        material = {
            "version": THROUGHPUT_CACHE_VERSION,
            "ordering": variant.ordering.value,
            "bank_mapping": variant.bank_mapping,
            "allocator_kind": variant.allocator_kind,
            "config": dataclasses.asdict(variant.config),
            "lanes": variant.lanes,
            "pipeline_latency": variant.pipeline_latency,
            "vectors": vectors,
            "seed": THROUGHPUT_SEED,
            "code": fingerprint if fingerprint is not None else code_fingerprint(),
        }
        encoded = json.dumps(material, sort_keys=True).encode()
        return hashlib.sha256(encoded).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[float]:
        """Read one persisted throughput; any malformed entry is a miss."""
        try:
            payload = json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(payload, dict) or payload.get("version") != THROUGHPUT_CACHE_VERSION:
            self.misses += 1
            return None
        value = payload.get("throughput")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            self.misses += 1
            return None
        self.hits += 1
        return float(value)

    def store(self, key: str, throughput: float) -> None:
        """Persist one measurement atomically."""
        payload = {"version": THROUGHPUT_CACHE_VERSION, "throughput": float(throughput)}
        _write_json_atomic(self.root, self._path(key), payload)
        self.stores += 1

    def load_many(self, keys: Sequence[str]) -> Dict[str, float]:
        """Load a batch of measurements (one entry file read per key).

        Returns only the keys that hit; absent or malformed entries are
        simply missing from the result (and counted as misses). This is a
        convenience batch over :meth:`load` -- the store is one JSON file
        per entry, so the batch shape buys a single call site, not fewer
        I/O operations.
        """
        found: Dict[str, float] = {}
        for key in keys:
            value = self.load(key)
            if value is not None:
                found[key] = value
        return found

    def store_many(self, measurements: Dict[str, float]) -> None:
        """Persist a batch of measurements (one atomic write per entry).

        Each entry is written atomically (write-to-temp then rename), so a
        concurrent sweep prefilling the same keys can only ever race to
        identical content.
        """
        for key, value in measurements.items():
            self.store(key, value)

    def clear(self) -> int:
        """Delete every entry (and stray temp files); returns the count."""
        removed = 0
        if self.root.is_dir():
            for path in list(self.root.glob("*.json")) + list(self.root.glob("*.tmp")):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))
