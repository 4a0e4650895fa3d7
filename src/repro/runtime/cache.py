"""Content-addressed on-disk stores: one entry layer, one key per store.

Collecting the evaluation's profiles means functionally executing eleven
application variants on three datasets each -- by far the most expensive
part of regenerating any table or figure. Profiles are deterministic given
(application, dataset, run context, code), so :class:`ProfileCache` caches
them on disk keyed by exactly that content:

* the application and dataset names,
* the :class:`~repro.runtime.registry.RunContext` fingerprint over the
  parameters the application declares it reads
  (:attr:`~repro.runtime.registry.AppSpec.context_fields`, looked up by
  :meth:`ProfileCache.key` itself), and
* a fingerprint of the package source that produces profiles (everything
  under ``repro`` except the eval/runtime harness layers), so editing any
  model or application invalidates stale entries automatically.

:class:`ThroughputStore` persists the stochastic SpMU random-access
microbenchmark behind
:func:`~repro.core.spmu.effective_bank_throughput_batch`: the measured
throughput is deterministic given the SpMU variant, the random trace
(vectors, seed) and the simulator code, so Table 4 and design-space sweeps
skip re-simulating every point in every fresh process.

:class:`ScanCostStore` persists a scanner sweep's per-configuration scan
costs (:class:`~repro.apps.scan_model.ScanCost`) next to the profiles, in
a ``scans/`` subdirectory of the profile cache: a scanner configuration
changes only a run's scan fields, so a cached profile plus one cached cost
per configuration re-costs Figure 6 without executing anything.

All three are one entry layer, :class:`_EntryStore`: a directory of
``<key>.json`` files stamped ``{"version", "code"}``, written atomically
(:func:`write_json_atomic`), where an absent, corrupt, truncated or
version-skewed entry reads as a miss, never as an error
(:func:`read_json`). Each store spells its key material in its own
``key`` method and hashes it with :func:`content_key`; the search store
(:class:`~repro.runtime.search.SearchStore`) and the job keys
(:mod:`~repro.runtime.jobs`) use the same helpers.

Set ``REPRO_PROFILE_CACHE`` / ``REPRO_THROUGHPUT_CACHE`` to relocate the
cache directories and ``REPRO_PROFILE_CACHE_DISABLE=1`` /
``REPRO_THROUGHPUT_CACHE_DISABLE=1`` to turn either cache off entirely;
the scan-cost store follows the profile cache's two settings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence

from ..apps.profile import WorkloadProfile
from ..apps.scan_model import ScanCost
from ..config import ScannerConfig
from ..core.spmu import THROUGHPUT_SEED, THROUGHPUT_VECTORS, SpMUVariant
from . import registry
from .registry import RunContext

#: Bump when the serialized profile layout changes incompatibly.
CACHE_VERSION = 1

#: Bump when the serialized throughput layout changes incompatibly.
THROUGHPUT_CACHE_VERSION = 1

#: Bump when the serialized scan-cost layout changes incompatibly.
SCAN_COST_CACHE_VERSION = 1

#: Package subdirectories excluded from the code fingerprint: they consume
#: profiles but cannot change what a functional run produces.
_FINGERPRINT_EXCLUDED = ("eval", "runtime", "__pycache__")


def content_key(material: Any) -> str:
    """SHA-256 hex digest of ``material`` as canonical (key-sorted) JSON."""
    return hashlib.sha256(json.dumps(material, sort_keys=True, default=str).encode()).hexdigest()


def read_json(path: Path) -> Optional[Dict[str, Any]]:
    """One JSON object from disk; ``None`` if absent, unreadable or not an object."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def write_json_atomic(path: Path, payload: Dict[str, Any]) -> None:
    """Write one compact JSON entry atomically (write-to-temp, then rename).

    ``json.dumps`` runs the C encoder; ``json.dump`` to a file always runs
    the pure-Python one, for the same bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(payload))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def env_root(variable: str, name: str) -> Path:
    """A store root: ``$variable`` when set, else ``~/.cache/repro/<name>``."""
    override = os.environ.get(variable)
    return Path(override) if override else Path.home() / ".cache" / "repro" / name


def cache_enabled() -> bool:
    """Whether the on-disk profile cache is enabled (kill switch honored)."""
    return os.environ.get("REPRO_PROFILE_CACHE_DISABLE", "") not in ("1", "true", "yes")


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_PROFILE_CACHE`` or ``~/.cache/repro/profiles``."""
    return env_root("REPRO_PROFILE_CACHE", "profiles")


def throughput_store_enabled() -> bool:
    """Whether the on-disk throughput store is enabled (kill switch honored)."""
    return os.environ.get("REPRO_THROUGHPUT_CACHE_DISABLE", "") not in ("1", "true", "yes")


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


class _EntryStore:
    """A directory of ``<key>.json`` entries stamped ``{"version", "code"}``.

    Subclasses spell their key material in ``key`` and their payload in
    ``load``/``store``; reading, writing, statistics, clearing and pruning
    live here once.

    Attributes:
        root: Directory holding one ``<key>.json`` file per entry.
        hits / misses / stores: Per-instance access statistics.
    """

    #: Entry layout version, set by each subclass.
    version: int

    def __init__(self, root: Path):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _read(self, key: str, decode: Callable[[Dict[str, Any]], Any]) -> Any:
        """Decode one entry; absent, malformed or undecodable entries are misses."""
        payload = read_json(self._path(key))
        value = None
        if payload is not None and payload.get("version") == self.version:
            try:
                value = decode(payload)
            except (KeyError, TypeError, AttributeError):
                pass
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def _write(self, key: str, entry: Dict[str, Any]) -> None:
        """Write one stamped entry atomically."""
        payload = {"version": self.version, "code": code_fingerprint(), **entry}
        write_json_atomic(self._path(key), payload)
        self.stores += 1

    def clear(self) -> int:
        """Delete every entry (and stray temp files); returns the count."""
        return self._remove(lambda path: True)

    def prune(self) -> int:
        """Remove entries written by other code or layout versions, and stray temps.

        Every source edit changes the code fingerprint and orphans the
        previous entries; pruning keeps only entries the current code could
        still serve. Returns the number of files removed.
        """
        current = {"version": self.version, "code": code_fingerprint()}

        def stale(path: Path) -> bool:
            payload = read_json(path) or {}
            return {name: payload.get(name) for name in current} != current

        return self._remove(stale)

    def _remove(self, doomed: Callable[[Path], bool]) -> int:
        """Unlink every stray temp file and every entry ``doomed`` selects."""
        if not self.root.is_dir():
            return 0
        removed = 0
        for path in list(self.root.glob("*.tmp")) + list(self.root.glob("*.json")):
            if path.suffix == ".tmp" or doomed(path):
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


class ProfileCache(_EntryStore):
    """Content-addressed :class:`WorkloadProfile` store."""

    version = CACHE_VERSION

    def __init__(self, root: Optional[Path] = None):
        super().__init__(root if root is not None else default_cache_dir())

    def key(
        self,
        app: str,
        dataset: str,
        context: RunContext,
        fingerprint: Optional[str] = None,
    ) -> str:
        """Cache key for one (app, dataset, context, code) combination.

        The only place the key's fields are spelled out. The context is
        fingerprinted over the parameters the registered application reads
        (its :attr:`~repro.runtime.registry.AppSpec.context_fields`).

        Args:
            app / dataset / context: Task coordinates.
            fingerprint: Code-fingerprint override (testing).
        """
        material = {
            "version": CACHE_VERSION,
            "app": app,
            "dataset": dataset,
            "context": context.fingerprint(registry.get_spec(app).context_fields),
            "code": fingerprint if fingerprint is not None else code_fingerprint(),
        }
        return content_key(material)

    def load(self, key: str) -> Optional[WorkloadProfile]:
        """Read one cached profile; any malformed entry is a miss."""
        return self._read(key, lambda payload: profile_from_dict(payload["profile"]))

    def store(self, key: str, profile: WorkloadProfile) -> None:
        """Write one profile atomically (write-to-temp, then rename)."""
        self._write(key, {"profile": profile_to_dict(profile)})


def _throughput_from_entry(payload: Dict[str, Any]) -> Optional[float]:
    value = payload.get("throughput")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    return float(value)


class ThroughputStore(_EntryStore):
    """Content-addressed store for SpMU microbenchmark throughputs.

    One entry per (SpMU variant, trace vectors, trace seed, code)
    combination; the code fingerprint shares :func:`code_fingerprint`, so
    any edit to the simulator (or anything else that could change a
    measurement) orphans stale entries.
    """

    version = THROUGHPUT_CACHE_VERSION

    def __init__(self, root: Optional[Path] = None):
        super().__init__(
            root if root is not None else env_root("REPRO_THROUGHPUT_CACHE", "throughput")
        )

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
        return content_key(material)

    def load(self, key: str) -> Optional[float]:
        """Read one persisted throughput; any malformed entry is a miss."""
        return self._read(key, _throughput_from_entry)

    def store(self, key: str, throughput: float) -> None:
        """Persist one measurement atomically."""
        self._write(key, {"throughput": float(throughput)})

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


def _scan_cost_from_entry(payload: Dict[str, Any]) -> Optional[ScanCost]:
    cost = ScanCost(**payload["scan"])
    return cost if all(type(value) is int for value in dataclasses.astuple(cost)) else None


class ScanCostStore(_EntryStore):
    """Content-addressed store for one run's scan cost per scanner configuration.

    One entry per (profile key, :class:`~repro.config.ScannerConfig`): a
    scanner configuration changes only a run's three scan fields, so the
    cached profile under the same profile key plus this cost is the run
    under that scanner. The profile key carries the code fingerprint, so
    any source edit orphans stale entries here too.

    Args:
        cache_root: The profile cache root the store nests under (its
            ``scans/`` subdirectory); defaults to :func:`default_cache_dir`.
    """

    version = SCAN_COST_CACHE_VERSION

    def __init__(self, cache_root: Optional[Path] = None):
        super().__init__(Path(cache_root or default_cache_dir()) / "scans")

    def key(self, profile_key: str, config: ScannerConfig) -> str:
        """Store key for one run's scan cost under ``config``.

        The only place the key's fields are spelled out: the run's
        :meth:`ProfileCache.key` and every field of the scanner
        configuration.
        """
        material = {
            "version": SCAN_COST_CACHE_VERSION,
            "profile": profile_key,
            "scanner": dataclasses.asdict(config),
        }
        return content_key(material)

    def load(self, key: str) -> Optional[ScanCost]:
        """Read one persisted scan cost; any malformed entry is a miss."""
        return self._read(key, _scan_cost_from_entry)

    def store(self, key: str, cost: ScanCost) -> None:
        """Persist one scan cost atomically."""
        self._write(key, {"scan": dataclasses.asdict(cost)})
