"""Content-addressed, crash-safe, on-disk compile cache.

The launch LRU (:mod:`repro.gpu.launch`) memoizes compiled *closures*
per process; this cache persists the expensive front half of compilation
— parse, IR build, analysis, the whole pass pipeline — across processes.
The stored artifact is the pickled :class:`~repro.codegen.lowering.
LoweredProgram` (plus the pipeline name and autotune decisions), from
which a :class:`~repro.acc.compiler.Program` is reconstructed in well
under a millisecond.  No generated code is stored: each kernel builds
its executor code on its first launch, exactly as in a freshly compiled
Program, so a cache-served Program cannot run stale code.

Key = SHA-256 over every compilation input: source text, compiler
profile, the *resolved* pass-pipeline fingerprint, explicit option
overrides, launch geometry, array dtypes, and the device fingerprint
(every :class:`~repro.gpu.device.DeviceProperties` field — a cost-model
constant changes modeled behaviour, so it changes the key).

Entry format (one file per key, ``objects/<k[:2]>/<key>.rcc``)::

    REPROCC1 <sha256-of-payload> <payload-length>\\n
    <pickle payload bytes>

Durability contract:

* **atomic writes** — payload lands in a unique tmp file first, is
  fsynced, then :func:`os.replace`\\ d into place, so a crash mid-write
  can never leave a half-written entry under the final name, and two
  processes racing the same key both win (last replace sticks; both
  files were complete);
* **corruption detection** — every read re-verifies magic, length, and
  checksum and test-unpickles; a truncated/flipped/garbage entry is
  quarantined and reported as a miss, so the caller falls back to
  recompilation instead of crashing or, worse, silently serving a wrong
  program;
* **quarantine discipline** — a corrupt entry is removed from its
  canonical name by *renaming* it to a unique quarantine name (atomic),
  never by unlinking the canonical path: between detection and the
  rename a concurrent process may have already recompiled and
  atomically replaced the entry with a healthy one, and a blind
  ``unlink`` would delete that repair.  The renamed file is re-verified
  — if the rename actually grabbed a healthy entry (the race happened),
  it is atomically restored; entries are content-addressed, so any
  verified payload for a key is equivalent and restoring an "older"
  healthy one is correct.  Either way the corrupt bytes are never
  readable under the canonical name again.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import tempfile
import threading
from dataclasses import fields
from pathlib import Path

from repro.errors import AnalysisError, CacheCorruptionError
from repro.gpu.device import DeviceProperties, K20C
from repro.obs import timeline as _timeline

__all__ = ["CompileCache", "device_fingerprint", "PAYLOAD_VERSION"]

_MAGIC = b"REPROCC1"
#: bump when the payload schema changes — old entries then read as
#: version mismatches (a miss), never as wrong programs.
#: v3: multi-stage reduction specs, stage kernels and cascade-fusion
#: autotune records.  v2–v4 also carried generated trace source.
#: v5: no generated code (the first trace launch emits it), so a trace
#: codegen change no longer needs a bump.
PAYLOAD_VERSION = 5

#: unique-suffix counter for quarantine renames within one process
_QSEQ = itertools.count()


def device_fingerprint(device: DeviceProperties) -> str:
    """Canonical string of every *behavioural* device field (limits and
    cost model).  The cosmetic ``name`` is excluded: pool devices are
    clones named ``"K20C #0"``, ``"K20C #1"``, … and must share cache
    entries — a label cannot change what a compile produces."""
    return ";".join(f"{f.name}={getattr(device, f.name)!r}"
                    for f in fields(device) if f.name != "name")


class CompileCache:
    """Persistent compile cache rooted at a directory.

    Thread-safe: lookups/stores take a lock only around the in-memory
    index; disk I/O is naturally safe under the atomic-write scheme.
    ``max_entries`` (optional) prunes the oldest entries on store so a
    long-lived service cannot grow the directory without bound.
    """

    def __init__(self, root: str | Path, *, max_entries: int | None = None):
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self._lock = threading.Lock()
        # in-memory payload index: key -> unpickled payload dict (the
        # lowered artifact is immutable, so sharing it across Programs
        # reconstructed for different requests is safe)
        self._mem: dict[str, dict] = {}
        self.hits = 0          # served from memory or disk
        self.disk_hits = 0     # of which: read+verified from disk
        self.misses = 0
        self.stores = 0
        self.corrupt = 0       # entries quarantined by verification
        self.evictions = 0     # pruned by max_entries

    # -- keying ----------------------------------------------------------

    def key_for(self, source: str, *, compiler="openuh", pipeline=None,
                device: DeviceProperties = K20C,
                num_gangs: int | None = None, num_workers: int | None = None,
                vector_length: int | None = None,
                array_dtypes: dict | None = None,
                options: dict | None = None) -> str:
        """Content address of one compilation (SHA-256 hex digest)."""
        from repro.acc.profiles import get_profile
        from repro.passes import resolve_pipeline

        profile = get_profile(compiler)
        spec = resolve_pipeline(pipeline, profile)
        material = json.dumps({
            "v": PAYLOAD_VERSION,
            "source": source,
            "compiler": profile.name,
            "pipeline": [spec.name, list(spec.passes)],
            "options": sorted((k, repr(v))
                              for k, v in (options or {}).items()),
            "geometry": [num_gangs, num_workers, vector_length],
            "array_dtypes": sorted((array_dtypes or {}).items()),
            "device": device_fingerprint(device),
        }, sort_keys=True)
        return hashlib.sha256(material.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.rcc"

    # -- read ------------------------------------------------------------

    @staticmethod
    def _verify_blob(blob: bytes, name: str) -> dict:
        """Parse+verify one entry blob; raises on any defect."""
        nl = blob.index(b"\n")
        header = blob[:nl].split(b" ")
        if len(header) != 3 or header[0] != _MAGIC:
            raise CacheCorruptionError(f"bad header in {name}")
        digest, length = header[1].decode(), int(header[2])
        payload = blob[nl + 1:]
        if len(payload) != length:
            raise CacheCorruptionError(
                f"truncated entry {name}: "
                f"{len(payload)} of {length} bytes")
        if hashlib.sha256(payload).hexdigest() != digest:
            raise CacheCorruptionError(
                f"checksum mismatch in {name}")
        doc = pickle.loads(payload)
        if not isinstance(doc, dict) or doc.get("v") != PAYLOAD_VERSION:
            raise CacheCorruptionError(
                f"payload version mismatch in {name}")
        return doc

    # AnalysisError/KeyError: unpickling a payload that references a
    # user-defined reduction operator token not registered in this
    # process (operators pickle by token and resolve at load time)
    _VERIFY_ERRORS = (CacheCorruptionError, AnalysisError, ValueError,
                      EOFError, pickle.UnpicklingError, AttributeError,
                      ImportError, IndexError, KeyError, MemoryError)

    def _quarantine(self, path: Path) -> None:
        """Take a corrupt entry off its canonical name — atomically.

        ``os.rename`` (not ``unlink``) so that if another process
        recompiled and atomically replaced the entry *after we read the
        corrupt bytes*, we cannot delete its repair: whatever file is at
        the canonical name moves to a unique quarantine name in one
        atomic step, and is then re-verified.  Healthy (we raced a
        repair) -> restore it with another atomic replace; corrupt ->
        delete the quarantine file.  A reader never sees a half state:
        the canonical name always holds either a complete entry or
        nothing.
        """
        qpath = path.with_name(
            f".{path.name}.{os.getpid()}.{next(_QSEQ)}.qtn")
        try:
            os.rename(path, qpath)
        except OSError:
            return  # someone else already quarantined/replaced it
        try:
            doc = self._verify_blob(qpath.read_bytes(), qpath.name)
        except (OSError, *self._VERIFY_ERRORS):
            doc = None
        if doc is not None:
            # the race happened: we grabbed a valid repair — put it back
            # (content-addressed, so any verified payload is equivalent)
            try:
                os.replace(qpath, path)
            except OSError:
                pass
            return
        try:
            qpath.unlink()
        except OSError:
            pass

    def _read_verified(self, key: str) -> dict | None:
        """Read+verify one entry; quarantine and return None on any defect."""
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            return self._verify_blob(blob, path.name)
        except self._VERIFY_ERRORS:
            # detect -> quarantine -> recompile; never crash the service
            self.corrupt += 1
            self._quarantine(path)
            tl = _timeline.current()
            if tl is not None:
                tl.counter("serve", "compile_cache", event="corrupt",
                           key=key[:12])
            return None

    def get(self, key: str, device: DeviceProperties):
        """Reconstruct the cached Program for ``key``, or ``None``.

        Every call builds a *fresh* :class:`Program` (compiled-kernel
        closures carry mutable lazy state, so they must not be shared
        across device worker threads); the heavy payload unpickle is
        memoized in memory.
        """
        with self._lock:
            doc = self._mem.get(key)
        from_disk = False
        if doc is None:
            doc = self._read_verified(key)
            from_disk = doc is not None
            if from_disk:
                with self._lock:
                    self._mem[key] = doc
        if doc is None:
            self.misses += 1
            return None
        self.hits += 1
        self.disk_hits += from_disk
        tl = _timeline.current()
        if tl is not None:
            tl.counter("serve", "compile_cache",
                       event="hit", source="disk" if from_disk else "memory",
                       key=key[:12])
        return self._reconstruct(doc, device)

    @staticmethod
    def _reconstruct(doc: dict, device: DeviceProperties):
        from repro.acc.compiler import Program
        from repro.acc.profiles import get_profile

        return Program(doc["lowered"], get_profile(doc["profile"]), device,
                       pipeline=doc["pipeline"], autotune=doc["autotune"])

    # -- write -----------------------------------------------------------

    def put(self, key: str, prog) -> Path:
        """Persist one compiled program atomically; returns the entry path."""
        doc = {"v": PAYLOAD_VERSION, "lowered": prog.lowered,
               "profile": prog.profile.name, "pipeline": prog.pipeline,
               "autotune": prog.autotune}
        payload = pickle.dumps(doc, protocol=pickle.HIGHEST_PROTOCOL)
        header = b" ".join((
            _MAGIC, hashlib.sha256(payload).hexdigest().encode(),
            str(len(payload)).encode())) + b"\n"
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=f".{key[:8]}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(header)
                f.write(payload)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)  # atomic: readers see old or new, whole
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._lock:
            self._mem[key] = doc
        self.stores += 1
        tl = _timeline.current()
        if tl is not None:
            tl.counter("serve", "compile_cache", event="store",
                       key=key[:12], bytes=len(payload))
        if self.max_entries is not None:
            self._prune()
        return path

    def _prune(self) -> None:
        entries = sorted(self.objects.glob("*/*.rcc"),
                         key=lambda p: p.stat().st_mtime)
        while len(entries) > self.max_entries:
            victim = entries.pop(0)
            key = victim.stem
            try:
                victim.unlink()
            except OSError:
                continue
            with self._lock:
                self._mem.pop(key, None)
            self.evictions += 1
            tl = _timeline.current()
            if tl is not None:
                tl.counter("serve", "compile_cache", event="evict",
                           key=key[:12])

    # -- the compile facade ----------------------------------------------

    def compile(self, source: str, *, compiler="openuh", pipeline=None,
                device: DeviceProperties = K20C,
                num_gangs: int | None = None, num_workers: int | None = None,
                vector_length: int | None = None,
                array_dtypes: dict | None = None,
                **option_overrides):
        """``acc.compile`` through the cache.

        Returns ``(program, status)`` where status is ``"hit"``,
        ``"miss"`` (compiled and stored), or ``"uncacheable"`` (a custom
        in-memory profile object has no stable identity to key on).
        """
        from repro import acc

        if not isinstance(compiler, str):
            prog = acc.compile(source, compiler=compiler, pipeline=pipeline,
                               device=device, num_gangs=num_gangs,
                               num_workers=num_workers,
                               vector_length=vector_length,
                               array_dtypes=array_dtypes,
                               **option_overrides)
            return prog, "uncacheable"
        key = self.key_for(source, compiler=compiler, pipeline=pipeline,
                           device=device, num_gangs=num_gangs,
                           num_workers=num_workers,
                           vector_length=vector_length,
                           array_dtypes=array_dtypes,
                           options=option_overrides)
        prog = self.get(key, device)
        if prog is not None:
            return prog, "hit"
        prog = acc.compile(source, compiler=compiler, pipeline=pipeline,
                           device=device, num_gangs=num_gangs,
                           num_workers=num_workers,
                           vector_length=vector_length,
                           array_dtypes=array_dtypes, **option_overrides)
        self.put(key, prog)
        return prog, "miss"

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict:
        return {"hits": self.hits, "disk_hits": self.disk_hits,
                "misses": self.misses, "stores": self.stores,
                "corrupt": self.corrupt, "evictions": self.evictions,
                "entries": len(list(self.objects.glob("*/*.rcc"))),
                "root": str(self.root)}

    def clear(self) -> None:
        """Drop every entry (disk + memory) and zero the counters."""
        for p in self.objects.glob("*/*.rcc"):
            try:
                p.unlink()
            except OSError:
                pass
        with self._lock:
            self._mem.clear()
        self.hits = self.disk_hits = self.misses = 0
        self.stores = self.corrupt = self.evictions = 0

    def drop_memory(self) -> None:
        """Forget the in-memory payload index (keep disk entries) — used
        by the load generator to measure the true disk-warm path."""
        with self._lock:
            self._mem.clear()
