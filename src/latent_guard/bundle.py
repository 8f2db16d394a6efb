"""Experiment bundles: a directory holding everything one training run produced.

Layout:

    <bundle>/
        manifest.json      config, seeds, format versions, train summary,
                           sha256 digest of every other file, timestamp
        checkpoint.lgar    best-epoch autoencoder parameters
        latent_stats.lgar  Gaussian fit of the encoded training inliers
        calibration.json   hybrid mixing weights
        train_log.jsonl    one epoch per line
        eval_<MODE>.json   written by evaluate runs
        scores_<MODE>.csv  per-sample features behind each evaluation
        .lock              empty; serializes manifest updates (flock)

Only the manifest carries a timestamp; every other file is a deterministic
function of (config, seed, data), so re-running a configuration reproduces
identical digests.  Bundles are created atomically (temp dir + rename); eval
files and the manifest are then replaced whole (temp file + rename) under
an exclusive lock.  Only this module opens bundle files: digests are taken
of the bytes written, and a loader parses the bytes whose digest it checked.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import tempfile
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path

from latent_guard.autoencoder import Autoencoder
from latent_guard.latent_stats import GaussianStats
from latent_guard.metrics import EvalReport
from latent_guard.novelty import MODES, NoveltyCalibration
from latent_guard.trainer import TrainConfig

MANIFEST_VERSION = 1

CHECKPOINT_FILE = "checkpoint.lgar"
STATS_FILE = "latent_stats.lgar"
CALIBRATION_FILE = "calibration.json"
TRAIN_LOG_FILE = "train_log.jsonl"
MANIFEST_FILE = "manifest.json"
LOCK_FILE = ".lock"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _manifest_text(manifest: dict) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def _replace_file(path: Path, data: bytes) -> None:
    """Writes a temp file beside ``path`` and renames it over ``path``, so
    readers see the old content or the new, never a torn mix."""
    tmp = path.with_name(f".tmp-{path.name}-{os.getpid()}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class ExperimentBundle:
    """Handle over a bundle directory; see the module docstring."""

    def __init__(self, path):
        self.path = Path(path)

    # -- creation -----------------------------------------------------------

    @classmethod
    def create(cls, path, model: Autoencoder, stats: GaussianStats,
               calibration: NoveltyCalibration, record, config) -> "ExperimentBundle":
        """Atomically writes a new bundle; ``path`` must not exist yet."""
        path = Path(path)
        if path.exists():
            raise FileExistsError(f"bundle path already exists: {path}")
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f".tmp-{path.name}-", dir=path.parent))
        try:
            files = {CHECKPOINT_FILE: model.to_bytes(), STATS_FILE: stats.to_bytes(),
                     CALIBRATION_FILE: (calibration.to_json() + "\n").encode(),
                     TRAIN_LOG_FILE: record.to_jsonl().encode()}
            for name, data in files.items():
                (tmp / name).write_bytes(data)
            manifest = {
                "kind": "latent-guard-bundle",
                "format_version": MANIFEST_VERSION,
                "config": asdict(config),
                "train": {
                    "best_epoch": record.best_epoch,
                    "stop_reason": record.stop_reason,
                    "epochs_run": len(record.epochs),
                    "best_val_loss": record.best_val_loss,
                },
                "files": {name: _sha256(data) for name, data in files.items()},
                "created_at": datetime.now(timezone.utc).isoformat(),
            }
            (tmp / MANIFEST_FILE).write_text(_manifest_text(manifest))
            os.replace(tmp, path)
        except BaseException:
            for p in tmp.glob("*"):
                p.unlink()
            tmp.rmdir()
            raise
        return cls(path)

    # -- reading --------------------------------------------------------------

    def manifest(self) -> dict:
        """The parsed manifest; ValueError unless it holds the ``config`` and
        ``files`` objects every reader indexes, with the ``TrainConfig``
        fields of ``config`` a valid ``TrainConfig``."""
        manifest = json.loads((self.path / MANIFEST_FILE).read_text())
        for key in ("config", "files"):
            if not isinstance(manifest, dict) or not isinstance(manifest.get(key), dict):
                raise ValueError(f"{MANIFEST_FILE} has no {key!r} object")
        try:
            TrainConfig(**{f.name: manifest["config"].get(f.name) for f in fields(TrainConfig)})
        except ValueError as exc:
            raise ValueError(f"{MANIFEST_FILE} {exc}") from exc
        return manifest

    def config(self) -> dict:
        return self.manifest()["config"]

    def _verified(self, name: str, manifest=None) -> bytes:
        """The bytes of ``name``, read once and checked against the manifest digest."""
        digest = (manifest or self.manifest())["files"].get(name)
        if digest is None:
            raise ValueError(f"{name} has no digest in the bundle manifest")
        data = (self.path / name).read_bytes()
        actual = _sha256(data)
        if actual != digest:
            raise ValueError(
                f"digest mismatch for {name}: manifest {digest[:12]}..., "
                f"file {actual[:12]}..."
            )
        return data

    def _load(self, name: str, parse, manifest=None):
        """``parse`` applied to the verified bytes of ``name``; a ValueError
        it raises (a bad container, non-finite arrays) names the file."""
        data = self._verified(name, manifest)
        try:
            return parse(data)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc

    def _load_of_k(self, name: str, parse, k_of):
        """``_load`` of a file whose bottleneck size, ``k_of`` of what
        ``parse`` returns, must be the manifest config's."""
        manifest = self.manifest()
        k = manifest["config"]["bottleneck_size"]

        def parse_of_k(data):
            parsed = parse(data)
            if k_of(parsed) != k:
                raise ValueError(f"bottleneck size {k_of(parsed)} does not match the config's {k}")
            return parsed

        return self._load(name, parse_of_k, manifest)

    def load_model(self) -> Autoencoder:
        return self._load_of_k(CHECKPOINT_FILE, Autoencoder.from_bytes,
                               lambda model: model.bottleneck_size)

    def load_stats(self) -> GaussianStats:
        return self._load_of_k(STATS_FILE, GaussianStats.from_bytes, lambda stats: stats.dim)

    def load_calibration(self) -> NoveltyCalibration:
        return self._load(CALIBRATION_FILE,
                          lambda data: NoveltyCalibration.from_json(data.decode()))

    def verify(self) -> None:
        """Checks every manifest digest against the file contents."""
        manifest = self.manifest()
        for name in manifest["files"]:
            self._verified(name, manifest)

    # -- evaluation artifacts ---------------------------------------------------

    def eval_reports(self) -> dict:
        """``{mode: EvalReport}`` of every recorded report, each digest-checked.

        A report counts as recorded when its file exists and the manifest
        holds its digest.  ``record_file`` writes the file before the
        manifest, so a crash between the two leaves a report with no
        digest; it is left out here, to be evaluated again."""
        manifest = self.manifest()
        names = {mode: f"eval_{mode}.json" for mode in MODES}
        return {mode: self._load(name, lambda data: EvalReport.from_json(data.decode()),
                                 manifest)
                for mode, name in names.items()
                if name in manifest["files"] and (self.path / name).exists()}

    def record_eval(self, reports: dict, scores_csv: bytes) -> None:
        """Records each mode's ``EvalReport`` and the scores CSV behind it."""
        files = {}
        for mode, report in reports.items():
            files[f"eval_{mode}.json"] = (report.to_json() + "\n").encode()
            files[f"scores_{mode}.csv"] = scores_csv
        self.record_file(files)

    def record_file(self, files: dict) -> None:
        """Writes ``{name: bytes}`` into the bundle and records their digests,
        replacing each file and then the manifest whole.  The read-modify-write
        holds an exclusive lock on the bundle's lock file, so concurrent
        writers cannot drop each other's digests."""
        with open(self.path / LOCK_FILE, "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            manifest = self.manifest()
            for name, data in files.items():
                _replace_file(self.path / name, data)
                manifest["files"][name] = _sha256(data)
            _replace_file(self.path / MANIFEST_FILE, _manifest_text(manifest).encode())
