"""Experiment bundles: a directory holding everything one training run produced.

Layout:

    <bundle>/
        manifest.json      config, format version, train summary, sha256
                           digest of every other file, timestamp
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
of the bytes written, and a loader parses the bytes whose digest it checked
against the table its codec declares (``_MANIFEST`` here), with the config's
class, k and seed and a report's mode fixed wherever a file records them.
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
from latent_guard.serialization import (COUNT, DIGEST, INDEX, POSITIVE, RETIRED, TEXT,
                                        check_record, decode_json, one_of)
from latent_guard.trainer import STOP_EARLY, STOP_MAX_EPOCHS, TrainConfig

MANIFEST_VERSION = 1

CHECKPOINT_FILE = "checkpoint.lgar"
STATS_FILE = "latent_stats.lgar"
CALIBRATION_FILE = "calibration.json"
TRAIN_LOG_FILE = "train_log.jsonl"
MANIFEST_FILE = "manifest.json"
LOCK_FILE = ".lock"

_MANIFEST = {
    "kind": one_of("latent-guard-bundle"),
    "config": {**{f.name: INDEX for f in fields(TrainConfig)}, "l1_lambda": RETIRED},
    "train": {"best_epoch": COUNT, "stop_reason": one_of(STOP_EARLY, STOP_MAX_EPOCHS),
              "epochs_run": COUNT, "best_val_loss": POSITIVE},
    "files": {**dict.fromkeys((CHECKPOINT_FILE, STATS_FILE, CALIBRATION_FILE, TRAIN_LOG_FILE),
                              DIGEST),
              **{f"{stem}_{mode}.{ext}": DIGEST._replace(optional=True)
                 for mode in MODES for stem, ext in (("eval", "json"), ("scores", "csv"))}},
    "created_at": TEXT,
}


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
        """The parsed manifest, checked against ``_MANIFEST`` and ``TrainConfig``."""
        manifest = decode_json((self.path / MANIFEST_FILE).read_bytes(), MANIFEST_FILE)
        check_record(manifest, _MANIFEST, MANIFEST_FILE, MANIFEST_VERSION)
        try:
            TrainConfig(**{f.name: manifest["config"][f.name] for f in fields(TrainConfig)})
        except ValueError as exc:
            raise ValueError(f"{MANIFEST_FILE} {exc}") from exc
        return manifest

    def config(self) -> dict:
        return self.manifest()["config"]

    def _verified(self, name: str, manifest: dict) -> bytes:
        """The bytes of ``name``, read once and checked against the manifest digest."""
        digest = manifest["files"][name]
        data = (self.path / name).read_bytes()
        actual = _sha256(data)
        if actual != digest:
            raise ValueError(
                f"digest mismatch for {name}: manifest {digest[:12]}..., "
                f"file {actual[:12]}..."
            )
        return data

    def _load(self, name: str, parse, manifest=None, **fixed):
        """``parse`` of the verified bytes of ``name``, bound to the config's
        class, k and seed and to ``fixed``; a ValueError it raises names the file."""
        manifest = manifest or self.manifest()
        config, data = manifest["config"], self._verified(name, manifest)
        bound = {key: config[key] for key in ("inlier_class", "bottleneck_size", "seed")}
        try:
            return parse(data, k=config["bottleneck_size"], **bound, **fixed)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc

    def load_model(self) -> Autoencoder:
        return self._load(CHECKPOINT_FILE, Autoencoder.from_bytes)

    def load_stats(self) -> GaussianStats:
        return self._load(STATS_FILE, GaussianStats.from_bytes)

    def load_calibration(self) -> NoveltyCalibration:
        return self._load(CALIBRATION_FILE, NoveltyCalibration.from_json)

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
        return {mode: self._load(name, EvalReport.from_json, manifest, mode=mode)
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
            manifest["files"].update((name, _sha256(data)) for name, data in files.items())
            # a name outside the layout is refused before anything is written
            check_record(manifest["files"], _MANIFEST["files"], f"{MANIFEST_FILE} files")
            for name, data in files.items():
                _replace_file(self.path / name, data)
            _replace_file(self.path / MANIFEST_FILE, _manifest_text(manifest).encode())
