"""Geo-localized object mapping from captures, depth, and captions.

Each capture pairs a robot pose with a depth raster and a caption (a
list of item names seen in the image).  Every named item in an image is
placed on the camera's principal ray at the median valid depth of the
central region, and the points are clustered per name; cluster
centroids are the estimated item positions.

Conventions: camera frame has X right, Y down, Z forward (depth);
raster depths are forward Z-depth in meters, 0 marks invalid pixels.
The camera is mounted horizontal and forward-facing at a configured
height and forward offset from the robot origin, so the principal ray
at depth d meets the world at ``pose.ahead(mount_forward + d)``, at
mount height.  Robot frame is x forward, y left, z up.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import threading
import time
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import CaptionServiceConfig, MapConfig
from .fileio import json_field, read_csv, read_jsonl, write_csv, write_json, write_jsonl
from .geometry import _frozen, median
from .trajectory import CaptureEvent, Pose2, image_id_for_frame

if TYPE_CHECKING:
    from .metrics import AlignmentResult

logger = logging.getLogger(__name__)

# side fraction of the central box whose median depth places a sighting
CENTER_FRACTION = 0.2
# band of raster depths that count as valid, m
DEPTH_MIN = 0.3
DEPTH_MAX = 5.0
# single-linkage merge distance of one name's sightings, m
CLUSTER_EPS = 1.5

RASTER_MAGIC = b"DRAS"
RASTER_VERSION = 1
ITEMS_CSV_HEADER = "name,x,y,z"


@dataclass(frozen=True)
class DepthRaster:
    """Dense metric depth image with pinhole intrinsics."""

    width: int
    height: int
    depth: np.ndarray  # (height, width) meters, 0 = invalid
    focal_length: float  # pixels
    cx: float
    cy: float

    def __post_init__(self):
        depth = _frozen(self.depth)
        if depth.shape != (self.height, self.width):
            raise ValueError(
                f"depth shape {depth.shape} does not match {self.height}x{self.width}"
            )
        if self.focal_length <= 0:
            raise ValueError("focal_length must be positive")
        valid = depth[depth != 0.0]
        if len(valid) and (not np.isfinite(valid).all() or (valid < 0).any()):
            raise ValueError("valid depths must be positive and finite")
        object.__setattr__(self, "depth", depth)


@dataclass(frozen=True)
class CaptionRecord:
    image_id: str
    frame: int
    items: tuple[str, ...]


@dataclass(frozen=True)
class ItemObservation:
    name: str  # normalized
    point: np.ndarray  # (3,) world-frame meters
    image_id: str

    def __post_init__(self):
        point = _frozen(self.point)
        if point.shape != (3,) or not np.isfinite(point).all():
            raise ValueError("observation point must be a finite 3-vector")
        object.__setattr__(self, "point", point)


@dataclass(frozen=True)
class ItemCluster:
    name: str
    centroid: np.ndarray  # (3,)
    n_observations: int
    spread: float  # RMS distance of members to centroid

    def __post_init__(self):
        object.__setattr__(self, "centroid", _frozen(self.centroid))


# ---------------------------------------------------------------------------
# Observation and clustering


def center_region(raster: DepthRaster, fraction: float) -> tuple[int, int, int, int]:
    """Axis-aligned central box covering ``fraction`` of each side (>= 1 px)."""
    bw = max(1, int(round(raster.width * fraction)))
    bh = max(1, int(round(raster.height * fraction)))
    u0 = (raster.width - bw) // 2
    v0 = (raster.height - bh) // 2
    return u0, v0, u0 + bw, v0 + bh


def normalize_name(name: str) -> str:
    """Canonical item key: NFC, lowercase, punctuation out, spaces collapsed."""
    s = unicodedata.normalize("NFC", name).lower()
    s = "".join(" " if unicodedata.category(ch).startswith("P") else ch for ch in s)
    return " ".join(s.split())


def observe_items(caption: CaptionRecord, raster: DepthRaster, pose: Pose2,
                  cfg: MapConfig | None = None) -> list[ItemObservation]:
    """One world-frame observation per named item in a captioned image.

    All items in an image share one point: the median depth in
    [``DEPTH_MIN``, ``DEPTH_MAX``] of the central box
    (``CENTER_FRACTION``) along the camera axis, at the mount's height.
    Items are skipped (with a log line) when the name normalizes to
    empty or the central box holds no in-band depth.
    """
    cfg = cfg or MapConfig()
    u0, v0, u1, v1 = center_region(raster, CENTER_FRACTION)
    d = raster.depth[v0:v1, u0:u1]
    valid = d[(d != 0.0) & (d >= DEPTH_MIN) & (d <= DEPTH_MAX)]
    names = []
    for raw in caption.items:
        name = normalize_name(raw)
        if not name:
            logger.warning("%s: item %r empty after normalization, skipped",
                           caption.image_id, raw)
            continue
        names.append(name)
    if not names:
        return []
    if len(valid) == 0:
        for name in names:
            logger.warning("%s: no valid depth in center region, skipped %r",
                           caption.image_id, name)
        return []
    depth = float(median(valid))
    # the principal ray runs along the heading from the mount
    point = np.array([*pose.ahead(cfg.mount_forward + depth), cfg.mount_height])
    return [ItemObservation(name, point, caption.image_id) for name in names]


def cluster_items(observations: list[ItemObservation]) -> list[ItemCluster]:
    """Group observations by name, then single-linkage merge within
    ``CLUSTER_EPS``.

    Observations are sorted by (name, x, y, z) first, so the result does
    not depend on input order.  Clusters are returned in that same order
    of their first member.
    """
    obs = sorted(observations, key=lambda o: (o.name, o.point[0], o.point[1], o.point[2]))
    clusters: list[ItemCluster] = []
    i = 0
    while i < len(obs):
        j = i
        while j < len(obs) and obs[j].name == obs[i].name:
            j += 1
        group = obs[i:j]
        pts = np.array([o.point for o in group])
        parent = list(range(len(group)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                if np.linalg.norm(pts[a] - pts[b]) <= CLUSTER_EPS:
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
        members: dict[int, list[int]] = {}
        for a in range(len(group)):
            members.setdefault(find(a), []).append(a)
        for root in sorted(members):
            idx = members[root]
            sub = pts[idx]
            centroid = sub.mean(axis=0)
            spread = float(np.sqrt(np.mean(np.sum((sub - centroid) ** 2, axis=1))))
            clusters.append(ItemCluster(obs[i].name, centroid, len(idx), spread))
        i = j
    return clusters


@dataclass(frozen=True)
class MapEvalReport:
    per_item: dict[str, float]
    mean_error: float
    std_error: float
    n_matched: int
    unmatched_gt: tuple[str, ...]
    unmatched_est: tuple[str, ...]


def evaluate_map(clusters: list[ItemCluster], ground_truth: dict[str, np.ndarray],
                 alignment: AlignmentResult | None = None) -> MapEvalReport:
    """Positional error of estimated item positions after pose alignment.

    ``ground_truth`` maps normalized names to 3-vectors; errors are x-y
    Euclidean distances of aligned centroids.  When several clusters
    share a name, the one with the most observations represents it
    (ties by proximity).  Unmatched names on either side are listed,
    not averaged.
    """
    from .metrics import apply_alignment

    by_name: dict[str, list[ItemCluster]] = {}
    for c in clusters:
        by_name.setdefault(c.name, []).append(c)
    per_item: dict[str, float] = {}
    for name in sorted(ground_truth):
        if name not in by_name:
            continue
        gt_xy = np.asarray(ground_truth[name], dtype=float)[:2]
        dists = []
        for c in by_name[name]:
            xy = c.centroid[:2]
            if alignment is not None:
                xy = apply_alignment(xy.reshape(1, 2), alignment)[0]
            dists.append((-c.n_observations, float(np.linalg.norm(xy - gt_xy))))
        dists.sort()
        per_item[name] = dists[0][1]
    if not per_item:
        raise ValueError("no item names shared between estimate and ground truth")
    errors = np.array(list(per_item.values()))
    return MapEvalReport(
        per_item=per_item,
        mean_error=float(errors.mean()),
        std_error=float(errors.std()),
        n_matched=len(per_item),
        unmatched_gt=tuple(sorted(set(ground_truth) - set(per_item))),
        unmatched_est=tuple(sorted(set(by_name) - set(ground_truth))),
    )


# ---------------------------------------------------------------------------
# Caption acquisition


class HttpCaptioner:
    """JSON-over-HTTP captioner with bearer auth; 5xx and 429 are retried.

    ``n_retries`` counts the requests after an image's first, over
    every thread that calls ``caption``."""

    def __init__(self, cfg: CaptionServiceConfig):
        if not cfg.endpoint:
            raise ValueError("captioning endpoint is not configured")
        self.cfg = cfg
        self._token = os.environ.get(cfg.token_env, "")
        self.n_retries = 0
        self._lock = threading.Lock()

    def caption(self, image_id: str, frame: int) -> list[str] | None:
        items, retries = self._request(image_id)
        with self._lock:
            self.n_retries += retries
        return items

    def _request(self, image_id: str) -> tuple[list[str] | None, int]:
        """The image's items, or None if it is skipped, and the number of
        retries made."""
        import requests

        headers = {"Content-Type": "application/json"}
        if self._token:
            headers["Authorization"] = f"Bearer {self._token}"
        payload = {"image_ref": image_id, "prompt": self.cfg.prompt}
        last_error = "unknown error"
        for attempt in range(self.cfg.retries):
            if attempt:
                time.sleep(self.cfg.backoff_s * 2 ** (attempt - 1))
            try:
                resp = requests.post(self.cfg.endpoint, json=payload,
                                     headers=headers, timeout=self.cfg.timeout_s)
            except requests.RequestException as exc:
                last_error = f"connection error: {exc}"
                continue
            if resp.status_code >= 500 or resp.status_code == 429:
                last_error = f"status {resp.status_code}"
                continue
            if resp.status_code != 200:
                logger.warning("%s: captioning failed with status %d, skipped",
                               image_id, resp.status_code)
                return None, attempt
            try:
                items = resp.json()["items"]
                if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
                    raise TypeError("items is not a list of strings")
            except (ValueError, KeyError, TypeError) as exc:
                logger.warning("%s: malformed caption response (%s), skipped",
                               image_id, exc)
                return None, attempt
            if attempt:
                logger.info("%s: captioned after %d retries", image_id, attempt)
            return items, attempt
        logger.warning("%s: captioning failed after %d attempts (%s), skipped",
                       image_id, self.cfg.retries, last_error)
        return None, self.cfg.retries - 1


def fetch_captions(captures: list[CaptureEvent], captioner,
                   max_workers: int = 4) -> list[CaptionRecord]:
    """Caption every capture, concurrently, in image_id order.

    Per-image failures are logged by the captioner and dropped here;
    the call itself never raises for them.
    """
    from concurrent.futures import ThreadPoolExecutor

    jobs = sorted((image_id_for_frame(ev.frame), ev.frame) for ev in captures)
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        results = list(pool.map(lambda j: captioner.caption(*j), jobs))
    records = []
    for (image_id, frame), items in zip(jobs, results):
        if items is not None:
            records.append(CaptionRecord(image_id, frame, tuple(items)))
    return records


# ---------------------------------------------------------------------------
# File formats


def save_raster(raster: DepthRaster, path) -> None:
    header = struct.pack("<BIIfff", RASTER_VERSION, raster.width, raster.height,
                         raster.focal_length, raster.cx, raster.cy)
    with open(path, "wb") as fh:
        fh.write(RASTER_MAGIC)
        fh.write(header)
        fh.write(np.ascontiguousarray(raster.depth, dtype="<f4").tobytes())


def load_raster(path) -> DepthRaster:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != RASTER_MAGIC:
        raise ValueError(f"{path}: not a depth raster (bad magic)")
    header_size = 4 + struct.calcsize("<BIIfff")
    if len(raw) < header_size:
        raise ValueError(f"{path}: truncated header")
    version, width, height, focal, cx, cy = struct.unpack("<BIIfff", raw[4:header_size])
    if version != RASTER_VERSION:
        raise ValueError(f"{path}: unsupported raster version {version}")
    expected = header_size + width * height * 4
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, got {len(raw)}")
    depth = np.frombuffer(raw[header_size:], dtype="<f4").astype(float)
    return DepthRaster(width, height, depth.reshape(height, width), focal, cx, cy)


def save_captions(records: list[CaptionRecord], path) -> None:
    write_jsonl(path, {"image_id": [rec.image_id for rec in records],
                       "frame": [rec.frame for rec in records],
                       "items": [rec.items for rec in records]})


def _caption(rec) -> CaptionRecord:
    items = tuple(json_field(rec, "items", list))
    for item in items:
        if not isinstance(item, str):
            raise TypeError(f"items must hold JSON strings, got {json.dumps(item)}")
    return CaptionRecord(json_field(rec, "image_id", str), json_field(rec, "frame", int), items)


def load_captions(path) -> list[CaptionRecord]:
    return [record for _, record in read_jsonl(path, _caption)]


def save_items_csv(items: dict[str, np.ndarray], path) -> None:
    names = sorted(items)
    xyz = np.array([items[name] for name in names], dtype=float).reshape(-1, 3)
    write_csv(path, ITEMS_CSV_HEADER, [names, *xyz.T])


def load_items_csv(path) -> dict[str, np.ndarray]:
    """Ground-truth items by name; two names that ``normalize_name`` maps
    to one key are an error at the later line."""
    rows = read_csv(path, ITEMS_CSV_HEADER,
                    lambda fields: (fields[0], np.array(list(map(float, fields[1:])))))
    items, first_line = {}, {}
    for lineno, (name, xyz) in rows:
        key = normalize_name(name)
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: item {name!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        items[name] = xyz
    return items


def save_map(clusters: list[ItemCluster], path) -> None:
    x, y, z = np.array([c.centroid for c in clusters], dtype=float).reshape(-1, 3).T
    write_jsonl(path, {"name": [c.name for c in clusters], "x": x, "y": y, "z": z,
                       "n_obs": [c.n_observations for c in clusters],
                       "spread": [c.spread for c in clusters]})


def save_map_eval(report: MapEvalReport, path) -> None:
    write_json(path, {
        "per_item": report.per_item,
        "mean_error": report.mean_error,
        "std_error": report.std_error,
        "n_matched": report.n_matched,
        "unmatched_gt": list(report.unmatched_gt),
        "unmatched_est": list(report.unmatched_est),
    })
