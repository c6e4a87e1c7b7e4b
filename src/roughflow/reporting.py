"""Deterministic artifact emission: CSV, JSON, SVG plots and manifests.

Every writer pins its float formatting (17 significant digits) and key
order, so re-running an experiment with the same seed produces
byte-identical files; the manifest records SHA-256 content hashes for
exactly that comparison.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

FLOAT_FMT = ".17g"


def fmt(value) -> str:
    """Pinned scalar formatting for tabular and SVG output."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), FLOAT_FMT)
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")
    return path


def svg_line_plot(
    path: Path,
    xs: np.ndarray,
    ys: np.ndarray,
    title: str = "",
) -> Path:
    """Minimal hand-rolled SVG 1.1 line plot with pinned float formatting."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    width, height, pad = 640, 400, 40.0
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    pts = " ".join(f"{fmt(sx(x))},{fmt(sy(y))}" for x, y in zip(xs, ys))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{fmt(pad)}" y1="{fmt(height - pad)}" x2="{fmt(width - pad)}" '
        f'y2="{fmt(height - pad)}" stroke="black" stroke-width="1"/>',
        f'<line x1="{fmt(pad)}" y1="{fmt(pad)}" x2="{fmt(pad)}" '
        f'y2="{fmt(height - pad)}" stroke="black" stroke-width="1"/>',
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{pts}"/>',
    ]
    if title:
        parts.append(
            f'<text x="{fmt(width / 2)}" y="{fmt(pad / 2)}" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>'
        )
    for label, x, y, anchor in (
        (fmt(x0), pad, height - pad + 16, "middle"),
        (fmt(x1), width - pad, height - pad + 16, "middle"),
        (fmt(y0), pad - 6, height - pad, "end"),
        (fmt(y1), pad - 6, pad + 4, "end"),
    ):
        parts.append(
            f'<text x="{fmt(x)}" y="{fmt(y)}" text-anchor="{anchor}" '
            f'font-family="monospace" font-size="10">{label}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def write_manifest(outdir: Path) -> Path:
    """Hash every artifact in ``outdir`` into manifest.json (sorted)."""
    entries = []
    for p in sorted(outdir.iterdir()):
        if p.name == "manifest.json" or not p.is_file():
            continue
        entries.append(
            {"name": p.name, "sha256": sha256_file(p), "bytes": p.stat().st_size}
        )
    return write_json(outdir / "manifest.json", {"files": entries})

