"""Cloud file formats: PLY (ascii / binary little-endian) and raw float32.

The PLY schema is fixed: one "vertex" element with float32 properties
x, y, z.  The raw format is a header-less stream of little-endian float32
triples; the point count is inferred from the file size.

write_file is the one way pccorrupt writes a file: clouds, sidecars,
manifests, reports, predictions and checkpoints all go through it.
parse_json is the one way it parses JSON it reads.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .geometry import PointCloud, TriangleMesh, parse_off


class PlyParseError(ValueError):
    pass


class RawFormatError(ValueError):
    pass


_PLY_HEADER = (
    "ply\n"
    "format {fmt} 1.0\n"
    "element vertex {n}\n"
    "property float x\n"
    "property float y\n"
    "property float z\n"
    "end_header\n"
)
_HEADER_TOKENS = {"format": 2, "element": 3, "property": 3}  # fewest tokens per line


def write_ply(cloud: PointCloud, ascii_format: bool = False) -> bytes:
    """Encode a cloud as PLY bytes; binary little-endian unless ascii_format."""
    pts = cloud.points.astype("<f4")
    fmt = "ascii" if ascii_format else "binary_little_endian"
    header = _PLY_HEADER.format(fmt=fmt, n=len(pts)).encode("ascii")
    if ascii_format:
        body = "\n".join(f"{x:.9g} {y:.9g} {z:.9g}" for x, y, z in pts) + "\n"
        return header + body.encode("ascii")
    return header + pts.tobytes()


def read_ply(data: bytes) -> PointCloud:
    """Decode PLY bytes written with the x/y/z float32 vertex schema."""
    end = data.find(b"end_header\n")
    if not data.startswith(b"ply") or end < 0:
        raise PlyParseError("not a PLY file (missing magic or end_header)")
    header = data[:end].decode("ascii", errors="replace").splitlines()
    body = data[end + len(b"end_header\n"):]

    fmt = None
    n_vertex = None
    properties = []
    for line_no, line in enumerate(header[1:], start=2):
        tokens = line.split()
        if not tokens or tokens[0] == "comment":
            continue
        if len(tokens) < _HEADER_TOKENS.get(tokens[0], 1):
            raise PlyParseError(f"header line {line_no}: incomplete {line!r}")
        if tokens[0] == "format":
            if tokens[1] not in ("ascii", "binary_little_endian"):
                raise PlyParseError(f"header line {line_no}: unsupported format {tokens[1]!r}")
            fmt = tokens[1]
        elif tokens[0] == "element":
            if tokens[1] != "vertex" or n_vertex is not None:
                raise PlyParseError(f"header line {line_no}: unsupported element {tokens[1]!r}")
            # no sign; 18 digits already exceed any body (and int()'s digit limit)
            if not (tokens[2].isdigit() and len(tokens[2]) <= 18):
                raise PlyParseError(f"header line {line_no}: bad vertex count {tokens[2]!r}")
            n_vertex = int(tokens[2])
        elif tokens[0] == "property":
            if tokens[1] not in ("float", "float32"):
                raise PlyParseError(
                    f"header line {line_no}: unsupported property type {tokens[1]!r}"
                )
            properties.append(tokens[2])
    if fmt is None or n_vertex is None:
        raise PlyParseError("header missing format or vertex element")
    if properties != ["x", "y", "z"]:
        raise PlyParseError(f"expected x,y,z float properties, got {properties}")

    if fmt == "binary_little_endian":
        need = n_vertex * 12
        if len(body) < need:
            raise PlyParseError(
                f"binary body too short: need {need} bytes, have {len(body)}"
            )
        pts = np.frombuffer(body[:need], dtype="<f4").reshape(n_vertex, 3)
    else:
        rows = body.decode("ascii", errors="replace").split()
        if len(rows) < n_vertex * 3:
            raise PlyParseError(
                f"ascii body too short: need {n_vertex * 3} values, have {len(rows)}"
            )
        try:
            values = [float(t) for t in rows[: n_vertex * 3]]
        except ValueError as exc:
            raise PlyParseError(f"bad ascii value: {exc}") from None
        # a value beyond float32 becomes inf, which PointCloud rejects
        with np.errstate(over="ignore"):
            pts = np.asarray(values, dtype=np.float32).reshape(n_vertex, 3)
    return _float32_cloud(pts)


def _float32_cloud(pts: np.ndarray) -> PointCloud:
    # casting a signalling NaN warns; PointCloud rejects it with a ValueError
    with np.errstate(invalid="ignore"):
        points = pts.astype(np.float64)
    return PointCloud(points)


def write_raw(cloud: PointCloud) -> bytes:
    """Header-less little-endian float32 triples."""
    return cloud.points.astype("<f4").tobytes()


def read_raw(data: bytes) -> PointCloud:
    if len(data) % 12 != 0:
        raise RawFormatError(
            f"raw cloud size {len(data)} is not divisible by 12 bytes"
        )
    if len(data) == 0:
        raise RawFormatError("raw cloud is empty")
    pts = np.frombuffer(data, dtype="<f4").reshape(-1, 3)
    return _float32_cloud(pts)


MESH_SUFFIXES = {".off"}
RAW_SUFFIXES = {".bin", ".raw"}
CLOUD_SUFFIXES = {".ply", *RAW_SUFFIXES}


def load_cloud(path) -> PointCloud:
    """Load a cloud file by extension (.ply, or raw .bin/.raw)."""
    path = Path(path)
    data = path.read_bytes()
    if path.suffix.lower() == ".ply":
        return read_ply(data)
    if path.suffix.lower() in RAW_SUFFIXES:
        return read_raw(data)
    raise ValueError(f"unrecognized cloud extension {path.suffix!r}")


def load_mesh(path) -> TriangleMesh:
    path = Path(path)
    if path.suffix.lower() != ".off":
        raise ValueError(f"unrecognized mesh extension {path.suffix!r}")
    return parse_off(path.read_bytes())


def save_cloud(cloud: PointCloud, path, ascii_format: bool = False) -> None:
    path = Path(path)
    if path.suffix.lower() == ".ply":
        payload = write_ply(cloud, ascii_format=ascii_format)
    elif path.suffix.lower() in RAW_SUFFIXES:
        payload = write_raw(cloud)
    else:
        raise ValueError(f"unrecognized cloud extension {path.suffix!r}")
    write_file(path, payload)


def write_file(path, data: bytes) -> None:
    """Make the file at `path` hold exactly `data`, overwriting it in place.

    An existing file is written from its first byte and then cut to
    `len(data)`; it is never truncated to zero first, which on some
    filesystems frees its blocks only for the write to allocate them
    again.  A write interrupted midway leaves a file holding part new and
    part old bytes, which a manifest digest check flags.  A directory at
    `path` raises IsADirectoryError.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def parse_json(data: str | bytes, what: str):
    """The JSON value `data` holds; bytes are decoded as UTF-8.

    Text that is not JSON, bytes that are not UTF-8 and nesting too deep
    for the parser raise ValueError naming `what`.
    """
    try:
        return json.loads(data.decode() if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from None
