"""Cloud serialization: PLY (ascii + binary) and raw float32 triples, and
the one file writer every module goes through."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pccorrupt import (
    PlyParseError,
    PointCloud,
    RawFormatError,
    load_cloud,
    parse_off,
    read_ply,
    read_raw,
    save_cloud,
    write_ply,
    write_raw,
)
from pccorrupt import io_formats
from pccorrupt.io_formats import write_file


def _cloud(n=17, seed=0):
    rng = np.random.default_rng(seed)
    # float32-representable values so round trips are exact
    return PointCloud(rng.uniform(-1, 1, size=(n, 3)).astype(np.float32))


def test_ply_binary_round_trip_exact():
    cloud = _cloud()
    back = read_ply(write_ply(cloud))
    assert np.array_equal(back.points, cloud.points)


def test_ply_ascii_round_trip_exact():
    cloud = _cloud()
    back = read_ply(write_ply(cloud, ascii_format=True))
    # %.9g prints every float32 exactly
    assert np.array_equal(back.points, cloud.points)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=100), st.booleans())
def test_ply_round_trip_property(n, ascii_format):
    cloud = _cloud(n=n, seed=n)
    back = read_ply(write_ply(cloud, ascii_format=ascii_format))
    assert np.array_equal(back.points, cloud.points)


def test_ply_header_content():
    data = write_ply(_cloud(n=5))
    head = data.split(b"end_header")[0].decode()
    assert "element vertex 5" in head
    assert "binary_little_endian" in head


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: b"obj" + d[3:], "magic"),
        (lambda d: d.replace(b"binary_little_endian", b"binary_big_endian___"), "unsupported format"),
        (lambda d: d.replace(b"property float x", b"property double x"), "unsupported property"),
        (lambda d: d[:-1], "too short"),
        (lambda d: d.replace(b"element vertex", b"element face__"), "unsupported element"),
    ],
)
def test_ply_rejects_malformed(mutate, fragment):
    data = write_ply(_cloud())
    with pytest.raises(PlyParseError) as err:
        read_ply(mutate(data))
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "old,new,line,fragment",
    [
        (b"format binary_little_endian 1.0", b"format", 2, "incomplete"),
        (b"element vertex 17", b"element vertex", 3, "incomplete"),
        (b"property float x", b"property float", 4, "incomplete"),
        (b"element vertex 17", b"element", 3, "incomplete"),
        (b"element vertex 17", b"element vertex -3", 3, "bad vertex count"),
        (b"element vertex 17", b"element vertex 1e3", 3, "bad vertex count"),
    ],
)
def test_ply_header_line_defects_name_the_line(old, new, line, fragment):
    data = write_ply(_cloud()).replace(old, new)
    with pytest.raises(PlyParseError, match=f"header line {line}: {fragment}"):
        read_ply(data)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_decoders_on_arbitrary_bytes(data):
    for decode in (read_ply, read_raw, parse_off):
        try:
            decode(data)
        except ValueError:
            pass


_HEADER_LINES = [
    "format ascii 1.0", "format binary_little_endian 1.0", "element vertex 2",
    "property float x", "property float y", "property float z",
]
_HEADER_TOKENS = [
    "format", "ascii", "binary_little_endian", "binary_big_endian", "1.0", "element",
    "vertex", "face", "property", "float", "float32", "double", "list", "uchar", "x",
    "y", "z", "0", "2", "-3", "1e3", "9" * 30, "comment", "end_header",
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(_HEADER_LINES),
            st.lists(st.sampled_from(_HEADER_TOKENS), max_size=4).map(" ".join),
        ),
        max_size=8,
    ),
    st.one_of(st.binary(max_size=48), st.sampled_from([b"0 1 2 3 4 5\n", b"1 nan 2\n"])),
)
def test_ply_token_headers_give_cloud_or_value_error(lines, body):
    data = ("\n".join(["ply", *lines, "end_header"]) + "\n").encode() + body
    try:
        cloud = read_ply(data)
    except ValueError:
        return
    assert cloud.points.shape[1] == 3


def test_ply_ascii_rejects_bad_token():
    data = write_ply(_cloud(n=2), ascii_format=True)
    bad = data.rsplit(b"\n", 2)[0] + b"\n0.0 zzz 0.0\n"
    with pytest.raises(PlyParseError):
        read_ply(bad)


def test_raw_round_trip_and_errors():
    cloud = _cloud(n=9)
    back = read_raw(write_raw(cloud))
    assert np.array_equal(back.points, cloud.points)
    with pytest.raises(RawFormatError):
        read_raw(b"\x00" * 13)
    with pytest.raises(RawFormatError):
        read_raw(b"")


def test_non_finite_values_fail_typed_with_warnings_as_errors():
    """A signalling NaN, or an ascii value beyond float32, reaches PointCloud's
    ValueError instead of stopping at a cast warning."""
    import warnings

    snan = b"\x01\x00\x80\x7f" * 3
    binary_header = write_ply(_cloud(n=1)).split(b"end_header\n")[0]
    ascii_header = write_ply(_cloud(n=1), ascii_format=True).split(b"end_header\n")[0]
    cases = [
        (read_raw, snan),
        (read_ply, binary_header + b"end_header\n" + snan),
        (read_ply, ascii_header + b"end_header\n1e39 0 0\n"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for decode, data in cases:
            with pytest.raises(ValueError, match="finite"):
                decode(data)


def test_save_load_dispatch(tmp_path):
    cloud = _cloud(n=11)
    for name in ("c.ply", "c.bin", "c.raw"):
        path = tmp_path / name
        save_cloud(cloud, path)
        assert np.array_equal(load_cloud(path).points, cloud.points)
    (tmp_path / "c.xyz").write_text("0 0 0\n1 1 1\n0.5 0.5 0.5\n")  # ASCII, not raw
    with pytest.raises(ValueError, match="unrecognized cloud extension"):
        load_cloud(tmp_path / "c.xyz")
    with pytest.raises(ValueError, match="unrecognized cloud extension"):
        save_cloud(cloud, tmp_path / "c.xyz")
    with pytest.raises(ValueError):
        save_cloud(cloud, tmp_path / "c.obj")
    (tmp_path / "c.obj").write_text("o mesh\n")  # suffix decides, not content
    with pytest.raises(ValueError):
        load_cloud(tmp_path / "c.obj")


def test_save_cloud_ascii_flag(tmp_path):
    cloud = _cloud(n=3)
    path = tmp_path / "c.ply"
    save_cloud(cloud, path, ascii_format=True)
    assert b"format ascii" in path.read_bytes()
    assert np.array_equal(load_cloud(path).points, cloud.points)


@pytest.mark.parametrize("old", [None, b"", b"ab", b"x" * 4096],
                         ids=["missing", "empty", "shorter", "longer"])
def test_write_file_leaves_exactly_the_new_bytes(tmp_path, old):
    path = tmp_path / "f.bin"
    if old is not None:
        path.write_bytes(old)
    write_file(path, b"0123456789")
    assert path.read_bytes() == b"0123456789"
    write_file(path, b"")
    assert path.read_bytes() == b""


@pytest.mark.parametrize("name,ascii_format",
                         [("c.ply", False), ("c.ply", True), ("c.bin", False)])
def test_save_cloud_over_a_longer_file_matches_a_fresh_write(tmp_path, name, ascii_format):
    cloud = _cloud(n=5)
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    fresh.mkdir()
    reused.mkdir()
    save_cloud(cloud, fresh / name, ascii_format=ascii_format)
    (reused / name).write_bytes((fresh / name).read_bytes() + b"\0stale tail" * 100)
    save_cloud(cloud, reused / name, ascii_format=ascii_format)
    assert (reused / name).read_bytes() == (fresh / name).read_bytes()


def test_write_file_on_a_directory_raises_os_error(tmp_path):
    with pytest.raises(IsADirectoryError):
        write_file(tmp_path, b"x")


_WRITE_MODE_CHARS = set("wax+")


def _file_writes(tree: ast.AST) -> list[int]:
    """Line numbers of calls that write a file: write_bytes/write_text, os.open,
    and open/io.open/Path.open given a mode with w, a, x or +.  The mode is
    `mode=`, the second positional argument of open/io.open, or the first of
    <expr>.open; a path is never read as a mode."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_bytes", "write_text"):
            lines.append(node.lineno)
        elif name == "open":
            owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
            if owner == "os":
                lines.append(node.lineno)  # flags, not a mode string
                continue
            at = 1 if isinstance(func, ast.Name) or owner == "io" else 0
            modes = [*node.args[at:at + 1], *(k.value for k in node.keywords if k.arg == "mode")]
            if any(isinstance(m, ast.Constant) and isinstance(m.value, str)
                   and _WRITE_MODE_CHARS & set(m.value) for m in modes):
                lines.append(node.lineno)
    return lines


def test_write_scan_finds_every_write_form():
    source = """
p.write_bytes(b"")
Path(q).write_text("x")
open(path, "w", newline="")
open(path, mode="ab")
io.open(path, "r+b")
p.open("x")
os.open(path, flags)
open(path, "r", newline="")
open(path)
p.read_bytes()
open("/proc/self/maps")
io.open("/var/data", newline="")
"""
    assert _file_writes(ast.parse(source)) == [2, 3, 4, 5, 6, 7, 8]


def test_only_io_formats_writes_files():
    package = Path(io_formats.__file__).parent
    offenders = {
        path.name: lines
        for path in sorted(package.rglob("*.py"))
        if path.name != "io_formats.py"
        and (lines := _file_writes(ast.parse(path.read_text(), str(path))))
    }
    assert offenders == {}, "write files through io_formats.write_file"


_LAYOUT_KEYS = {"clean", "corrupted"}


def _layout_subscripts(tree: ast.AST) -> list[int]:
    """Line numbers of subscripts by the constant "clean" or "corrupted"."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and node.slice.value in _LAYOUT_KEYS]


def test_layout_scan_finds_subscripts():
    source = """
sample["clean"]["path"]
s["corrupted"].items()
x = {"clean": 1}
report.clean
row["cleaned"]
"""
    assert _layout_subscripts(ast.parse(source)) == [2, 3]


def test_only_pipeline_reads_the_manifest_layout():
    package = Path(io_formats.__file__).parent
    offenders = {
        path.name: lines
        for path in sorted(package.rglob("*.py"))
        if path.name != "pipeline.py"
        and (lines := _layout_subscripts(ast.parse(path.read_text(), str(path))))
    }
    assert offenders == {}, "walk a manifest through DatasetManifest.cells()"


def _json_parses(tree: ast.AST) -> list[int]:
    """Line numbers of calls to json.loads or json.load."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("loads", "load")
            and getattr(node.func.value, "id", None) == "json"]


def test_json_parse_scan_finds_calls():
    source = """
json.loads(text)
x = json.load(fh)
json.dumps(value)
pickle.loads(blob)
parse_json(data, "what")
"""
    assert _json_parses(ast.parse(source)) == [2, 3]


def test_only_io_formats_parses_json():
    package = Path(io_formats.__file__).parent
    offenders = {
        path.name: lines
        for path in sorted(package.rglob("*.py"))
        if path.name != "io_formats.py"
        and (lines := _json_parses(ast.parse(path.read_text(), str(path))))
    }
    assert offenders == {}, "parse JSON through io_formats.parse_json"


@pytest.mark.parametrize("data", [
    b"[" * 100_000 + b"]" * 100_000, "{not json", b"\xff{}", "9" * 5000,
])
def test_parse_json_failures_are_value_errors_naming_the_input(data):
    with pytest.raises(ValueError, match="^the input is not valid JSON: "):
        io_formats.parse_json(data, "the input")
