"""Cloud serialization: PLY (ascii + binary) and raw float32 triples."""

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
