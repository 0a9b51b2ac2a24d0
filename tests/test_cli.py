"""Shard round trips, exit codes, and report formats for the console tool."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coopmds.cli import (
    CHUNK_STRIPES,
    EXIT_INADMISSIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY,
    ShardFormatError,
    ShardHeader,
    _bytes_to_symbols,
    _int_list,
    _symbols_to_bytes,
    main,
)
from coopmds.cluster import ClusterConfig
from coopmds.codespec import make_code
from coopmds.field import FieldSpec
from lib_helpers import rewrite_shards, spy_completion_paths
from oracles import powered_sweep_witness


def write_input(tmp_path, size=1024, seed=1234, high=256):
    rng = np.random.default_rng(seed)
    path = tmp_path / "input.bin"
    path.write_bytes(rng.integers(0, high, size, dtype=np.uint8).tobytes())
    return path


def encode_default(tmp_path, **overrides):
    args = {"n": 5, "k": 2, "h": 2, "d": 3}
    args.update(overrides)
    src = write_input(tmp_path)
    outdir = tmp_path / "shards"
    argv = ["encode", str(src), str(outdir)]
    for key, val in args.items():
        argv += [f"--{key}", str(val)]
    return src, outdir, main(argv)


def shard_hashes(outdir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outdir.glob("*.cmds")}


# ---- encode -----------------------------------------------------------------


def test_encode_creates_expected_shards(tmp_path, capsys):
    src, outdir, code = encode_default(tmp_path)
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["stripes"] == 171  # ceil(1024 / (k*l)) with k*l = 6
    assert doc["l"] == 3 and doc["field"] == 256
    files = sorted(outdir.glob("*.cmds"))
    assert [p.name for p in files] == [f"shard_00{i}.cmds" for i in range(1, 6)]
    header, off = ShardHeader.parse(files[0].read_bytes())
    assert header.node == 1 and header.stripes == 171 and header.orig_len == 1024
    assert header.spec.params.n == 5 and header.spec.params.l == 3
    assert len(files[0].read_bytes()) - off == 171 * 3


def test_encode_empty_file(tmp_path):
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    code = main(["encode", str(src), str(tmp_path / "out"), "--n", "5", "--k", "2", "--h", "2", "--d", "3"])
    assert code == EXIT_INADMISSIBLE


def test_encode_inadmissible_parameters(tmp_path):
    _, _, code = encode_default(tmp_path, h=3)  # h + d > n
    assert code == EXIT_INADMISSIBLE


def test_encode_rejects_symbols_outside_small_field(tmp_path):
    _, _, code = encode_default(tmp_path, field=7)
    assert code == EXIT_INADMISSIBLE


def test_encode_missing_input(tmp_path):
    code = main(
        ["encode", str(tmp_path / "nope"), str(tmp_path / "out"), "--n", "5", "--k", "2", "--h", "2", "--d", "3"]
    )
    assert code == EXIT_IO


# ---- repair -----------------------------------------------------------------


def test_repair_restores_deleted_shards_byte_identical(tmp_path, capsys):
    _, outdir, _ = encode_default(tmp_path)
    before = shard_hashes(outdir)
    (outdir / "shard_001.cmds").unlink()
    (outdir / "shard_002.cmds").unlink()
    capsys.readouterr()
    code = main(["repair", str(outdir), "--fail", "1,2", "--helpers", "3,4,5"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["restored"] == ["shard_001.cmds", "shard_002.cmds"]
    assert doc["total"] == 8 * 171
    assert doc["per_stripe"] == 8
    assert doc["optimal"] is True
    assert shard_hashes(outdir) == before


def test_repair_no_failures_is_a_no_op(tmp_path, capsys):
    _, outdir, _ = encode_default(tmp_path)
    capsys.readouterr()
    code = main(["repair", str(outdir), "--helpers", "3,4,5"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["restored"] == [] and doc["total"] == 0


def test_repair_helpers_overlapping_failed(tmp_path):
    _, outdir, _ = encode_default(tmp_path)
    assert main(["repair", str(outdir), "--fail", "1,2", "--helpers", "2,3,4"]) == EXIT_INADMISSIBLE


def test_repair_with_corrupt_helper(tmp_path):
    _, outdir, _ = encode_default(tmp_path)
    path = outdir / "shard_004.cmds"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    assert main(["repair", str(outdir), "--fail", "1,2", "--helpers", "3,4,5"]) == EXIT_VERIFY


def test_repair_with_missing_helper(tmp_path):
    _, outdir, _ = encode_default(tmp_path)
    (outdir / "shard_005.cmds").unlink()
    assert main(["repair", str(outdir), "--fail", "1,2", "--helpers", "3,4,5"]) == EXIT_IO


def test_repair_centralized_mode(tmp_path, capsys):
    _, outdir, _ = encode_default(tmp_path)
    before = shard_hashes(outdir)
    (outdir / "shard_001.cmds").unlink()
    (outdir / "shard_002.cmds").unlink()
    capsys.readouterr()
    code = main(["repair", str(outdir), "--fail", "1,2", "--helpers", "3,4,5", "--mode", "centralized"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == 6 * 171 and doc["per_stripe"] == 6
    assert shard_hashes(outdir) == before


# ---- decode -----------------------------------------------------------------


def test_decode_round_trip(tmp_path):
    src, outdir, _ = encode_default(tmp_path)
    dest = tmp_path / "roundtrip.bin"
    assert main(["decode", str(outdir), str(dest)]) == EXIT_OK
    assert dest.read_bytes() == src.read_bytes()


def test_decode_without_systematic_shards(tmp_path, capsys):
    src, outdir, _ = encode_default(tmp_path)
    (outdir / "shard_001.cmds").unlink()
    (outdir / "shard_002.cmds").unlink()
    dest = tmp_path / "roundtrip.bin"
    capsys.readouterr()
    assert main(["decode", str(outdir), str(dest)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["nodes_used"] == [3, 4]
    assert dest.read_bytes() == src.read_bytes()


def two_encodes(tmp_path, size, code):
    """The shard folders a and b of encodes, with one code, of the random
    files a.bin and b.bin of one size."""
    dirs = []
    for name, seed in (("a", 21), ("b", 22)):
        src = tmp_path / f"{name}.bin"
        src.write_bytes(np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes())
        dirs.append(tmp_path / name)
        assert main(["encode", str(src), str(dirs[-1]), *code]) == EXIT_OK
    return dirs


CODE_5223 = ["--n", "5", "--k", "2", "--h", "2", "--d", "3"]


def test_decode_rejects_shards_from_two_generations(tmp_path, capsys):
    """b's shards 1-2 over a's, as an encode into a used directory leaves them
    if it dies after two shards; with shard 1 gone, decode loads b's shard 2
    first, and a's shard 3 carries another encode's CRC list."""
    dirs = two_encodes(tmp_path, 3000, CODE_5223)
    for node in (1, 2):
        name = f"shard_00{node}.cmds"
        (dirs[0] / name).write_bytes((dirs[1] / name).read_bytes())
    (dirs[0] / "shard_001.cmds").unlink()
    capsys.readouterr()
    dest = tmp_path / "x.bin"
    assert main(["decode", str(dirs[0]), str(dest)]) == EXIT_VERIFY
    assert not dest.exists()
    assert "shard_003.cmds: disagrees with other shards" in capsys.readouterr().err


def test_decode_rejects_another_encodes_shard_among_shards_1_to_k(tmp_path, capsys):
    """Shards 1..k decode with no arithmetic and no surplus shard to compare
    against, so b's shard 1 among a's shards is caught only by its CRC list."""
    a, b = two_encodes(tmp_path, 3000, CODE_5223)
    shutil.copyfile(b / "shard_001.cmds", a / "shard_001.cmds")
    capsys.readouterr()
    dest = tmp_path / "x.bin"
    assert main(["decode", str(a), str(dest)]) == EXIT_VERIFY
    assert not dest.exists()
    assert "shard_002.cmds: disagrees with other shards" in capsys.readouterr().err


def test_repair_rejects_helpers_from_two_encodes(tmp_path, capsys):
    """b's shard 3 with a's shards 4 and 5: no shard 1 or 2 is written."""
    a, b = two_encodes(tmp_path, 3000, CODE_5223)
    for node in (1, 2):
        (a / f"shard_00{node}.cmds").unlink()
    shutil.copyfile(b / "shard_003.cmds", a / "shard_003.cmds")
    capsys.readouterr()
    assert main(["repair", str(a), "--fail", "1,2", "--helpers", "3,4,5"]) == EXIT_VERIFY
    assert "shard_004.cmds: disagrees with other shards" in capsys.readouterr().err
    assert sorted(p.name for p in a.iterdir()) == ["shard_003.cmds", "shard_004.cmds", "shard_005.cmds"]


def test_repair_writes_no_shard_whose_crc_the_set_does_not_record(tmp_path, capsys):
    """A helper payload edited and signed afresh passes the loader, but the
    columns restored from it fail the CRCs encode recorded for shards 1-2."""
    _, outdir, _ = encode_default(tmp_path)
    for node in (1, 2):
        (outdir / f"shard_00{node}.cmds").unlink()

    def bump(payload):
        payload[0] ^= 1

    _rewrite_payload(outdir / "shard_003.cmds", bump)
    capsys.readouterr()
    assert main(["repair", str(outdir), "--fail", "1,2", "--helpers", "3,4,5"]) == EXIT_VERIFY
    assert "restored payload disagrees with its CRC in the set" in capsys.readouterr().err
    assert sorted(p.name for p in outdir.iterdir()) == ["shard_003.cmds", "shard_004.cmds", "shard_005.cmds"]


def test_decode_with_too_few_shards(tmp_path):
    _, outdir, _ = encode_default(tmp_path)
    for node in (1, 2, 3, 4):
        (outdir / f"shard_00{node}.cmds").unlink()
    assert main(["decode", str(outdir), str(tmp_path / "x.bin")]) == EXIT_INADMISSIBLE


def test_decode_rejects_corrupt_shard(tmp_path):
    _, outdir, _ = encode_default(tmp_path)
    path = outdir / "shard_002.cmds"
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x10
    path.write_bytes(bytes(raw))
    assert main(["decode", str(outdir), str(tmp_path / "x.bin")]) == EXIT_VERIFY


def _relabel(path, node):
    def edit(shards):
        shards[path.name][0] = dataclasses.replace(shards[path.name][0], node=node)

    rewrite_shards(path.parent, edit)


def test_decode_rejects_two_shards_claiming_one_node(tmp_path):
    _, outdir, _ = encode_default(tmp_path)
    (outdir / "shard_001.cmds").unlink()
    (outdir / "shard_002.cmds").unlink()
    _relabel(outdir / "shard_004.cmds", 3)
    dest = tmp_path / "x.bin"
    assert main(["decode", str(outdir), str(dest)]) == EXIT_VERIFY
    assert not dest.exists()


def test_decode_rejects_shard_renamed_to_another_node(tmp_path):
    _, outdir, _ = encode_default(tmp_path)
    (outdir / "shard_001.cmds").unlink()
    (outdir / "shard_004.cmds").rename(outdir / "shard_001.cmds")
    assert main(["decode", str(outdir), str(tmp_path / "x.bin")]) == EXIT_VERIFY


def test_decode_rejects_node_outside_the_code(tmp_path):
    _, outdir, _ = encode_default(tmp_path)
    (outdir / "shard_001.cmds").rename(outdir / "shard_000.cmds")
    _relabel(outdir / "shard_000.cmds", 0)
    assert main(["decode", str(outdir), str(tmp_path / "x.bin")]) == EXIT_VERIFY


def test_decode_rejects_an_orig_len_the_stripes_cannot_hold(tmp_path, capsys):
    """k=1 with only shard 1 left decodes with no arithmetic, so nothing but
    the header ties orig_len to the payload: a flip of bit 40 used to exit 0
    and write the 3,003 padded bytes while reporting 2^40 + 3,001."""
    src = tmp_path / "in.bin"
    src.write_bytes(np.random.default_rng(8).integers(0, 256, 3001, dtype=np.uint8).tobytes())
    outdir = tmp_path / "shards"
    argv = ["encode", str(src), str(outdir), "--n", "4", "--k", "1", "--h", "2", "--d", "2"]
    assert main(argv) == EXIT_OK
    for node in (2, 3, 4):
        (outdir / f"shard_00{node}.cmds").unlink()

    def flip(shards):
        header = shards["shard_001.cmds"][0]
        assert header.orig_len == 3001
        shards["shard_001.cmds"][0] = dataclasses.replace(header, orig_len=header.orig_len ^ (1 << 40))

    rewrite_shards(outdir, flip)  # signed afresh, so the stripe count is what catches it
    capsys.readouterr()
    dest = tmp_path / "x.bin"
    assert main(["decode", str(outdir), str(dest)]) == EXIT_VERIFY
    assert not dest.exists()
    assert "shard_001.cmds" in capsys.readouterr().err
    assert main(["verify", str(outdir)]) == EXIT_VERIFY


def test_a_flipped_low_orig_len_bit_fails_the_header_crc(tmp_path, capsys):
    """k=1 with only shard 1 left: bit 1 of orig_len flipped on disk gives
    3,003, which the same 1,001 stripes hold, so decode used to exit 0 and
    write the input plus two zero bytes."""
    src = tmp_path / "in.bin"
    src.write_bytes(np.random.default_rng(8).integers(0, 256, 3001, dtype=np.uint8).tobytes())
    outdir = tmp_path / "shards"
    argv = ["encode", str(src), str(outdir), "--n", "4", "--k", "1", "--h", "2", "--d", "2"]
    assert main(argv) == EXIT_OK
    for node in (2, 3, 4):
        (outdir / f"shard_00{node}.cmds").unlink()
    path = outdir / "shard_001.cmds"
    raw = bytearray(path.read_bytes())
    at = raw.index((3001).to_bytes(8, "little"), 0, ShardHeader.parse(bytes(raw))[1])
    raw[at] ^= 0b10
    path.write_bytes(raw)
    capsys.readouterr()
    dest = tmp_path / "x.bin"
    assert main(["decode", str(outdir), str(dest)]) == EXIT_VERIFY
    assert not dest.exists()
    assert "shard_001.cmds: header checksum mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["bad-crc", "short-payload", "symbol-outside-gf13"])
def test_decode_rejects_a_broken_surplus_shard(tmp_path, capsys, damage):
    """Decode reads shards 1 and 2 only, but a broken shard 5 still stops it."""
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(np.random.default_rng(6).integers(0, 13, 600, dtype=np.uint8)))
    outdir = tmp_path / "shards"
    argv = ["encode", str(src), str(outdir), "--n", "5", "--k", "2", "--h", "2", "--d", "3"]
    assert main(argv + ["--field", "13"]) == EXIT_OK
    path = outdir / "shard_005.cmds"
    if damage == "bad-crc":
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(bytes(raw))
    elif damage == "short-payload":
        _rewrite_payload(path, lambda payload: payload.pop())
    else:

        def stray(payload):
            payload[0] = 14

        _rewrite_payload(path, stray)
    capsys.readouterr()
    dest = tmp_path / "x.bin"
    assert main(["decode", str(outdir), str(dest)]) == EXIT_VERIFY
    assert not dest.exists()
    assert "shard_005.cmds" in capsys.readouterr().err


def test_a_zero_byte_shard_fails_decode_and_verify_as_bad_magic(tmp_path, capsys):
    _, outdir, _ = encode_default(tmp_path)
    (outdir / "shard_004.cmds").write_bytes(b"")
    capsys.readouterr()
    dest = tmp_path / "x.bin"
    assert main(["decode", str(outdir), str(dest)]) == EXIT_VERIFY
    assert not dest.exists()
    assert "shard_004.cmds: bad magic" in capsys.readouterr().err
    assert main(["verify", str(outdir)]) == EXIT_VERIFY
    doc = json.loads(capsys.readouterr().out)
    assert {"shard": "shard_004.cmds", "ok": False, "error": "bad magic"} in doc["shards"]
    assert doc["ok"] is False


# ---- verify -----------------------------------------------------------------


def test_verify_clean_directory(tmp_path, capsys):
    _, outdir, _ = encode_default(tmp_path)
    capsys.readouterr()
    assert main(["verify", str(outdir)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["missing"] == []
    assert doc["parity"] == {"ok": True}


def test_verify_flags_flipped_byte(tmp_path, capsys):
    _, outdir, _ = encode_default(tmp_path)
    path = outdir / "shard_003.cmds"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["verify", str(outdir)]) == EXIT_VERIFY
    doc = json.loads(capsys.readouterr().out)
    flagged = [s for s in doc["shards"] if not s["ok"]]
    assert flagged == [{"shard": "shard_003.cmds", "ok": False, "error": "checksum mismatch"}]


def test_verify_reports_missing_shard(tmp_path, capsys):
    _, outdir, _ = encode_default(tmp_path)
    (outdir / "shard_002.cmds").unlink()
    capsys.readouterr()
    assert main(["verify", str(outdir)]) == EXIT_VERIFY
    doc = json.loads(capsys.readouterr().out)
    assert doc["missing"] == [2]


def test_verify_flags_shard_relabelled_to_another_node(tmp_path, capsys):
    _, outdir, _ = encode_default(tmp_path)
    _relabel(outdir / "shard_004.cmds", 3)
    capsys.readouterr()
    assert main(["verify", str(outdir)]) == EXIT_VERIFY
    doc = json.loads(capsys.readouterr().out)
    flagged = [s for s in doc["shards"] if not s["ok"]]
    assert flagged == [{"shard": "shard_004.cmds", "ok": False, "error": "claims node 3"}]
    assert doc["missing"] == [4] and doc["ok"] is False


def test_verify_flags_node_outside_the_code(tmp_path, capsys):
    _, outdir, _ = encode_default(tmp_path)
    (outdir / "shard_005.cmds").rename(outdir / "shard_009.cmds")
    _relabel(outdir / "shard_009.cmds", 9)
    capsys.readouterr()
    assert main(["verify", str(outdir)]) == EXIT_VERIFY
    doc = json.loads(capsys.readouterr().out)
    flagged = [s for s in doc["shards"] if not s["ok"]]
    assert flagged == [
        {"shard": "shard_009.cmds", "ok": False, "error": "claims node 9 outside the code"}
    ]


def _rewrite_payload(path, edit):
    rewrite_shards(path.parent, lambda shards: edit(shards[path.name][1]))


def test_symbols_outside_a_prime_field_are_rejected(tmp_path, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(np.random.default_rng(5).integers(0, 13, 600, dtype=np.uint8)))
    outdir = tmp_path / "shards"
    argv = ["encode", str(src), str(outdir), "--n", "5", "--k", "2", "--h", "2", "--d", "3"]
    assert main(argv + ["--field", "13"]) == EXIT_OK

    def stray(payload):
        payload[payload.index(0)] = 14  # a parity 0 that 14 would alias to

    _rewrite_payload(outdir / "shard_004.cmds", stray)
    capsys.readouterr()
    assert main(["verify", str(outdir)]) == EXIT_VERIFY
    doc = json.loads(capsys.readouterr().out)
    flagged = [s for s in doc["shards"] if not s["ok"]]
    assert flagged == [{"shard": "shard_004.cmds", "ok": False, "error": "symbol 14 is outside GF(13)"}]
    (outdir / "shard_001.cmds").unlink()
    (outdir / "shard_002.cmds").unlink()
    dest = tmp_path / "x.bin"
    assert main(["decode", str(outdir), str(dest)]) == EXIT_VERIFY
    assert not dest.exists()


@pytest.mark.parametrize("field,family,n,k,h,d", [
    (256, "fixed_subset", 5, 2, 2, 3),
    (65536, "fixed_subset", 5, 2, 2, 3),
    (256, "any_subset", 4, 1, 2, 2),
])
@pytest.mark.parametrize("cancel_t0", [False, True])
def test_verify_report_names_the_oracle_witness(tmp_path, capsys, field, family, n, k, h, d, cancel_t0):
    src = write_input(tmp_path, size=4096, seed=7)
    outdir = tmp_path / "shards"
    argv = ["encode", str(src), str(outdir), "--family", family, "--field", str(field)]
    argv += ["--n", str(n), "--k", str(k), "--h", str(h), "--d", str(d)]
    assert main(argv) == EXIT_OK
    headers, columns = {}, {}
    for node in range(1, n + 1):
        raw = (outdir / f"shard_{node:03d}.cmds").read_bytes()
        headers[node], off = ShardHeader.parse(raw)
        columns[node] = _bytes_to_symbols(raw[off:], headers[node].spec.field).reshape(headers[node].stripes, -1).T
    spec = headers[1].spec
    # edit one symbol in a late stripe, or two in one row that cancel the t=0 check
    row, stripe = spec.params.l - 1, headers[1].stripes - 2
    edits = {n - 1: 5, n: spec.field.neg(5)} if cancel_t0 else {n - 1: 1}
    for node, delta in edits.items():
        columns[node] = columns[node].copy()
        columns[node][row, stripe] = spec.field.add(int(columns[node][row, stripe]), delta)

    def edit(shards):
        for node in edits:
            shards[f"shard_{node:03d}.cmds"][1] = _symbols_to_bytes(columns[node].T, spec.field)

    rewrite_shards(outdir, edit)  # every CRC holds, so verify reaches the parity sweep
    cells = np.stack([columns[node] for node in range(1, n + 1)], axis=1)
    ok, t, witness_row = powered_sweep_witness(spec, cells)
    assert not ok and (t > 0) == cancel_t0
    capsys.readouterr()
    assert main(["verify", str(outdir)]) == EXIT_VERIFY
    doc = json.loads(capsys.readouterr().out)
    assert doc["parity"] == {"ok": False, "check": t, "row": witness_row}


def test_verify_names_the_first_witness_over_every_chunk(tmp_path, capsys):
    """The first chunk fails only a t=1 check in row 0 and the second a t=0
    check in row 2: the report names (0, 2), the first in (t, row) order
    over the whole file, not the first chunk's witness."""
    n, stripes = 5, CHUNK_STRIPES + 1
    src = write_input(tmp_path, size=6 * stripes, seed=53)
    outdir = tmp_path / "shards"
    assert main(["encode", str(src), str(outdir), "--n", "5", "--k", "2", "--h", "2", "--d", "3"]) == EXIT_OK
    headers, columns = {}, {}
    for node in (n - 1, n):
        raw = (outdir / f"shard_{node:03d}.cmds").read_bytes()
        headers[node], off = ShardHeader.parse(raw)
        columns[node] = _bytes_to_symbols(raw[off:], headers[node].spec.field).reshape(stripes, -1).copy()
    field = headers[n].spec.field
    for node, delta in ((n - 1, 5), (n, field.neg(5))):  # cancels the t=0 check
        columns[node][3, 0] = field.add(int(columns[node][3, 0]), delta)
    columns[n - 1][stripes - 2, 2] = field.add(int(columns[n - 1][stripes - 2, 2]), 1)

    def edit(shards):
        for node in (n - 1, n):
            shards[f"shard_{node:03d}.cmds"][1] = _symbols_to_bytes(columns[node], field)

    rewrite_shards(outdir, edit)  # every CRC holds, so verify reaches the parity sweep
    capsys.readouterr()
    assert main(["verify", str(outdir)]) == EXIT_VERIFY
    assert json.loads(capsys.readouterr().out)["parity"] == {"ok": False, "check": 0, "row": 2}


def test_verify_empty_directory(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["verify", str(empty)]) == EXIT_IO


# ---- two-byte symbols --------------------------------------------------------


def test_wide_field_round_trip(tmp_path, capsys):
    src = tmp_path / "wide.bin"
    src.write_bytes(bytes(range(251, 256)) + bytes(range(4)))  # odd length
    outdir = tmp_path / "shards"
    code = main(
        ["encode", str(src), str(outdir), "--n", "4", "--k", "1", "--h", "2", "--d", "2", "--field", "65536"]
    )
    assert code == EXIT_OK
    before = shard_hashes(outdir)
    (outdir / "shard_001.cmds").unlink()
    (outdir / "shard_002.cmds").unlink()
    assert main(["repair", str(outdir), "--fail", "1,2", "--helpers", "3,4"]) == EXIT_OK
    assert shard_hashes(outdir) == before
    assert main(["verify", str(outdir)]) == EXIT_OK
    dest = tmp_path / "back.bin"
    assert main(["decode", str(outdir), str(dest)]) == EXIT_OK
    assert dest.read_bytes() == src.read_bytes()


def test_an_odd_byte_count_pads_one_byte_in_a_two_byte_field(tmp_path):
    # 196,609 stripes of (5,2,2,3) over GF(2^16): enough for encode's three
    # distinct rows to read their 65,536-entry product rows
    raw = np.random.default_rng(29).bytes(2 * 6 * 196_608 + 1)
    src = tmp_path / "odd.bin"
    src.write_bytes(raw)
    outdir = tmp_path / "shards"
    argv = ["encode", str(src), str(outdir), "--n", "5", "--k", "2", "--h", "2", "--d", "3"]
    assert main(argv + ["--field", "65536"]) == EXIT_OK
    data = []
    for node in (1, 2):
        header, off = ShardHeader.parse((outdir / f"shard_00{node}.cmds").read_bytes())
        assert header.stripes == 196_609 and header.orig_len == len(raw)
        data.append(_bytes_to_symbols((outdir / f"shard_00{node}.cmds").read_bytes()[off:], header.spec.field))
    blob = _symbols_to_bytes(np.stack([col.reshape(-1, 3) for col in data], axis=2), header.spec.field)
    assert blob[: len(raw)] == raw and not any(blob[len(raw) :])  # the pad byte is zero
    before = shard_hashes(outdir)
    assert main(["verify", str(outdir)]) == EXIT_OK
    for name in ("shard_001.cmds", "shard_002.cmds"):
        (outdir / name).unlink()
    dest = tmp_path / "back.bin"
    assert main(["decode", str(outdir), str(dest)]) == EXIT_OK
    assert dest.read_bytes() == raw
    assert main(["repair", str(outdir), "--fail", "1,2", "--helpers", "3,4,5"]) == EXIT_OK
    assert shard_hashes(outdir) == before


# ---- golden outputs ---------------------------------------------------------

# SHA-256 of every shard encode writes for write_input(seed=1234), and the
# repair report for the listed failure; any change to the arithmetic or the
# shard layout shows up here.  Binary fields encode 1,024 bytes; prime fields
# encode 6,144 bytes below the field's order, 1,024 stripes: more than a
# term's product rows even over GF(251), whose narrow sums wrap past 255.
GOLDEN = {
    ("fixed_subset", 5, 2, 2, 3, 256, "1,2", "3,4,5"): (
        {
            "shard_001.cmds": "e60adb9b9d5d77f42d70f4f6b3819536e510fe1cc1ff82aae3ab02d77d7d0799",
            "shard_002.cmds": "b76b3031a6c703173e737c4aca74707bb8d31e300d920dc2ab997654af8f2a88",
            "shard_003.cmds": "5a0a0b4476cdbc628d89f6c26d983d38cef1f45ff273c3cf1cc124aa0ec7bd6b",
            "shard_004.cmds": "48a64aec495715d2d07dd59f9e895ca9d61f24ea53e37c6b63a86512a3118159",
            "shard_005.cmds": "06a2bf0e2a9a2c499aa56e8ffccfd35a2c14cbe70b2fd99d8cd63f8b66b2115c",
        },
        b'{"bounds":{"centralized":6,"cooperative":8},"links":{"1->2":171,"2->1":171,'
        b'"3->1":171,"3->2":171,"4->1":171,"4->2":171,"5->1":171,"5->2":171},'
        b'"mode":"cooperative","optimal":true,"per_stripe":8,'
        b'"restored":["shard_001.cmds","shard_002.cmds"],"rounds":{"1":1026,"2":342},'
        b'"stripes":171,"total":1368}\n',
    ),
    ("fixed_subset", 5, 2, 2, 3, 65536, "1,2", "3,4,5"): (
        {
            "shard_001.cmds": "195e5b6168358a96919461a5a47eb48db45169ba9124442393577eecb465e0bf",
            "shard_002.cmds": "baca45a2236742ef4da77e45e8f0a757e435f837c84e31d67a476d0df2962654",
            "shard_003.cmds": "140f84f3bb707e2878b7282b02d6a66649938367ee3361c38fe1033505e9b4f5",
            "shard_004.cmds": "5efe220b26e31f5049401593bc1a7188fde821514833aa77dcc2758e8e8fcaff",
            "shard_005.cmds": "08eee9d5fc087d28e18bb19f5d0b39004f0740a1eae3cb69c402be496f67e8e7",
        },
        b'{"bounds":{"centralized":6,"cooperative":8},"links":{"1->2":86,"2->1":86,'
        b'"3->1":86,"3->2":86,"4->1":86,"4->2":86,"5->1":86,"5->2":86},'
        b'"mode":"cooperative","optimal":true,"per_stripe":8,'
        b'"restored":["shard_001.cmds","shard_002.cmds"],"rounds":{"1":516,"2":172},'
        b'"stripes":86,"total":688}\n',
    ),
    ("fixed_subset", 5, 2, 2, 3, 13, "1,2", "3,4,5"): (
        {
            "shard_001.cmds": "e5dc97065a2a3568c64d53b3ef74913068cf08b35768a97b8ef8ffe12944722f",
            "shard_002.cmds": "a7ba04be699007f7958609788df7fa0b7709dbfad7b8314085641d569c3082a8",
            "shard_003.cmds": "b3a94c30f9002176638200dd3d4145e8ba993750c948883a0823d78f7981b1a8",
            "shard_004.cmds": "b5c0fb2699db84b16fa344642a272fc2a274d0e888f8edd22af09456eff1a99f",
            "shard_005.cmds": "5e3f6b626a78746ce4b5d57bf6781cab80d2deeb6e245cd456f3857141b3948b",
        },
        b'{"bounds":{"centralized":6,"cooperative":8},"links":{"1->2":1024,"2->1":1024,'
        b'"3->1":1024,"3->2":1024,"4->1":1024,"4->2":1024,"5->1":1024,"5->2":1024},'
        b'"mode":"cooperative","optimal":true,"per_stripe":8,'
        b'"restored":["shard_001.cmds","shard_002.cmds"],"rounds":{"1":6144,"2":2048},'
        b'"stripes":1024,"total":8192}\n',
    ),
    ("fixed_subset", 5, 2, 2, 3, 251, "1,2", "3,4,5"): (
        {
            "shard_001.cmds": "312be3cb066150ac22a7f43a8cd06bec4551134a78ed1cff285d90c2dea4d10a",
            "shard_002.cmds": "27ca331fe62ab4a969f7c7f435a926c7c86eb92fb8a2c89ec03486138d36e5ea",
            "shard_003.cmds": "d11d5c9eef303c897e4c011ef137d4dd8a4628d07d1cea3b998c0fa58ba0473c",
            "shard_004.cmds": "0a9f8c207cbd0721988cd8efd90255d5395e6b7ae1df0091392b880943d9a72a",
            "shard_005.cmds": "c0de9b643788a67f83f435be5644af6f99ce4b3d48ee8f23ffd8c9408f4088cd",
        },
        b'{"bounds":{"centralized":6,"cooperative":8},"links":{"1->2":1024,"2->1":1024,'
        b'"3->1":1024,"3->2":1024,"4->1":1024,"4->2":1024,"5->1":1024,"5->2":1024},'
        b'"mode":"cooperative","optimal":true,"per_stripe":8,'
        b'"restored":["shard_001.cmds","shard_002.cmds"],"rounds":{"1":6144,"2":2048},'
        b'"stripes":1024,"total":8192}\n',
    ),
    ("any_subset", 4, 1, 2, 2, 256, "1,3", "2,4"): (
        {
            "shard_001.cmds": "541fb657dc75566e358374c16a949f1560c99294a3401cb6cb36847bfdc954ed",
            "shard_002.cmds": "db39dbe2fba8ef9fc7828fd27e4f3f91afb4729eb854cf55a14a14feb9ef00f4",
            "shard_003.cmds": "25476733b24dca09da99a2b8cc24bbf5200af6e0605c9ce2dde10aeae4321868",
            "shard_004.cmds": "d336e65212574bf2db8d1164b63a7f4b68d82ec034720b51cc339d3f460598e5",
        },
        b'{"bounds":{"centralized":972,"cooperative":1458},"links":{"1->3":486,'
        b'"2->1":486,"2->3":486,"3->1":486,"4->1":486,"4->3":486},'
        b'"mode":"cooperative","optimal":true,"per_stripe":1458,'
        b'"restored":["shard_001.cmds","shard_003.cmds"],"rounds":{"1":1944,"2":972},'
        b'"stripes":2,"total":2916}\n',
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: f"{c[0]}-{c[5]}")
def test_encode_and_repair_outputs_are_golden(tmp_path, case):
    family, n, k, h, d, field, fail, helpers = case
    shards, report = GOLDEN[case]
    src = write_input(tmp_path, 1024) if field >= 256 else write_input(tmp_path, 6144, high=field)
    outdir = tmp_path / "shards"
    argv = ["encode", str(src), str(outdir), "--family", family]
    argv += ["--n", str(n), "--k", str(k), "--h", str(h), "--d", str(d), "--field", str(field)]
    assert main(argv) == EXIT_OK
    assert shard_hashes(outdir) == shards
    for node in _int_list(fail):
        (outdir / f"shard_{node:03d}.cmds").unlink()
    out = tmp_path / "repair.json"
    assert main(["repair", str(outdir), "--fail", fail, "--helpers", helpers, "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == report
    assert shard_hashes(outdir) == shards


# ---- bound ------------------------------------------------------------------


def test_bound_prints_quotas(capsys):
    assert main(["bound", "--n", "5", "--k", "2", "--h", "2", "--d", "3", "--l", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "parameters n=5 k=2 h=2 d=3 l=3",
        "cooperative 8",
        "centralized 6",
        "per-link 1",
    ]


def test_bound_defaults_to_family_subpacketization(capsys):
    assert main(["bound", "--n", "5", "--k", "2", "--h", "2", "--d", "3"]) == EXIT_OK
    assert "l=3" in capsys.readouterr().out.splitlines()[0]


def test_bound_fractional_values(capsys):
    assert main(["bound", "--n", "6", "--k", "2", "--h", "2", "--d", "3", "--l", "4"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "cooperative 32/3"
    assert lines[3] == "per-link 4/3"


def test_bound_inadmissible():
    assert main(["bound", "--n", "5", "--k", "2", "--h", "3", "--d", "3"]) == EXIT_INADMISSIBLE


@pytest.mark.parametrize("k", [0, 5], ids=["k0", "kn"])
def test_bound_rejects_what_encode_rejects(k, capsys):
    # one admissibility rule: bound refuses the k that make_code refuses
    assert main(["bound", "--n", "5", "--k", str(k), "--h", "1", "--d", "2"]) == EXIT_INADMISSIBLE
    assert capsys.readouterr().err == f"error: need 1 <= k < n, got n=5 k={k}\n"


# ---- bench ------------------------------------------------------------------


def test_bench_single_n_sweep(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sweep", "5:5", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    rows = out.read_text().splitlines()
    assert rows[0] == "n,k,h,d,l,coop_measured,coop_bound,central_measured,central_bound,optimal"
    table = [row.split(",") for row in rows[1:]]
    assert all(row[-1] == "true" for row in table)
    target = [row for row in table if row[:4] == ["5", "2", "2", "3"]]
    assert target == [["5", "2", "2", "3", "3", "8", "8", "6", "6", "true"]]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--sweep", "4:6"], "555542ac5f795cda3f63c74db18bb06ad4f4fa71157eb3d09a9e09796aa4e229"),
        (
            ["--sweep", "4:4", "--family", "any_subset"],
            "c31bd8f5e29db1ac2664e9a348267c97dfa9101678a323b0e6b09bdedf0a5941",
        ),
    ],
)
def test_bench_output_is_golden(capsys, argv, digest):
    """Every sweep row's traffic, bounds and verdict, pinned byte for byte."""
    assert main(["bench", *argv]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# ---- scenario ---------------------------------------------------------------


def test_scenario_file_runs_and_reports(tmp_path, capsys):
    spec = make_code("fixed_subset", 5, 2, 2, 3, FieldSpec("prime", 7))
    cfg = ClusterConfig(
        spec,
        42,
        (
            {"type": "fail", "nodes": [1, 2]},
            {"type": "repair", "helpers": [3, 4, 5]},
            {"type": "verify"},
        ),
    )
    path = tmp_path / "scenario.json"
    path.write_text(cfg.to_json())
    assert main(["scenario", str(path)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["events"][1]["meter_total"] == 8
    assert doc["events"][2] == {"event": "verify", "ok": True}


def test_scenario_failed_verify_exits_3(tmp_path):
    spec = make_code("fixed_subset", 5, 2, 2, 3, FieldSpec("prime", 7))
    cfg = ClusterConfig(spec, 42, ({"type": "fail", "nodes": [1]}, {"type": "verify"}))
    path = tmp_path / "scenario.json"
    path.write_text(cfg.to_json())
    assert main(["scenario", str(path)]) == EXIT_VERIFY


def test_scenario_bad_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("{\"seed\": 1}")
    assert main(["scenario", str(path)]) == EXIT_INADMISSIBLE


@pytest.mark.parametrize(
    "doc",
    [
        {"seed": 1, "events": [{"type": "fail", "nodes": [True, 3]}]},
        {"seed": 1.9, "events": []},
        [],
        {"seed": 1, "events": {}},
        {"seed": 1, "events": ["verify"]},
        {"seed": 1, "events": [], "spec": {"n": "5"}},
    ],
    ids=["true node", "float seed", "list document", "object events", "string event", "string n"],
)
def test_scenario_with_a_wrongly_typed_config_exits_2(tmp_path, capsys, doc):
    if isinstance(doc, dict):
        spec = make_code("fixed_subset", 5, 2, 2, 3, FieldSpec("prime", 7)).descriptor()
        doc = {"spec": dict(spec, **doc.pop("spec", {})), **doc}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["scenario", str(path)]) == EXIT_INADMISSIBLE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


# ---- plumbing ---------------------------------------------------------------


def test_int_list_parsing():
    assert _int_list("1,2,3") == [1, 2, 3]
    assert _int_list("") == []
    with pytest.raises(ValueError):
        _int_list("1,x")


def test_header_parse_rejects_garbage(tmp_path, capsys):
    with pytest.raises(ShardFormatError, match="magic"):
        ShardHeader.parse(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ShardFormatError):
        ShardHeader.parse(b"CMDS\x01")
    spec = make_code("fixed_subset", 5, 2, 2, 3, FieldSpec("prime", 7))
    header = ShardHeader(spec, 1, 4, 24, (99, 1, 2, 3, 4))
    raw = header.to_bytes()
    parsed, off = ShardHeader.parse(raw + b"payload")
    assert parsed == header
    assert raw[off:] == b""

    def signed(body):
        size = struct.pack("<I", 13 + len(body))
        return raw[:5] + struct.pack("<I", zlib.crc32(size + body)) + size + body

    # signed headers: one whose length disagrees with its fields, and one
    # whose spec nests JSON arrays past the parser's recursion limit
    with pytest.raises(ShardFormatError, match="length disagrees"):
        ShardHeader.parse(signed(raw[13:] + b"\x00"))
    with pytest.raises(ShardFormatError, match="unreadable header"):
        ShardHeader.parse(signed(struct.pack("<H", 60000) + b"[" * 60000))
    # the header CRC leaves no single flipped bit unseen
    for bit in range(8 * len(raw)):
        flipped = bytearray(raw + b"payload")
        flipped[bit // 8] ^= 1 << bit % 8
        with pytest.raises(ShardFormatError):
            ShardHeader.parse(bytes(flipped))
    # a format-1 shard: magic, version 1, field (kind, modulus), the code in
    # binary (family, n, k, h, d, field again, no components), node,
    # stripes, orig_len and payload CRC, then its payload
    folder = tmp_path / "v1"
    folder.mkdir()
    v1 = b"CMDS\x01" + struct.pack("<BH", 0, 7) + struct.pack("<BHHHHBHH", 0, 5, 2, 2, 3, 0, 7, 0)
    (folder / "shard_001.cmds").write_bytes(v1 + struct.pack("<HIQI", 1, 4, 24, 0) + bytes(12))
    capsys.readouterr()
    assert main(["decode", str(folder), str(tmp_path / "x.bin")]) == EXIT_VERIFY
    assert capsys.readouterr().err == "error: shard_001.cmds: unsupported shard version 1\n"


# ---- atomic writes -------------------------------------------------------------


def folder_snapshot(folder):
    """Every file's name and SHA-256, or nothing for a folder not made yet."""
    if not folder.exists():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in folder.iterdir()}


@pytest.mark.parametrize("command", ["encode", "repair", "decode", "encode --out", "bench --out"])
def test_a_write_failing_halfway_leaves_nothing_under_the_final_name(tmp_path, monkeypatch, command):
    """The file commands run on two chunks of stripes, and a write fails
    after a file's first chunk; a report, one chunk, fails half written.
    Nothing new is left under a final name, no temp file either, and an
    encode into a used folder leaves every shard of the old encode as it was."""
    from coopmds import cli

    code = ["--n", "5", "--k", "2", "--h", "2", "--d", "3"]
    src = write_input(tmp_path, size=6 * (CHUNK_STRIPES + 1), seed=43)
    outdir = tmp_path / "shards"
    assert main(["encode", str(src), str(outdir), *code]) == EXIT_OK
    report = command.endswith("--out")
    if command == "encode":
        other = tmp_path / "other.bin"
        other.write_bytes(np.random.default_rng(44).bytes(6 * (CHUNK_STRIPES + 1)))
        argv, folder = ["encode", str(other), str(outdir), *code], outdir
    elif command == "repair":
        for name in ("shard_001.cmds", "shard_002.cmds"):
            (outdir / name).unlink()
        argv, folder = ["repair", str(outdir), "--fail", "1,2", "--helpers", "3,4,5"], outdir
    elif command == "decode":
        folder = tmp_path / "decoded"
        folder.mkdir()
        argv = ["decode", str(outdir), str(folder / "decoded.bin")]
    else:
        # the shards are written; only the report into its own folder fails
        folder = tmp_path / "reports"
        folder.mkdir()
        argv = command.split()[:1] + ["--out", str(folder / "report.out")]
        if command.startswith("encode"):
            argv[1:1] = [str(src), str(tmp_path / "fresh"), *code]
        else:
            argv[1:1] = ["--sweep", "4:4"]
    before = folder_snapshot(folder)
    real_open = open

    class FailingFile:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, data):
            self.writes += 1
            if self.writes > (0 if report else 1):
                self.fh.write(memoryview(data)[: len(data) // 2])
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def failing_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return FailingFile(fh) if "w" in mode and Path(path).parent == folder else fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    assert main(argv) == EXIT_IO
    assert folder_snapshot(folder) == before


# ---- narrow symbols on the file path -----------------------------------------


def test_file_ops_stay_within_a_few_copies_of_the_file(tmp_path):
    import tracemalloc

    src = write_input(tmp_path, size=1 << 20, seed=31)
    outdir = tmp_path / "shards"
    encode = ["encode", str(src), str(outdir), "--n", "5", "--k", "2", "--h", "2", "--d", "3"]

    def degraded_decode():
        for node in (1, 2):
            (outdir / f"shard_00{node}.cmds").unlink()
        return main(["decode", str(outdir), str(tmp_path / "back.bin")])

    steps = {
        "encode": lambda: main(encode),
        "verify": lambda: main(["verify", str(outdir)]),
        "degraded decode": degraded_decode,
    }
    for step, run in steps.items():
        tracemalloc.start()
        try:
            assert run() == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # int64 copies of the 1 MiB file alone would pass 8 MiB
        assert peak <= 8 << 20, f"{step} peaked at {peak / 2**20:.2f} MiB"
    assert (tmp_path / "back.bin").read_bytes() == src.read_bytes()


def test_file_shapes_and_universal_ones_take_the_gather_path(tmp_path, monkeypatch):
    from coopmds import codec, repair
    from coopmds.codespec import universal_code
    from coopmds.field import Field

    taken = spy_completion_paths(monkeypatch)
    # the file_gf256 workload: 1 MiB, (5,2,2,3) over GF(2^8), 174,763 stripes
    # in chunks of 87,381 and 87,382.  The stripes outnumber a term's 3 x 256
    # table entries, so every known coordinate is read through its own rows
    src = write_input(tmp_path, size=1 << 20, seed=37)
    outdir = tmp_path / "shards"
    argv = ["encode", str(src), str(outdir), "--n", "5", "--k", "2", "--h", "2", "--d", "3"]
    assert main(argv) == EXIT_OK
    assert taken == [("gather", 3, 3, 87_381, 1), ("gather", 3, 3, 87_382, 1)]
    taken.clear()
    assert main(["repair", str(outdir), "--fail", "1,2", "--helpers", "3,4,5"]) == EXIT_OK
    assert taken == [("gather", 1, 1, 87_381, 1)] * 2 + [("gather", 1, 1, 87_382, 1)] * 2

    # cluster_universal: universal_code(4,1), one stripe over many rows, read
    # through product tables; no multiply touches a per-system array.  Its
    # encode knows one coordinate; each round-1 solve reads its d = 2 helper
    # sums through one joint table (162 x 13^2 entries against 314,928 systems)
    sizes = []
    mul = Field.mul

    def sized_mul(self, a, b):
        sizes.append(max(np.size(a), np.size(b)))
        return mul(self, a, b)

    monkeypatch.setattr(Field, "mul", sized_mul)
    taken.clear()
    spec = universal_code(4, 1)
    data = np.random.default_rng(41).integers(0, 13, size=(spec.params.l, spec.params.k))
    cw = codec.encode_systematic(spec, data)
    ctx = repair.RepairContext((1, 3), (2, 4))
    restored, _ = repair.repair_columns(spec, ctx, {j: cw.column(j) for j in ctx.helpers})
    assert taken == [("gather", 81, 944_784, 1, 1)] + [("gather", 162, 314_928, 1, ctx.d)] * 2
    assert sizes and max(sizes) < 314_928
    assert all(np.array_equal(restored[i], cw.column(i)) for i in ctx.failed)


def test_no_chunk_of_a_wide_field_file_takes_the_multiply_path(tmp_path, monkeypatch):
    """The file_gf65536 workload: 4 MiB, (5,2,2,3) over GF(2^16), 349,526
    stripes in three chunks.  Two-byte symbols read product tables through a
    gather, and every chunk is long enough for a single row's 65,536 entries."""
    taken = spy_completion_paths(monkeypatch)
    src = write_input(tmp_path, size=4 << 20, seed=47)
    outdir = tmp_path / "shards"
    argv = ["encode", str(src), str(outdir), "--n", "5", "--k", "2", "--h", "2", "--d", "3"]
    assert main(argv + ["--field", "65536"]) == EXIT_OK
    assert taken == [("gather", 3, 3, 116_508, 1)] + [("gather", 3, 3, 116_509, 1)] * 2
    assert main(["verify", str(outdir)]) == EXIT_OK
    for name in ("shard_001.cmds", "shard_002.cmds"):
        (outdir / name).unlink()
    assert main(["decode", str(outdir), str(tmp_path / "back.bin")]) == EXIT_OK
    assert (tmp_path / "back.bin").read_bytes() == src.read_bytes()
    assert main(["repair", str(outdir), "--fail", "1,2", "--helpers", "3,4,5"]) == EXIT_OK
    # encode and verify 3 calls each, decode 3, repair 2 rounds x 3 chunks
    assert len(taken) == 15 and {path for path, *_ in taken} == {"gather"}
    # 3 x 65,536^2 joint entries would pass the stripes: one coordinate a read
    assert {stripes for *_, stripes, _ in taken} == {116_508, 116_509}
    assert {group for *_, group in taken} == {1}


# ---- chunks of stripes ---------------------------------------------------------


@pytest.mark.parametrize("field", [256, 65536])
@pytest.mark.parametrize("stripes", [1, CHUNK_STRIPES + 1, 2 * CHUNK_STRIPES + 1], ids=["one stripe", "one chunk plus one stripe", "odd length"])
def test_chunked_file_ops_match_a_whole_file_encode(tmp_path, monkeypatch, field, stripes):
    """Shards, decoded files and repair reports at chunk boundaries equal those
    of one pass over the whole file.  The odd-length file ends one byte into
    its last stripe, in the third chunk."""
    from coopmds import cli

    stripe_bytes = 6 * (1 if field == 256 else 2)
    size = stripe_bytes * (stripes - 1) + (1 if stripes > CHUNK_STRIPES + 1 else stripe_bytes)
    src = tmp_path / "in.bin"
    src.write_bytes(np.random.default_rng(stripes).bytes(size))
    code = ["--n", "5", "--k", "2", "--h", "2", "--d", "3", "--field", str(field)]
    repair = ["--fail", "1,2", "--helpers", "3,4,5", "--out"]
    outputs = {}
    for chunk in (CHUNK_STRIPES, 1 << 40):
        monkeypatch.setattr(cli, "CHUNK_STRIPES", chunk)
        work = tmp_path / str(chunk)
        shards = work / "shards"
        assert main(["encode", str(src), str(shards), *code]) == EXIT_OK
        encoded = shard_hashes(shards)
        assert main(["verify", str(shards)]) == EXIT_OK
        assert main(["decode", str(shards), str(work / "read.bin")]) == EXIT_OK
        for node in (1, 2):
            (shards / f"shard_00{node}.cmds").unlink()
        assert main(["decode", str(shards), str(work / "degraded.bin")]) == EXIT_OK
        assert main(["repair", str(shards), *repair, str(work / "repair.json")]) == EXIT_OK
        assert shard_hashes(shards) == encoded
        for name in ("read.bin", "degraded.bin"):
            assert (work / name).read_bytes() == src.read_bytes(), name
        outputs[chunk] = encoded, (work / "repair.json").read_bytes()
    assert outputs[CHUNK_STRIPES] == outputs[1 << 40]
    assert json.loads(outputs[CHUNK_STRIPES][1])["stripes"] == stripes


def test_file_ops_peak_memory_follows_the_chunk_not_the_file(tmp_path):
    """Each op's tracemalloc peak on a file of four chunks stays within 1.5x
    of its peak on a file of one."""
    import tracemalloc

    def peaks(stripes):
        work = tmp_path / str(stripes)
        work.mkdir()
        src = work / "in.bin"
        src.write_bytes(np.random.default_rng(stripes).bytes(6 * stripes))
        shards = work / "shards"
        ops = {
            "encode": ["encode", str(src), str(shards), "--n", "5", "--k", "2", "--h", "2", "--d", "3"],
            "verify": ["verify", str(shards)],
            "degraded decode": ["decode", str(shards), str(work / "back.bin")],
            "repair": ["repair", str(shards), "--fail", "1,2", "--helpers", "3,4,5"],
        }
        out = {}
        for op, argv in ops.items():
            if op == "degraded decode":
                for node in (1, 2):
                    (shards / f"shard_00{node}.cmds").unlink()
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                out[op] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (work / "back.bin").read_bytes() == src.read_bytes()
        return out

    peaks(1000)  # field tables and code set-up, once
    one, four = peaks(CHUNK_STRIPES), peaks(4 * CHUNK_STRIPES)
    for op in one:
        assert four[op] <= 1.5 * one[op], f"{op}: {four[op] / 2**20:.2f} against {one[op] / 2**20:.2f} MiB"


# ---- damaged shard sets ----------------------------------------------------------

DAMAGE_CODES = {
    "5223-gf256": CODE_5223,
    "4122-gf256": ["--n", "4", "--k", "1", "--h", "2", "--d", "2"],
    "4122-gf65536": ["--n", "4", "--k", "1", "--h", "2", "--d", "2", "--field", "65536"],
}


@pytest.fixture(scope="module")
def encoded_pairs(tmp_path_factory):
    """Per code: the file a.bin and the folders a and b of the encodes of two
    random 601-byte files."""
    pairs = {}
    for name, code in DAMAGE_CODES.items():
        root = tmp_path_factory.mktemp(name)
        a, b = two_encodes(root, 601, code)
        pairs[name] = root / "a.bin", a, b
    return pairs


def damage(shards, other, data):
    """One of: flip a bit of a shard (in its first 160 bytes, which hold the
    header, or anywhere), truncate it, rename it or copy it over another
    node's name, or put the other encode's shard of that node in its place."""
    path = shards / data.draw(st.sampled_from(sorted(p.name for p in shards.iterdir())))
    raw = bytearray(path.read_bytes())
    kinds = ["rename", "duplicate", "swap"] + (["flip", "truncate"] if raw else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "flip":
        bit = data.draw(st.integers(0, 8 * min(len(raw), 160) - 1) | st.integers(0, 8 * len(raw) - 1))
        raw[bit // 8] ^= 1 << bit % 8
        path.write_bytes(raw)
    elif kind == "truncate":
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    elif kind == "swap":
        shutil.copyfile(other / path.name, path)
    else:
        names = [p.name for p in other.iterdir() if p.name != path.name]
        target = shards / data.draw(st.sampled_from(sorted(names)))
        if kind == "rename":
            os.replace(path, target)
        else:
            shutil.copyfile(path, target)


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(code=st.sampled_from(sorted(DAMAGE_CODES)), command=st.sampled_from(["decode", "verify", "repair"]), data=st.data())
def test_a_damaged_shard_set_is_refused_or_read_exactly(encoded_pairs, code, command, data):
    """After one or two kinds of damage to a's shards, every command either
    exits 2 or 3 and leaves nothing new under a final name, or gives exact
    output: the original file, a clean verify of an untouched set, or
    restored shards equal to the encoded ones.  Repair restores nodes 1..h
    from the first d of the other shards still present."""
    original, a, b = encoded_pairs[code]
    n, _, h, d = (int(v) for v in DAMAGE_CODES[code][1:8:2])
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shards = work / "shards"
        shutil.copytree(a, shards)
        for _ in range(data.draw(st.integers(1, 2))):
            damage(shards, b, data)
        if command == "repair":
            for node in range(1, h + 1):
                (shards / f"shard_{node:03d}.cmds").unlink(missing_ok=True)
            helpers = [j for j in range(h + 1, n + 1) if (shards / f"shard_{j:03d}.cmds").exists()][:d]
            argv = ["repair", str(shards), "--fail", ",".join(map(str, range(1, h + 1)))]
            argv += ["--helpers", ",".join(map(str, helpers))]
        elif command == "decode":
            argv = ["decode", str(shards), str(work / "out.bin")]
        else:
            argv = ["verify", str(shards)]
        before = folder_snapshot(shards)
        rc = main(argv)
        if rc in (EXIT_INADMISSIBLE, EXIT_VERIFY):
            assert folder_snapshot(shards) == before
            assert sorted(os.listdir(work)) == ["shards"]
        else:
            assert rc == EXIT_OK
            if command == "decode":
                assert (work / "out.bin").read_bytes() == original.read_bytes()
            expect = folder_snapshot(a)
            if command == "repair":
                expect = {name: expect[name] for name in before} | {
                    f"shard_{node:03d}.cmds": expect[f"shard_{node:03d}.cmds"] for node in range(1, h + 1)
                }
                assert folder_snapshot(shards) == expect
            elif command == "verify":
                assert folder_snapshot(shards) == expect
