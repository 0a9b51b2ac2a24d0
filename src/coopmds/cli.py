"""Command-line front end: shard files across storage nodes, repair lost
shards with the two-round protocol, verify checksums and parities, print
bandwidth bounds, sweep parameters, and run cluster scenarios.

Shard file layout, format 2 (all integers little-endian):

    magic        4 bytes  b"CMDS"
    version      u8       2
    header_crc   u32      CRC-32 of the header bytes from header_len on
    header_len   u32      header length in bytes, magic included
    spec_len     u16      length of the spec that follows
    spec         var      CodeSpec.descriptor() as canonical JSON
    node         u16      1-based node index
    stripes      u32      stripe count
    orig_len     u64      byte length of the original file
    crcs         n * u32  CRC-32 of each node's payload, node 1 first
    payload      var      stripes * l symbols, stripe-major

Past magic, version and header_len, no header field is read before
header_crc checks.  Every shard of one encode carries the same crcs, so a set
mixed from two encodes is rejected before any command uses it, and a shard
restored by repair must match its entry.

Symbols are the field's ``symbol_dtype`` in little-endian order: one byte
when the field order is at most 256, two bytes otherwise.  A stripe holds
k*l data symbols taken from the file in order, zero-padded at the end; shard
i stores row coordinate i of every stripe.

Symbols keep that format from read to write.  Stripes are independent
codewords, so the file commands run over near-equal chunks of at most
CHUNK_STRIPES stripes and memory follows the chunk, not the file: inputs
and shards are read a chunk at a time, and each output is written chunk by
chunk under a hidden temp name, a shard's header last with the running CRCs.
A command renames its files into place only once every chunk and check has
passed, so a failure leaves nothing new under a final name.  Nothing is
fsynced: the rename guards against the command failing, not power loss.

Exit codes: 0 success, 2 inadmissible parameters or malformed input,
3 verification failure (checksum, parity, corrupt shard, or shards from two
encodes), 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import mmap
import os
import struct
import sys
import zlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from coopmds.cluster import ClusterConfig, inject_and_sweep, run_scenario
from coopmds.codec import decode_cells, encode_parity, parity_witness
from coopmds.codespec import CodeSpec, InadmissibleError, _check_admissible, card_A, make_code, min_field_order
from coopmds.field import Field, FieldSpec, smallest_field_spec
from coopmds.repair import (
    BandwidthLedger,
    RepairContext,
    _fraction_json,
    cutset_centralized,
    cutset_cooperative,
    repair_columns,
)

MAGIC = b"CMDS"
VERSION = 2

EXIT_OK = 0
EXIT_INADMISSIBLE = 2
EXIT_VERIFY = 3
EXIT_IO = 4

_PREFIX = struct.Struct("<4sBII")  # magic, version, header_crc, header_len
_TRAILER = struct.Struct("<HIQ")  # node, stripes, orig_len

# Most stripes a file command holds at once.  A larger file's near-equal
# chunks hold 65,537 or more, so one GF(2^16) row's 65,536 table entries
# still take a product-table path, as the whole file does.
CHUNK_STRIPES = 1 << 17


class ShardFormatError(Exception):
    """Shard bytes that cannot be trusted: bad magic, version, checksum or
    framing, or a shard that disagrees with the rest of its set."""


@dataclass(frozen=True)
class ShardHeader:
    spec: CodeSpec
    node: int
    stripes: int
    orig_len: int
    crcs: tuple[int, ...]  # every node's payload CRC-32, node 1 first

    def to_bytes(self) -> bytes:
        spec = json.dumps(self.spec.descriptor(), sort_keys=True, separators=(",", ":")).encode()
        body = b"".join(
            (
                struct.pack("<H", len(spec)),
                spec,
                _TRAILER.pack(self.node, self.stripes, self.orig_len),
                struct.pack(f"<{len(self.crcs)}I", *self.crcs),
            )
        )
        size = _PREFIX.size + len(body)
        return _PREFIX.pack(MAGIC, VERSION, zlib.crc32(struct.pack("<I", size) + body), size) + body

    @classmethod
    def parse(cls, raw: "bytes | mmap.mmap") -> tuple["ShardHeader", int]:
        """Split raw shard bytes into a header and the payload offset."""
        if raw[:4] != MAGIC:
            raise ShardFormatError("bad magic")
        if len(raw) < _PREFIX.size:
            raise ShardFormatError("truncated header")
        _, version, crc, size = _PREFIX.unpack_from(raw)
        if version != VERSION:
            raise ShardFormatError(f"unsupported shard version {version}")
        if not _PREFIX.size <= size <= len(raw):
            raise ShardFormatError("truncated header")
        if zlib.crc32(raw[_PREFIX.size - 4 : size]) != crc:
            raise ShardFormatError("header checksum mismatch")
        try:
            (spec_len,) = struct.unpack_from("<H", raw, _PREFIX.size)
            off = _PREFIX.size + 2 + spec_len
            spec = CodeSpec.from_descriptor(json.loads(raw[off - spec_len : off]))
            node, stripes, orig_len = _TRAILER.unpack_from(raw, off)
            crcs = struct.unpack_from(f"<{spec.params.n}I", raw, off + _TRAILER.size)
        except (ValueError, KeyError, TypeError, RecursionError, struct.error) as exc:
            raise ShardFormatError(f"unreadable header: {exc}") from exc
        if off + _TRAILER.size + 4 * len(crcs) != size:
            raise ShardFormatError("header length disagrees with its fields")
        return cls(spec, node, stripes, orig_len, crcs), size


def _disk_dtype(field: Field) -> np.dtype:
    """The field's symbol dtype in the shards' little-endian byte order."""
    return field.symbol_dtype.newbyteorder("<")


def _bytes_to_symbols(raw: "bytes | memoryview", field: Field) -> np.ndarray:
    """A read-only view of raw as the field's symbols."""
    if len(raw) % _disk_dtype(field).itemsize:
        raise ShardFormatError("odd payload length for two-byte symbols")
    return np.frombuffer(raw, dtype=_disk_dtype(field))


def _symbols_to_bytes(arr: np.ndarray, field: Field) -> bytes:
    return np.asarray(arr, dtype=_disk_dtype(field)).tobytes()


def _shard_name(node: int) -> str:
    return f"shard_{node:03d}.cmds"


def _field_from_order(order: int) -> FieldSpec:
    if order >= 2 and order & (order - 1) == 0:
        return FieldSpec("binary", order.bit_length() - 1)
    return FieldSpec("prime", order)


def _chunks(stripes: int) -> list[tuple[int, int]]:
    """(start, stop) of ceil(stripes / CHUNK_STRIPES) near-equal chunks, at least one."""
    count = max(1, -(-stripes // CHUNK_STRIPES))
    return [(stripes * c // count, stripes * (c + 1) // count) for c in range(count)]


@contextlib.contextmanager
def _writing(paths: Sequence[Path]) -> Iterator[list]:
    """Files opened under hidden sibling names (not matched by ``shard_*.cmds``)
    and renamed into place once the block ends cleanly; if it raises they are
    removed, so a failed write leaves nothing under any of the paths."""
    tmps = [path.with_name(f".{path.name}.tmp") for path in paths]
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(open(tmp, "wb")) for tmp in tmps]
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def _shard_writer(shard_dir: Path, nodes: Sequence[int], like: ShardHeader) -> Iterator:
    """A function appending one chunk of the nodes' columns, each (stripes,
    l), to their shards, whose headers are like's; the headers go in front
    once the last chunk is in.  Their CRC list is like's, or, when like's is
    empty (encode), the payloads' own; a payload whose CRC differs from its
    entry raises ShardFormatError before any file is renamed into place."""
    written = dict.fromkeys(nodes, 0)
    n = like.spec.params.n
    with _writing([shard_dir / _shard_name(node) for node in nodes]) as files:

        def append(columns: Sequence[np.ndarray]) -> None:
            for fh, node, column in zip(files, nodes, columns):
                payload = _symbols_to_bytes(column, like.spec.field)
                written[node] = zlib.crc32(payload, written[node])
                fh.write(payload)

        size = len(dataclasses.replace(like, crcs=(0,) * n).to_bytes())  # every node's header size
        for fh in files:
            fh.seek(size)
        yield append
        crcs = like.crcs or tuple(written[node] for node in range(1, n + 1))
        for node, crc in written.items():
            if crc != crcs[node - 1]:
                raise ShardFormatError(f"{_shard_name(node)}: restored payload disagrees with its CRC in the set")
        for fh, node in zip(files, nodes):
            fh.seek(0)
            fh.write(dataclasses.replace(like, node=node, crcs=crcs).to_bytes())


def _emit(doc: dict, out: "Path | None") -> None:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if out is not None:
        with _writing([out]) as (fh,):
            fh.write((text + "\n").encode())
    print(text)


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


# ---- encode ------------------------------------------------------------------


def cmd_encode(args: argparse.Namespace) -> int:
    with open(args.input, "rb") as src:
        orig_len = os.fstat(src.fileno()).st_size
        if not orig_len:
            raise InadmissibleError("input file is empty")
        spec = make_code(args.family, args.n, args.k, args.h, args.d, _field_from_order(args.field))
        p = spec.params
        stripe_bytes = _disk_dtype(spec.field).itemsize * p.k * p.l
        stripes = -(-orig_len // stripe_bytes)
        buf = memoryview(np.empty(min(stripes, CHUNK_STRIPES) * stripe_bytes, np.uint8))
        args.outdir.mkdir(parents=True, exist_ok=True)
        with _shard_writer(args.outdir, range(1, p.n + 1), ShardHeader(spec, 0, stripes, orig_len, ())) as append:
            for lo, hi in _chunks(stripes):
                got = src.readinto(raw := buf[: (hi - lo) * stripe_bytes])
                raw[got:] = bytes(len(raw) - got)  # the last chunk padded to whole stripes
                data = _bytes_to_symbols(raw, spec.field).reshape(hi - lo, p.l, p.k)
                parity = encode_parity(spec, data.transpose(1, 2, 0)).transpose(1, 2, 0)
                append([*data.transpose(2, 0, 1), *parity])
                del parity  # no chunk's parity outlives its write
    _emit(
        {
            "shards": [_shard_name(node) for node in range(1, p.n + 1)],
            "stripes": stripes,
            "orig_len": orig_len,
            "field": spec.field.order,
            "l": p.l,
            "spec": spec.descriptor(),
        },
        args.out,
    )
    return EXIT_OK


# ---- shard loading -----------------------------------------------------------


@dataclass(frozen=True)
class _Shard:
    """A loaded shard: its header, its mapping and a read-only (stripes, l)
    view of the mapping as symbols, or else the error that rejected it."""

    name: str
    header: "ShardHeader | None" = None
    symbols: "np.ndarray | None" = None
    error: "ShardFormatError | None" = None
    mapping: "mmap.mmap | None" = None

    def require(self) -> "_Shard":
        """This shard, or its error raised with the file name in front."""
        if self.error is not None:
            raise ShardFormatError(f"{self.name}: {self.error}")
        return self


def _load_shards(shard_dir: Path, nodes: "Sequence[int] | None" = None) -> Iterator[_Shard]:
    """Map, parse and check each shard once: every file in shard_dir, or the
    given nodes' files, one result each in file order.  Rejected with a
    ShardFormatError: a file name unlike the header node, a node outside
    1..n, a payload unlike its own entry in the CRC list or its size, a
    symbol outside the field, a stripe count unfit for the length, or a
    spec, stripe count, length or CRC list unlike the first good shard's
    (shards from two encodes).

    Each file is mapped read-only, checked a chunk at a time with its pages
    dropped from RSS after each, and viewed as symbols.  A shard truncated in
    place while mapped raises SIGBUS on access, not exit 0; this program only
    replaces shards by os.replace, which leaves a mapped file's inode intact."""
    if nodes is None:
        paths = sorted(shard_dir.glob("shard_*.cmds"))
        if not paths:
            raise FileNotFoundError(f"no shards found in {shard_dir}")
    else:
        paths = [shard_dir / _shard_name(node) for node in nodes]
    reference = None
    for path in paths:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            # an empty file cannot be mapped; it fails as bad magic below
            raw = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if size else b""
        try:
            header, off = ShardHeader.parse(raw)
            # names are unique, so this also rules out two shards claiming one node
            if path.name != _shard_name(header.node):
                raise ShardFormatError(f"claims node {header.node}")
            if not 1 <= header.node <= header.spec.params.n:
                raise ShardFormatError(f"claims node {header.node} outside the code")
            key = (header.spec, header.stripes, header.orig_len, header.crcs)
            if reference is not None and key != reference:
                raise ShardFormatError("disagrees with other shards")
            payload, crc = memoryview(raw)[off:], 0
            for lo in range(0, len(payload), 1 << 20):
                crc = zlib.crc32(payload[lo : lo + (1 << 20)], crc)
                raw.madvise(mmap.MADV_DONTNEED)  # out of this process's RSS until read again
            if crc != header.crcs[header.node - 1]:
                raise ShardFormatError("checksum mismatch")
            l, field = header.spec.params.l, header.spec.field
            symbols = _bytes_to_symbols(payload, field)
            if symbols.size != header.stripes * l:
                raise ShardFormatError(
                    f"payload holds {symbols.size} symbols, header promises {header.stripes * l}"
                )
            if header.stripes != -(-header.orig_len // (header.spec.params.k * l * symbols.itemsize)):
                raise ShardFormatError(f"{header.stripes} stripes do not hold {header.orig_len} bytes")
            for lo, hi in _chunks(header.stripes):
                try:
                    field.as_symbols(symbols[lo * l : hi * l])
                except ValueError as exc:
                    raise ShardFormatError(str(exc)) from None
                raw.madvise(mmap.MADV_DONTNEED)
        except ShardFormatError as exc:
            yield _Shard(path.name, error=exc)
            continue
        reference = key
        yield _Shard(path.name, header, symbols.reshape(header.stripes, l), mapping=raw)


def _chunked(shards: list) -> Iterator[list]:
    """The shards' symbols chunk by chunk, as one (chunk stripes, l) view of
    each mapping; a chunk's pages leave this process's RSS once the caller
    moves on to the next."""
    for lo, hi in _chunks(shards[0].header.stripes):
        yield [shard.symbols[lo:hi] for shard in shards]
        for shard in shards:
            shard.mapping.madvise(mmap.MADV_DONTNEED)


# ---- repair ------------------------------------------------------------------


def cmd_repair(args: argparse.Namespace) -> int:
    shard_dir, mode = args.sharddir, args.mode
    if not args.fail:
        _emit({"restored": [], "mode": mode, "total": 0, "links": {}, "stripes": 0}, args.out)
        return EXIT_OK
    ctx = RepairContext(tuple(args.fail), tuple(args.helpers))
    shards = [shard.require() for shard in _load_shards(shard_dir, ctx.helpers)]
    reference = shards[0].header
    spec = reference.spec
    ledger = BandwidthLedger()
    with _shard_writer(shard_dir, ctx.failed, reference) as append:
        for views in _chunked(shards):
            columns = {node: view.T for node, view in zip(ctx.helpers, views)}
            restored, transcript = repair_columns(spec, ctx, columns, mode=mode)
            append([restored.pop(node).T for node in ctx.failed])
            for msg in transcript.messages:  # the accounting, not the chunk's messages, is kept
                ledger.add(msg)
            transcript = dataclasses.replace(transcript, messages=(), ledger=ledger, stripes=reference.stripes)
    report = transcript.to_dict()
    report["restored"] = [_shard_name(node) for node in ctx.failed]
    report["per_stripe"] = _fraction_json(Fraction(transcript.ledger.total, reference.stripes))
    _emit(report, args.out)
    return EXIT_OK


# ---- decode ------------------------------------------------------------------


def cmd_decode(args: argparse.Namespace) -> int:
    """Rebuild the original file from the k lowest-numbered shards, once all
    check.  When that takes arithmetic, every other shard present must equal
    the column the decode implies."""
    shards = {s.header.node: s for s in map(_Shard.require, _load_shards(args.sharddir))}
    reference = next(iter(shards.values())).header
    spec = reference.spec
    p = spec.params
    if len(shards) < p.k:
        raise InadmissibleError(f"need {p.k} shards to decode, found {len(shards)}")
    use = sorted(shards)[: p.k]
    # shards 1..k hold the data symbols themselves: no arithmetic, no surplus
    surplus = [] if use == list(range(1, p.k + 1)) else sorted(shards)[p.k :]
    left = reference.orig_len
    buf = np.empty((min(reference.stripes, CHUNK_STRIPES), p.l, p.k), _disk_dtype(spec.field))
    with _writing([args.output]) as (fh,):
        for views in _chunked([shards[i] for i in use + surplus]):
            if surplus:
                cells = decode_cells(spec, use, np.stack(views[: p.k]).transpose(2, 0, 1))
                # every surplus shard must hold the column the decode implies
                for node, view in zip(surplus, views[p.k :]):
                    if not np.array_equal(cells[:, node - 1].T, view):
                        raise ShardFormatError(f"{shards[node].name}: disagrees with the shards decoded")
                views = [cells[:, j].T for j in range(p.k)]
                del cells  # freed once the next chunk's views replace these
            data = np.stack(views[: p.k], axis=2, out=buf[: len(views[0])])  # the file's layout
            left -= fh.write(memoryview(data).cast("B")[:left])
    _emit({"output": args.output.name, "bytes": reference.orig_len, "nodes_used": use}, args.out)
    return EXIT_OK


# ---- verify ------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    shard_reports = []
    good: dict[int, _Shard] = {}
    for shard in _load_shards(args.sharddir):
        if shard.error is None:
            shard_reports.append({"shard": shard.name, "ok": True})
            good[shard.header.node] = shard
        else:
            shard_reports.append({"shard": shard.name, "ok": False, "error": str(shard.error)})
    ok = len(good) == len(shard_reports)

    report: dict = {"shards": shard_reports}
    if good:
        spec = next(iter(good.values())).header.spec
        n = spec.params.n
        missing = sorted(set(range(1, n + 1)) - set(good))
        report["missing"] = missing
        if missing:
            ok = False
        elif ok:
            shards = [good[i] for i in range(1, n + 1)]
            # the first failing (t, row) over every chunk, each stacked into one
            # buffer (pages it never uses stay unmapped)
            buf = np.empty((n, *shards[0].symbols[:CHUNK_STRIPES].shape), shards[0].symbols.dtype)
            stacks = (np.stack(views, out=buf[:, : len(views[0])]) for views in _chunked(shards))
            witnesses = [parity_witness(spec, cells.transpose(2, 0, 1)) for cells in stacks]
            witness = min((w for w in witnesses if w is not None), default=None)
            if witness is None:
                report["parity"] = {"ok": True}
            else:
                report["parity"] = {"ok": False, "check": witness[0], "row": witness[1]}
                ok = False
    report["ok"] = ok
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_VERIFY


# ---- bound -------------------------------------------------------------------


def cmd_bound(args: argparse.Namespace) -> int:
    n, k, h, d, l = args.n, args.k, args.h, args.d, args.l
    _check_admissible(n, k, h, d)
    if l is None:
        l = card_A(h, d + 1 - k)
    coop = cutset_cooperative(h, d, k, l)
    central = cutset_centralized(h, d, k, l)
    quota = Fraction(l, h + d - k)
    print(f"parameters n={n} k={k} h={h} d={d} l={l}")
    print(f"cooperative {_fraction_json(coop)}")
    print(f"centralized {_fraction_json(central)}")
    print(f"per-link {_fraction_json(quota)}")
    return EXIT_OK


# ---- bench -------------------------------------------------------------------


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    start, stop = int(lo), int(hi or lo)
    if stop < start:
        raise ValueError(f"empty range {text!r}")
    return start, stop


def cmd_bench(args: argparse.Namespace) -> int:
    family, out = args.family, args.out
    start, stop = _parse_range(args.sweep)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        "n k h d l coop_measured coop_bound central_measured central_bound optimal".split()
    )
    for n in range(start, stop + 1):
        for k in range(1, n):
            for h in range(1, n - k):
                for d in range(k + 1, n - h + 1):
                    try:
                        fieldspec = smallest_field_spec(min_field_order(family, n, h, d + 1 - k))
                        spec = make_code(family, n, k, h, d, fieldspec)
                    except InadmissibleError:
                        continue
                    rows = inject_and_sweep(spec)
                    # (measured, bound) per mode, the same for every (F, R)
                    traffic = [
                        {(r["measured"], r["bound"]) for r in rows if r["mode"] == mode}
                        for mode in ("cooperative", "centralized")
                    ]
                    if any(len(v) != 1 for v in traffic):
                        raise RuntimeError(f"non-uniform traffic for n={n} k={k} h={h} d={d}")
                    (coop,), (central,) = traffic
                    optimal = str(all(r["optimal"] for r in rows)).lower()
                    writer.writerow([n, k, h, d, spec.params.l, *coop, *central, optimal])
    text = buf.getvalue()
    if out is not None:
        with _writing([out]) as (fh,):
            fh.write(text.encode())
    print(text, end="")
    return EXIT_OK


# ---- scenario ----------------------------------------------------------------


def cmd_scenario(args: argparse.Namespace) -> int:
    config = ClusterConfig.from_json(args.config.read_text())
    report = run_scenario(config, workers=args.workers)
    _emit(report.to_dict(), args.out)
    return EXIT_OK if report.verified else EXIT_VERIFY


# ---- argument parsing ----------------------------------------------------------


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coopmds",
        description="Shard files with MDS array codes that repair multiple "
        "nodes at optimal cooperative bandwidth.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="split a file into n shards")
    enc.add_argument("input", type=Path)
    enc.add_argument("outdir", type=Path)
    enc.add_argument("--family", choices=("fixed_subset", "any_subset"), default="fixed_subset")
    for name in ("--n", "--k", "--h", "--d"):
        enc.add_argument(name, type=int, required=True)
    enc.add_argument("--field", type=int, default=256, help="field order (default GF(256))")
    enc.add_argument("--out", type=Path, help="also write the report JSON here")
    enc.set_defaults(run=cmd_encode)

    rep = sub.add_parser("repair", help="rebuild failed shards from helper shards")
    rep.add_argument("sharddir", type=Path)
    rep.add_argument("--fail", type=_int_list, default=[], help="failed nodes, e.g. 1,2")
    rep.add_argument("--helpers", type=_int_list, default=[], help="helper nodes, e.g. 3,4,5")
    rep.add_argument("--mode", choices=("cooperative", "centralized"), default="cooperative")
    rep.add_argument("--out", type=Path)
    rep.set_defaults(run=cmd_repair)

    dec = sub.add_parser("decode", help="rebuild the original file from k shards")
    dec.add_argument("sharddir", type=Path)
    dec.add_argument("output", type=Path)
    dec.add_argument("--out", type=Path)
    dec.set_defaults(run=cmd_decode)

    ver = sub.add_parser("verify", help="check shard checksums and all parities")
    ver.add_argument("sharddir", type=Path)
    ver.add_argument("--out", type=Path)
    ver.set_defaults(run=cmd_verify)

    bnd = sub.add_parser("bound", help="print cut-set bandwidth bounds")
    for name in ("--n", "--k", "--h", "--d"):
        bnd.add_argument(name, type=int, required=True)
    bnd.add_argument("--l", type=int, help="subpacketization (default: fixed-subset value)")
    bnd.set_defaults(run=cmd_bound)

    ben = sub.add_parser("bench", help="sweep parameters and measure repair traffic")
    ben.add_argument("--sweep", required=True, help="range of n, e.g. 5:8")
    ben.add_argument("--family", choices=("fixed_subset", "any_subset"), default="fixed_subset")
    ben.add_argument("--out", type=Path)
    ben.set_defaults(run=cmd_bench)

    scn = sub.add_parser("scenario", help="run a cluster scenario file")
    scn.add_argument("config", type=Path)
    scn.add_argument("--workers", type=int, default=1)
    scn.add_argument("--out", type=Path)
    scn.set_defaults(run=cmd_scenario)
    return ap


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (InadmissibleError, ValueError, KeyError) as exc:
        _err(str(exc))
        return EXIT_INADMISSIBLE
    except ShardFormatError as exc:
        _err(str(exc))
        return EXIT_VERIFY
    except OSError as exc:
        _err(str(exc))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
