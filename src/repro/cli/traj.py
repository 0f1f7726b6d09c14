"""``traj {info,verify,convert,analyze}``: binary trajectory tools."""

from __future__ import annotations

import os
from pathlib import Path

from ..md import Cell, System, read_xyz, write_xyz_frame
from ..obs import to_json, write_json
from ..traj import TrajectoryReader, TrajectoryWriter, analyze_stream
from .common import logger


def traj_command(args) -> int:
    """Dispatch ``traj {info,verify,convert,analyze}``; returns exit code.

    All reports are byte-deterministic (``obs.jsonio`` serialization, no
    wall-clock fields): running the same subcommand twice on the same file
    produces identical bytes — CI ``cmp``s them.
    """
    log = logger(args.quiet)

    def emit(payload: dict, out) -> None:
        if out is not None:
            write_json(out, payload)
            log(f"wrote report to {out}")
        else:
            log(to_json(payload))

    if args.traj_command == "info":
        with TrajectoryReader(args.file) as reader:
            h = reader.header
            emit(
                {
                    "path": Path(args.file).name,
                    "n_atoms": h.n_atoms,
                    "species_names": list(h.species_names),
                    "frames_per_chunk": h.frames_per_chunk,
                    "compressed": h.compressed,
                    "pbc": list(h.pbc),
                    "n_frames": len(reader),
                    "n_chunks": reader.n_chunks,
                    "index_source": reader.index_source,
                    "torn_tail": reader.torn_tail,
                    "file_bytes": os.path.getsize(args.file),
                },
                args.out,
            )
        return 0

    if args.traj_command == "verify":
        with TrajectoryReader(args.file) as reader:
            report = reader.verify()
        emit(report, args.out)
        damaged = report["frames_quarantined"] > 0 or report["torn_tail"]
        return 1 if damaged else 0

    if args.traj_command == "convert":
        return _traj_convert(args, log)

    # analyze
    with TrajectoryReader(args.file) as reader:
        report = analyze_stream(
            reader,
            msd_window=args.msd_window,
            vacf_window=args.msd_window,
            rdf_bins=args.rdf_bins,
            every=args.every,
        )
    emit(report, args.out)
    return 0


def rtrj_to_xyz(src, dst) -> int:
    """Write every frame of the ``.rtrj`` file ``src`` as extended XYZ to
    ``dst``; returns the frame count."""
    with TrajectoryReader(src) as reader, open(dst, "w") as fh:
        h = reader.header
        n = 0
        for frame in reader.frames():
            system = System(
                frame.positions,
                h.species,
                None
                if frame.cell_lengths is None
                else Cell(frame.cell_lengths, pbc=tuple(h.pbc)),
                species_names=list(h.species_names),
            )
            system.velocities = frame.velocities
            fields = {"step": frame.step, "time_fs": f"{frame.time_fs:.3f}"}
            if frame.pe == frame.pe:  # not NaN
                fields["pe"] = repr(frame.pe)
            write_xyz_frame(fh, system, fields)
            n += 1
    return n


def _traj_convert(args, log) -> int:
    """``traj convert SRC DST`` — direction chosen by file extension."""
    src, dst = Path(args.src), Path(args.dst)

    if src.suffix == ".rtrj" and dst.suffix == ".xyz":
        log(f"converted {rtrj_to_xyz(src, dst)} frame(s) -> {dst}")
        return 0

    if src.suffix == ".xyz" and dst.suffix == ".rtrj":
        frames = read_xyz(src)
        if not frames:
            raise ValueError(f"{src} holds no frames")
        # XYZ carries no step/time metadata per atom row; synthesize
        # frame indices (the comment line is tool-specific free text).
        with TrajectoryWriter(dst, system=frames[0]) as writer:
            for k, system in enumerate(frames):
                writer.record(k, float(k), system)
        log(f"converted {len(frames)} frame(s) -> {dst}")
        return 0

    raise ValueError(
        f"unsupported conversion {src.suffix!r} -> {dst.suffix!r} "
        "(supported: .rtrj -> .xyz, .xyz -> .rtrj)"
    )
