"""Extended-XYZ import/export (the lingua franca of atomistic tools).

This is the *text* format — human-readable, interoperable, and lossy only
up to its fixed decimal precision.  The MD driver never writes it: the step
loop dumps the binary data plane (:mod:`repro.traj` — chunked, checksummed,
synchronous, appended on resume) and XYZ is a conversion of a finished
``.rtrj`` (``repro traj convert``; ``repro run`` does it for an
``output.trajectory`` that is not ``.rtrj``).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, TextIO, Union

import numpy as np

from .cell import Cell
from .system import System


class XYZFormatError(ValueError):
    """A malformed or unsupported extended-XYZ file."""


def write_xyz_frame(
    fh: TextIO,
    system: System,
    comment_fields: Optional[dict] = None,
) -> None:
    """Append one extended-XYZ frame (species, positions, velocities).

    The comment line carries a full ``Properties=`` declaration plus an
    orthorhombic ``Lattice=`` so the frame round-trips losslessly (up to
    the 8-decimal text precision) through :func:`read_xyz` and external
    tools alike.
    """
    names = system.species_names or [str(i) for i in range(system.n_species)]
    fields = dict(comment_fields or {})
    if system.cell is not None:
        L = system.cell.lengths
        fields["Lattice"] = f'"{L[0]} 0 0 0 {L[1]} 0 0 0 {L[2]}"'
    fields.setdefault("Properties", "species:S:1:pos:R:3:vel:R:3")
    comment = " ".join(f"{k}={v}" for k, v in fields.items())
    fh.write(f"{system.n_atoms}\n{comment}\n")
    for sp, (x, y, z), (vx, vy, vz) in zip(
        system.species, system.positions, system.velocities
    ):
        fh.write(
            f"{names[sp]} {x:.8f} {y:.8f} {z:.8f} "
            f"{vx:.8f} {vy:.8f} {vz:.8f}\n"
        )


def _parse_lattice(comment: str) -> Optional[Cell]:
    if "Lattice=" not in comment:
        return None
    lat = comment.split('Lattice="')[1].split('"')[0].split()
    vals = [float(v) for v in lat]
    if len(vals) != 9:
        raise XYZFormatError(
            f"Lattice= needs 9 components, got {len(vals)}: {lat}"
        )
    off_diagonal = [vals[i] for i in (1, 2, 3, 5, 6, 7)]
    if any(v != 0.0 for v in off_diagonal):
        raise XYZFormatError(
            "non-orthorhombic Lattice is not supported (off-diagonal "
            f"components {off_diagonal} are non-zero); this reader handles "
            "diagonal cells only and refuses to silently drop the tilt"
        )
    return Cell((vals[0], vals[4], vals[8]))


def read_xyz(
    path: Union[str, Path], species_names: Optional[Sequence[str]] = None
) -> List[System]:
    """Read all frames of an (extended-)XYZ file written by this module.

    ``species_names`` fixes the species index mapping; when omitted, names
    are assigned indices in order of first appearance.  Trailing blank
    lines are tolerated; a file that ends mid-frame raises
    :class:`XYZFormatError` naming the offending frame.
    """
    fixed_names = species_names is not None
    name_to_idx = (
        {nm: i for i, nm in enumerate(species_names)} if fixed_names else {}
    )
    frames: List[System] = []
    with open(path) as fh:
        while True:
            header = fh.readline()
            if not header:  # clean EOF
                break
            if not header.strip():  # tolerate trailing blank lines
                continue
            try:
                n = int(header)
            except ValueError:
                raise XYZFormatError(
                    f"frame {len(frames)}: expected an atom count, got "
                    f"{header.strip()!r}"
                ) from None
            comment = fh.readline()
            if not comment:
                raise XYZFormatError(
                    f"frame {len(frames)}: EOF after the atom count "
                    "(comment line missing)"
                )
            cell = _parse_lattice(comment)
            pos = np.zeros((n, 3))
            vel = np.zeros((n, 3))
            spec = np.zeros(n, dtype=np.int64)
            has_vel = False
            for k in range(n):
                line = fh.readline()
                if not line or not line.split():
                    raise XYZFormatError(
                        f"frame {len(frames)}: EOF mid-frame (atom {k} of "
                        f"{n} missing)"
                    )
                parts = line.split()
                name = parts[0]
                if name not in name_to_idx:
                    if fixed_names:
                        raise XYZFormatError(
                            f"frame {len(frames)}: unknown species "
                            f"{name!r} (known: {sorted(name_to_idx)})"
                        )
                    name_to_idx[name] = len(name_to_idx)
                spec[k] = name_to_idx[name]
                pos[k] = [float(v) for v in parts[1:4]]
                if len(parts) >= 7:
                    vel[k] = [float(v) for v in parts[4:7]]
                    has_vel = True
            names = (
                list(species_names)
                if fixed_names
                else [nm for nm, _ in sorted(name_to_idx.items(), key=lambda kv: kv[1])]
            )
            system = System(pos, spec, cell, species_names=names)
            if has_vel:
                system.velocities = vel
            frames.append(system)
    return frames
