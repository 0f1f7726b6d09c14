"""repro.traj — binary chunked trajectory format, writer, reader, folds.

The trajectory data plane: a crash-atomic binary on-disk format
(:mod:`repro.traj.format`), one synchronous writer that dumps on the
caller's thread and a self-repairing reader (:mod:`repro.traj.store`),
and single-pass streaming analysis folds (:mod:`repro.traj.stream`).
See README §"Trajectory data plane" and DESIGN §16 for the format layout
and the determinism contract.
"""

from .format import (
    Frame,
    FileHeader,
    TrajError,
    TrajFormatError,
    frame_nbytes,
)
from .store import (
    DEFAULT_FRAMES_PER_CHUNK,
    TRAJ_TORN_CHUNK,
    FrameQuarantinedError,
    TrajectoryReader,
    TrajectoryWriter,
)
from .stream import (
    StreamingMSD,
    StreamingRDF,
    StreamingThermo,
    StreamingVACF,
    analyze_stream,
)

__all__ = [
    "Frame",
    "FileHeader",
    "TrajError",
    "TrajFormatError",
    "FrameQuarantinedError",
    "TrajectoryReader",
    "TrajectoryWriter",
    "StreamingMSD",
    "StreamingVACF",
    "StreamingRDF",
    "StreamingThermo",
    "analyze_stream",
    "frame_nbytes",
    "DEFAULT_FRAMES_PER_CHUNK",
    "TRAJ_TORN_CHUNK",
]
