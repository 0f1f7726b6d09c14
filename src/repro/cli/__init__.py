"""Command-line runner: the LAMMPS-input-script analogue.

A JSON config fully describes a run, so simulations are reproducible
artifacts rather than ad-hoc scripts (the role LAMMPS input files play in
the paper's workflow).  The config *format* — sections, keys, units,
defaults, validation — is the dataclasses of :mod:`repro.config`; a typo
or an out-of-range value fails at load time naming the valid keys.  This
package is one module per subcommand group over those config objects
(``python -m repro.cli <subcommand> --help`` lists every flag)::

    run CONFIG | resume CKPT_DIR | profile CONFIG    MD; ``md.checkpoint_dir``
        makes a run resumable bitwise, ``output.trajectory`` dumps ``.rtrj``
        (binary, async writer) or extended XYZ; profile prints where the
        step time goes                                           (.md)
    serve CONFIG      the batched force server under a synthetic mixed-size
        request stream                                           (.serve)
    train CONFIG [--resume]    force matching on a synthetic labeled
        dataset, resumable bitwise                               (.train)
    tune --target {md,serve,parallel} [CONFIG] --out PROFILE
        deterministic measured search; ``--profile PROFILE`` on
        run/resume/serve applies the result                      (.tune)
    chaos {run,soak,replay}    composed-fault scenarios          (.chaos)
    traj {info,verify,convert,analyze} FILE    ``.rtrj`` tools   (.traj)
    example-config | example-serve-config | example-train-config
        print a starter document

``--stats-json PATH`` writes a deterministic machine-readable summary and
``--trace-json PATH`` enables the span tracer and exports its phase table.
"""

from .main import main

__all__ = ["main"]
