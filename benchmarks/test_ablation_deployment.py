"""Ablation — deployment-mode inference (the pair_allegro analogue).

The paper deploys Allegro by compiling it with TorchScript and calling it
from the LAMMPS plugin: weights are frozen, the tensor-product path
weights are pre-fused (§V-B2), and no training graph is built.  The
equivalent here is :meth:`Potential.inference_mode`: parameters stop
requiring gradients (forces still flow through positions) and fused
tensors are cached.

Measured: identical energies/forces, and the force-call time with the
smaller tape + cached fusion.  Since PR 19 an eager force call
differentiates with respect to positions only, inside this context or
outside it, so the two modes run at the same speed (it was 1.5x); what
the context still buys is the pre-fused tensor product, which a capture
needs.
"""

import numpy as np
import pytest

from conftest import fmt_table, small_allegro_config
from repro import autodiff as ad
from repro.autodiff import kernels as K
from repro.data import water_unit_cell
from repro.models import AllegroModel
from repro.obs import time_callable


def test_deployment_mode_speedup(reporter, benchmark):
    model = AllegroModel(small_allegro_config(seed=5))
    system = water_unit_cell(n_grid=3)
    nl = model.prepare_neighbors(system)

    e0, f0 = model.energy_and_forces(system, nl)
    # The two modes now run at nearly the same speed, so they are measured
    # interleaved: both sample the same machine state.
    t_train = t_deploy = float("inf")
    for _ in range(9):
        t, _ = time_callable(lambda: model.energy_and_forces(system, nl), repeat=1)
        t_train = min(t_train, t)
        with model.inference_mode():
            t, (e1, f1) = time_callable(
                lambda: model.energy_and_forces(system, nl), repeat=1
            )
        t_deploy = min(t_deploy, t)

    text = fmt_table(
        ["mode", "force call (ms)", "energy (eV)"],
        [
            ("training graph", f"{t_train * 1e3:.1f}", f"{e0:.6f}"),
            ("deployment (frozen)", f"{t_deploy * 1e3:.1f}", f"{e1:.6f}"),
        ],
        title=(
            "Ablation — deployment-mode inference "
            f"(81-atom water, {nl.n_edges} pairs): {t_train / t_deploy:.2f}x"
        ),
    )
    reporter("ablation_deployment", text)

    # Exactness: deployment changes nothing numerically.
    assert e1 == pytest.approx(e0, abs=1e-12)
    assert np.allclose(f1, f0, atol=1e-12)
    # Speed: frozen tape + pre-fused paths must not be slower (best-of-9,
    # 10% noise band for shared-CPU scheduling).
    assert t_deploy < t_train * 1.1

    with model.inference_mode():
        benchmark(lambda: model.energy_and_forces(system, nl))


def test_compiled_engine_speedup(reporter, monkeypatch):
    """Capture-once/replay-many vs eager: the TorchScript-deployment analogue.

    ``model.compile()`` freezes parameters, pre-fuses tensor-product path
    weights, captures the energy+force graph once and replays it into a
    padded buffer arena.  The contract is strict: bitwise-identical
    energies/forces in float64, and ≥1.5× the eager force-call throughput
    once the arena is warm.

    The 1.5× floor guards the replay, so it is held against the eager call
    it was calibrated on and not against whatever the eager call becomes:
    ``atomic_energies(...).sum().backward()`` with tracked weights, the
    Clebsch-Gordan tensor gradient on ``c_einsum`` and the weight gradients
    on the blocked ``matmul`` — ``energy_and_forces`` until PR 19, rebuilt
    here by a test-side patch.  PR 19 made the eager call itself cheaper
    twice over (those two contractions on BLAS, then no weight gradient at
    all in a force call); both are reported next to the reference, and the
    replay must still beat the cheapest of them.
    """
    model = AllegroModel(small_allegro_config(seed=5))
    system = water_unit_cell(n_grid=3)
    nl = model.prepare_neighbors(system)

    e0, f0 = model.energy_and_forces(system, nl)

    def eager_tape():
        pos = ad.Tensor(system.positions, requires_grad=True)
        energy = model.atomic_energies(pos, system.species, nl).sum()
        energy.backward()
        return float(energy.data), -pos.grad.data

    contract = K._batched_contract

    def contract_before_pr19(spec, operands, out):
        lhs, rhs = spec.split("->")
        if len(operands) == 3 and sorted(rhs) == sorted(s[-1] for s in lhs.split(",")):
            return None  # P+a, P+b, P+c -> abc fell through to np.einsum
        return contract(spec, operands, out)

    def eager_tape_as_calibrated():
        with monkeypatch.context() as m:
            m.setattr(K, "_batched_contract", contract_before_pr19)
            m.setattr(K, "contract_rowsk", lambda out, a, g: K.matmulk(out, a.T, g))
            return eager_tape()

    compiled = model.compile()
    e1, f1 = compiled.energy_and_forces(system, nl)  # capture (cold)

    # Interleave the measurements so every row samples the same machine
    # state (best-of per row is then load-robust).
    calls = {
        "eager tape, as calibrated": eager_tape_as_calibrated,
        "eager tape": eager_tape,
        "eager, forces only": lambda: model.energy_and_forces(system, nl),
        "compiled replay": lambda: compiled.energy_and_forces(system, nl),
    }
    best = dict.fromkeys(calls, float("inf"))
    results = {}
    for _ in range(7):
        for name, call in calls.items():
            t, results[name] = time_callable(call, repeat=1)
            best[name] = min(best[name], t)
    stats = compiled.stats()

    t_eager, t_tape, t_forces, t_compiled = best.values()
    speedup = t_eager / t_compiled
    text = fmt_table(
        ["engine", "force call (ms)", "steps/s", "energy (eV)"],
        [
            (name, f"{t * 1e3:.1f}", f"{1.0 / t:.1f}", f"{results[name][0]:.6f}")
            for name, t in best.items()
        ],
        title=(
            "Ablation — compiled execution engine "
            f"(81-atom water, {nl.n_edges} pairs, {stats['plan_steps']} kernels, "
            f"{stats['arena_buffers']} arena buffers): {speedup:.2f}x"
        ),
    )
    reporter(
        "ablation_deployment_engine",
        text,
        {
            "t_eager_s": t_eager,
            "t_eager_tape_s": t_tape,
            "t_eager_forces_only_s": t_forces,
            "t_compiled_s": t_compiled,
            "steps_per_s_eager": 1.0 / t_eager,
            "steps_per_s_compiled": 1.0 / t_compiled,
            "speedup": speedup,
            "speedup_vs_forces_only": t_forces / t_compiled,
            "engine_stats": stats,
        },
    )

    # Exactness is bitwise, not approximate: replay runs the same kernels,
    # and so does the positions-only backward on its part of the tape.
    assert e1 == e0 == results["eager tape"][0]
    assert np.array_equal(f1, f0)
    assert np.array_equal(results["eager tape"][1], f0)
    # Throughput: the acceptance floor for the engine.
    assert speedup >= 1.5, f"compiled engine only {speedup:.2f}x vs eager"
    assert t_compiled < t_forces, "replay slower than the forces-only eager call"
