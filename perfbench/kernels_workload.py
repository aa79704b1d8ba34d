"""`kernels`: a fixed, seeded mix of dense density-matrix calls.

One pass (a "cycle") makes 24 checked calls:

- 16 x `run_teleport`, BBCJPW protocol on `angle_channel(theta)` for each
  grid angle, with two pure Haar inputs and two mixed Bloch-ball inputs;
- 2 x `run_teleport`, the classical protocol on `product_channel`, with a
  diagonal input and with |+>;
- 1 x `extreme_reduction_check`, 1 x `average_fidelity` (64 samples),
  1 x `entanglement_report`;
- 1 x `dilate` of a random local protocol, then 2 x `Dilation.apply`
  compared with `apply_kraus`.

The optimizer does no work here. The seed fixes a pool of `POOL` cycles of
inputs; a run goes through the pool in order and starts over.
"""

import math
import time

import numpy as np

from checks import (
    GRID,
    Tally,
    average_fidelity_ok,
    bbcjpw_ok,
    bloch_vector,
    classical_ok,
    concurrence_ok,
    dilation_ok,
)
from sweep_workload import channel_state

IMPORTS = "qteleport"
POOL = 32
AVERAGE_SAMPLES = 64
# At these angles 64 Haar samples put (2 + sin 2theta)/3 at least 7
# standard errors inside the 0.01 tolerance; at pi/8 it would be 1.8.
AVERAGE_ANGLES = (3 * math.pi / 16, math.pi / 4)
PROBES = ("optimize", "suites", "cli")


def _haar_ket(rng) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def _ball_bloch(rng) -> np.ndarray:
    """Uniform in the Bloch ball, kept off the sphere."""
    d = rng.normal(size=3)
    return d / np.linalg.norm(d) * min(rng.random() ** (1.0 / 3.0), 0.999)


def _density(bloch) -> np.ndarray:
    x, y, z = bloch
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


def _noncommuting_pair(rng):
    while True:
        r1, r2 = _ball_bloch(rng), _ball_bloch(rng)
        if np.linalg.norm(np.cross(r1, r2)) > 1e-2:
            return _density(r1), _density(r2)


def _local_protocol(rng):
    """Kraus pairs (K_i, U_i): slices of a Haar isometry times unitaries."""
    from qteleport import channels

    n = int(rng.integers(1, 5))
    g = rng.normal(size=(2 * n, 2)) + 1j * rng.normal(size=(2 * n, 2))
    isometry, _ = np.linalg.qr(g)
    pairs = []
    for i in range(n):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        pairs.append((isometry[2 * i: 2 * i + 2], q * (np.diag(r) / np.abs(np.diag(r)))))
    return channels.LocalKrausProtocol(pairs=tuple(pairs), alice_dim=2, bob_dim=2)


def _random_density(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def make_inputs(seed: int) -> dict:
    from qteleport import teleport

    rng = np.random.default_rng(seed)
    ket0 = np.array([1.0, 0.0], dtype=complex)
    ket1 = np.array([0.0, 1.0], dtype=complex)
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    cycles = []
    for c in range(POOL):
        bbcjpw = []
        for theta in GRID:
            for pure in (True, True, False, False):
                if pure:
                    ket = _haar_ket(rng)
                    rho = np.outer(ket, ket.conj())
                else:
                    rho = _density(_ball_bloch(rng))
                bbcjpw.append((theta, pure, rho, bloch_vector(rho)))
        p = rng.random()
        cycles.append({
            "bbcjpw": bbcjpw,
            "classical": ((True, np.diag([p, 1.0 - p]).astype(complex)),
                          (False, np.outer(plus, plus.conj()))),
            "reduction": (GRID[c % len(GRID)], *_noncommuting_pair(rng)),
            "average": (AVERAGE_ANGLES[c % len(AVERAGE_ANGLES)], int(rng.integers(2**31))),
            "entangle": float(rng.uniform(0.05, math.pi / 4)),
            "dilate": (_local_protocol(rng), _random_density(rng, 4), _random_density(rng, 4)),
        })
    return {
        "cycles": cycles,
        "channels": {theta: channel_state(theta) for theta in GRID},
        "product": channel_state(0.0),
        "bbcjpw": teleport.bbcjpw_protocol(),
        "classical": teleport.classical_commuting_protocol((ket0, ket1)),
    }


def one_cycle(inputs: dict, index: int, tally: Tally, latencies=None) -> None:
    """Run and check one cycle of the mix; run_teleport times (s) go to `latencies`."""
    from qteleport import channels, entanglement, teleport

    cycle = inputs["cycles"][index % POOL]
    clock = time.perf_counter
    for theta, pure, rho, bloch in cycle["bbcjpw"]:
        t0 = clock()
        out = teleport.run_teleport(rho, inputs["channels"][theta], inputs["bbcjpw"], rho)
        if latencies is not None:
            latencies.append(clock() - t0)
        tally.record(bbcjpw_ok(theta, bloch, pure, out.output, out.fidelity),
                     f"bbcjpw theta={theta!r} fidelity={out.fidelity!r}")
    for diagonal, rho in cycle["classical"]:
        t0 = clock()
        out = teleport.run_teleport(rho, inputs["product"], inputs["classical"], rho)
        if latencies is not None:
            latencies.append(clock() - t0)
        tally.record(classical_ok(diagonal, out.fidelity), f"classical fidelity={out.fidelity!r}")

    theta, rho1, rho2 = cycle["reduction"]
    report = teleport.extreme_reduction_check(inputs["bbcjpw"], inputs["channels"][theta], rho1, rho2)
    tally.record(bool(report.implication_holds), f"extreme reduction theta={theta!r}")

    theta, seed = cycle["average"]
    value = teleport.average_fidelity(inputs["bbcjpw"], inputs["channels"][theta],
                                      AVERAGE_SAMPLES, seed)
    tally.record(average_fidelity_ok(theta, value), f"average fidelity theta={theta!r}")

    theta = cycle["entangle"]
    ket = np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)], dtype=complex)
    report = entanglement.entanglement_report(np.outer(ket, ket.conj()))
    tally.record(concurrence_ok(theta, report.concurrence), f"concurrence theta={theta!r}")

    protocol, *probes = cycle["dilate"]
    dilation = channels.dilate(protocol)
    u = dilation.u
    tally.record(dilation_ok(u.conj().T @ u, np.eye(u.shape[0])), "dilation unitarity")
    for rho in probes:
        tally.record(dilation_ok(dilation.apply(rho), channels.apply_kraus(protocol, rho)),
                     "dilation against apply_kraus")


def timed_run(inputs: dict, seconds: float, tally: Tally, sampler):
    """Cycles until `seconds` pass; each is scaled by the speed sampled after it."""
    cycles, latencies = [], []
    attempted = tally.attempted
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        lat = []
        t0 = time.perf_counter()
        one_cycle(inputs, len(cycles), tally, lat)
        elapsed = time.perf_counter() - t0
        speed = sampler.sample()
        cycles.append(elapsed * speed)
        latencies.extend(t * speed for t in lat)
    lat_us = np.array(latencies) * 1e6
    metrics = {
        "wall_s": (float(np.median(cycles)), "s"),
        "ops_per_s": ((tally.attempted - attempted) / sum(cycles), "1/s"),
    }
    details = {
        "cycles": len(cycles),
        "teleport_p50_us": {"value": float(np.percentile(lat_us, 50)), "unit": "us"},
        "teleport_p99_us": {"value": float(np.percentile(lat_us, 99)), "unit": "us"},
        "teleport_samples": int(lat_us.size),
    }
    return metrics, details


def unit(inputs: dict, tally: Tally) -> None:
    one_cycle(inputs, 0, tally)


def traced_pass(inputs: dict, tracer, tally: Tally) -> None:
    for index in range(POOL):
        with tracer.operation("kernels.cycle"):
            one_cycle(inputs, index, tally)
