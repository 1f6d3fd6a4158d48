import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mfgibbs import cli, config, dynamics, energies
from mfgibbs.dynamics import (
    _GROUP_ENTRIES,
    _RNG_CHUNK,
    BLOWUP_THRESHOLD,
    SimConfig,
    Trajectory,
    _initial_configuration,
    _Observable,
    _replica_groups,
    default_observables,
    make_rng,
    run_chain,
)
from mfgibbs.energies import (
    LinearPotentialEnergy,
    PairwiseKernelEnergy,
    ParticleSystem,
    QuadraticMeanEnergy,
)
from mfgibbs.errors import BlowUpError, GibbsUndefinedError
from mfgibbs.spectral1d import ou_exact_flow_stacks


def ou_system(kappa=1.0, N=1):
    """Independent particles in the potential kappa |x|^2 / 2."""
    energy = LinearPotentialEnergy(
        v=lambda x: 0.5 * kappa * np.sum(x * x, axis=-1),
        v_grad=lambda x: kappa * x,
        v_hess=lambda x: kappa * np.eye(x.shape[-1]) * np.ones(x.shape[:-1] + (1, 1)),
    )
    return ParticleSystem(energy, N, 1)


def _textbook_log_alpha(x, y, u_x, u_y, grad_x, grad_y, h):
    """u_x - u_y + log q(y -> x) - log q(x -> y), from the proposal's log
    density log q(a -> b) = -|b - a + h grad U_N(a)|^2 / (4h); with the sum
    of the four terms' magnitudes, the scale of its round-off."""

    def log_q(a, b, grad_a):
        r = b - a + h * grad_a
        return -np.sum(r * r, axis=(-2, -1)) / (4.0 * h)

    terms = [u_x, -u_y, log_q(y, x, grad_y), -log_q(x, y, grad_x)]
    return sum(terms), sum(np.abs(t) for t in terms)


def _replay(system, cfg, observables, r):
    """Replica r of `cfg` replayed alone on its own draws, with no code of
    the chain loop: its records by name, each observable called on the
    state, and its acceptance rate, NaN for ULA. make_rng(seed, r) draws
    x0, then per chunk of _RNG_CHUNK steps the normals xi and (MALA) the
    uniforms u. The move is x - h grad U_N(x) + sqrt(2h) xi through the
    public lifts; a move with max |y| not below BLOWUP_THRESHOLD, NaN
    included, raises BlowUpError. MALA accepts when log u < log alpha, taken
    from the two proposal densities; a log u within round-off of log alpha
    fails the test as a tie, naming the step, since the loop's algebra of
    the same ratio may decide it the other way."""
    h, mala = cfg.step, cfg.sampler == "MALA"
    rng = make_rng(cfg.seed, r)
    shape = (system.N, system.d)
    if isinstance(cfg.initial, str):
        assert cfg.initial == "zeros"
        x = np.zeros(shape)
    elif isinstance(cfg.initial, tuple):
        x = cfg.initial[1] * rng.standard_normal(shape)
    else:
        x = np.array(cfg.initial, dtype=float)
    if mala:
        u_x, grad_x = system.u_n_and_grad(x)
    recorded = set(cfg.record_steps().tolist())
    records = {name: [] for name in observables}
    accepted = 0
    for start in range(0, cfg.n_steps, _RNG_CHUNK):
        chunk = min(_RNG_CHUNK, cfg.n_steps - start)
        xis = rng.standard_normal((chunk,) + shape)
        log_us = np.log(rng.uniform(size=chunk)) if mala else None
        for c in range(chunk):
            s = start + c + 1
            grad = grad_x if mala else system.grad_u_n(x)
            y = x - h * grad + math.sqrt(2 * h) * xis[c]
            if not np.max(np.abs(y)) < BLOWUP_THRESHOLD:
                raise BlowUpError(f"blow-up at step {s}", step=s, replica=r)
            if mala:
                u_y, grad_y = system.u_n_and_grad(y)
                log_alpha, scale = _textbook_log_alpha(x, y, u_x, u_y, grad_x, grad_y, h)
                if abs(log_us[c] - log_alpha) <= 1e-9 * scale:
                    pytest.fail(f"replica {r}, step {s}: log u is within round-off of log alpha")
                if log_us[c] < log_alpha:
                    x, u_x, grad_x = y, u_y, grad_y
                    accepted += 1
            else:
                x = y
            if s in recorded:
                for name, fn in observables.items():
                    records[name].append(fn(x))
    acc = accepted / cfg.n_steps if mala else np.nan
    return {name: np.array(v) for name, v in records.items()}, acc


def _assert_replicas_replay(system, cfg, observables):
    """Every replica's records and acceptance rate from run_chain are bit
    for bit its `_replay`."""
    traj = run_chain(system, cfg, observables)
    for r in range(cfg.replicas):
        records, acc = _replay(system, cfg, observables, r)
        for name in observables:
            np.testing.assert_array_equal(traj.observables[name][r], records[name])
        assert np.array_equal(traj.acceptance_rates[r], acc, equal_nan=True)
    return traj


class TestMalaLogAlpha:
    """`_mala_log_alpha` takes the forward residual as the kick and the
    backward one as hg_x + hg_y - kick; it is the textbook ratio."""

    @pytest.mark.parametrize("batch", [(), (5,)])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("energy", ["quadratic", "kernel"])
    def test_matches_the_textbook_ratio(self, energy, d, batch):
        if energy == "quadratic":
            system = ParticleSystem(QuadraticMeanEnergy(0.3), 6, d)
        else:
            system = ParticleSystem(PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05), 6, d)
        lift = system.u_n_and_grad
        rng = np.random.default_rng([d, len(batch), len(energy)])
        h = 0.1
        for _ in range(20):
            x = 1.5 * rng.standard_normal(batch + (system.N, d))
            kick = math.sqrt(2.0 * h) * rng.standard_normal(x.shape)
            u_x, grad_x = lift(x)
            y = x - h * grad_x + kick
            u_y, grad_y = lift(y)
            ref, scale = _textbook_log_alpha(x, y, u_x, u_y, grad_x, grad_y, h)
            kick_sq = dynamics._sq_norms(kick)
            got = dynamics._mala_log_alpha(u_x, u_y, h * grad_x, h * grad_y, kick, kick_sq, h)
            assert np.shape(got) == batch
            assert np.all(np.abs(got - ref) <= 1e-12 * scale)
            # the comparison catches a sign error in the backward gradient term
            flipped = dynamics._mala_log_alpha(u_x, u_y, h * grad_x, -h * grad_y, kick, kick_sq, h)
            assert np.all(np.abs(flipped - ref) > 1e-6 * scale)


class TestSqNorms:
    """`_sq_norms` is one BLAS dot per configuration: bit for bit the
    `ndarray.dot` of the flat configuration, alone and in any batch. N*d = 6
    lies below the 8-term unroll of the dot, 9 and 257 leave a remainder."""

    @pytest.mark.parametrize(
        "N, d", [(1, 1), (6, 1), (3, 2), (8, 1), (4, 2), (9, 1), (3, 3), (257, 1)]
    )
    def test_equals_the_flat_dot_in_any_batch(self, N, d):
        # a (G, chunk, N, d) noise buffer, as the chain loop holds it
        buf = np.random.default_rng([N, d]).standard_normal((5, 7, N, d))

        def alone(a):
            flat = a.reshape(-1)
            return flat.dot(flat)

        ref = np.array([[alone(buf[g, c]) for c in range(7)] for g in range(5)])
        for g in range(5):
            got = dynamics._sq_norms(buf[g, 0])
            assert type(got) is float and got == ref[g, 0]
        for G in (1, 2, 5):
            np.testing.assert_array_equal(dynamics._sq_norms(buf[:G, 3]), ref[:G, 3])
        # the whole buffer, and the live rows of a last chunk of 3 steps
        np.testing.assert_array_equal(dynamics._sq_norms(buf), ref)
        np.testing.assert_array_equal(dynamics._sq_norms(buf[:4, :3]), ref[:4, :3])


class TestRng:
    def test_deterministic(self):
        a = make_rng(7, 3).standard_normal(5)
        b = make_rng(7, 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_replicas_distinct(self):
        a = make_rng(7, 0).standard_normal(5)
        b = make_rng(7, 1).standard_normal(5)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_seeds_distinct(self):
        a = make_rng(7, 0).standard_normal(5)
        b = make_rng(8, 0).standard_normal(5)
        assert np.max(np.abs(a - b)) > 1e-3

    @pytest.mark.parametrize("seed", [-1, 2**64, 5 + 2**64, 1.5])
    def test_seed_outside_64_bits_rejected(self, seed):
        # reduced modulo 2^64, -1 would share the stream of 2^64 - 1, and
        # 5 + 2^64 that of 5; truncated into the key, 1.5 that of 1
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            make_rng(seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            SimConfig(step=0.1, n_steps=10, seed=seed)

    def test_seed_range_ends_are_streams(self):
        a = make_rng(0).standard_normal(5)
        b = make_rng(2**64 - 1).standard_normal(5)
        assert np.max(np.abs(a - b)) > 1e-3
        assert SimConfig(step=0.1, n_steps=10, seed=2**64 - 1).seed == 2**64 - 1


class TestRunChain:
    def test_record_schedule(self):
        system = ou_system()
        cfg = SimConfig(step=0.1, n_steps=10, burn_in=4, thin=2, seed=0)
        traj = run_chain(system, cfg)
        np.testing.assert_array_equal(traj.steps, [5, 7, 9])
        np.testing.assert_allclose(traj.times, [0.5, 0.7, 0.9])

    def test_deterministic_rerun(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.3), 5, 1)
        cfg = SimConfig(step=0.05, n_steps=500, replicas=2, seed=12)
        a = run_chain(system, cfg)
        b = run_chain(system, cfg)
        for name in a.observables:
            np.testing.assert_array_equal(a.observables[name], b.observables[name])

    @pytest.mark.parametrize(
        "sampler, energy", [("ULA", "quadratic"), ("MALA", "quadratic"), ("MALA", "kernel")]
    )
    def test_one_chain_equals_its_replay(self, sampler, energy):
        # every step recorded; the run crosses a noise-chunk boundary
        if energy == "quadratic":
            system = ParticleSystem(QuadraticMeanEnergy(0.3), 4, 1)
        else:
            system = ParticleSystem(PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05), 20, 1)
        cfg = SimConfig(step=0.05, n_steps=_RNG_CHUNK + 4, replicas=1, seed=9, sampler=sampler)
        _assert_replicas_replay(system, cfg, {"x1": lambda x: x[0, 0]})

    @pytest.mark.parametrize("sampler, replicas", [("MALA", 1), ("ULA", 3)])
    def test_replay_catches_a_reordered_move(self, sampler, replicas, monkeypatch):
        # the loop's move summed in another order, x + kick - hg, is the same
        # move up to round-off; the replay, which shares no code with the
        # loop, tells it apart
        system = ParticleSystem(QuadraticMeanEnergy(0.3), 4, 1)
        cfg = SimConfig(
            step=0.05, n_steps=300, replicas=replicas, seed=9, sampler=sampler,
            initial=("gaussian", 1.0),
        )
        observables = {"x1": lambda x: x[0, 0]}
        _assert_replicas_replay(system, cfg, observables)
        move = dynamics._move
        monkeypatch.setattr(
            dynamics, "_move", lambda x, hg, kick: move(x + kick, hg, np.zeros_like(kick))
        )
        with pytest.raises(AssertionError):
            _assert_replicas_replay(system, cfg, observables)

    def test_ula_noise_scale(self):
        # at the zero-drift point one step is exactly sqrt(2h) xi
        h, seed = 0.08, 4
        cfg = SimConfig(step=h, n_steps=1, seed=seed, sampler="ULA")
        traj = run_chain(ou_system(), cfg, observables={"x": lambda x: x[0, 0]})
        xi = make_rng(seed, 0).standard_normal()
        assert traj.observables["x"][0, 0] == math.sqrt(2 * h) * xi

    def test_ula_drift_is_explicit_euler(self):
        # one ULA step of kappa |x|^2 / 2 from x0 = 1: x0 - h kappa x0 +
        # sqrt(2h) xi; an explicit start draws nothing, so xi is the first normal
        h, seed = 0.1, 4
        cfg = SimConfig(step=h, n_steps=1, seed=seed, sampler="ULA", initial=np.array([[1.0]]))
        traj = run_chain(ou_system(kappa=2.0), cfg, observables={"x": lambda x: x[0, 0]})
        xi = make_rng(seed, 0).standard_normal()
        assert abs(traj.observables["x"][0, 0] - (0.8 + math.sqrt(2 * h) * xi)) < 1e-15

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_mala_acceptance_rate_counts_the_moves(self, replicas):
        # every step recorded from zeros: a rejected proposal repeats the
        # state and an accepted one moves it, so the rate is the share of moves
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 10, 1)
        cfg = SimConfig(step=0.4, n_steps=500, replicas=replicas, seed=8, sampler="MALA")
        traj = run_chain(system, cfg, observables={"x1": lambda x: x[0, 0]})
        for r in range(replicas):
            path = np.concatenate([[0.0], traj.observables["x1"][r]])
            moves = np.count_nonzero(np.diff(path))
            assert 0 < moves < cfg.n_steps
            assert traj.acceptance_rates[r] == moves / cfg.n_steps

    @pytest.mark.parametrize("sampler", ["ULA", "MALA"])
    def test_blow_up_at_the_first_step(self, sampler):
        # from x0 = 1e9 the first move lands at about 9e8, beyond BLOWUP_THRESHOLD
        cfg = SimConfig(step=0.1, n_steps=10, seed=0, sampler=sampler, initial=np.array([[1e9]]))
        with pytest.raises(BlowUpError) as exc:
            run_chain(ou_system(), cfg)
        assert (exc.value.replica, exc.value.step) == (0, 1)
        assert str(exc.value) == "blow-up at step 1"

    def test_mala_acceptance_rate_reasonable(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 10, 1)
        cfg = SimConfig(step=0.1, n_steps=4000, replicas=1, seed=3, sampler="MALA")
        traj = run_chain(system, cfg)
        assert 0.5 < traj.acceptance_rates[0] < 1.0

    def test_mala_small_step_accepts_almost_always(self):
        system = ou_system()
        cfg = SimConfig(step=1e-4, n_steps=2000, replicas=1, seed=4, sampler="MALA")
        traj = run_chain(system, cfg)
        assert traj.acceptance_rates[0] > 0.99

    @pytest.mark.parametrize("sampler", ["ULA", "MALA"])
    def test_replica_independent_of_replica_count(self, sampler):
        system = ParticleSystem(QuadraticMeanEnergy(0.3), 5, 1)
        one, three = (
            run_chain(system, SimConfig(
                step=0.05, n_steps=300, burn_in=20, thin=3, replicas=r, seed=21,
                sampler=sampler, initial=("gaussian", 1.0),
            ))
            for r in (1, 3)
        )
        for name in one.observables:
            np.testing.assert_array_equal(one.observables[name][0], three.observables[name][0])
        assert np.array_equal(one.acceptance_rates[:1], three.acceptance_rates[:1], equal_nan=True)

    @pytest.mark.parametrize("energy", ["quadratic", "kernel"])
    @pytest.mark.parametrize("replicas", [1, 3])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("sampler", ["ULA", "MALA"])
    def test_builtin_blocks_match_per_state_callables(self, sampler, d, replicas, energy):
        # the built-ins are evaluated on blocks of buffered states (u_n from
        # MALA's cache); plain callables wrapping them see one state at a
        # time. Records 4087, 4090, ..., 4114 straddle the first chunk end.
        if energy == "quadratic":
            system = ParticleSystem(QuadraticMeanEnergy(0.3), 4, d)
        else:
            system = ParticleSystem(PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05), 4, d)
        cfg = SimConfig(
            step=0.05, n_steps=_RNG_CHUNK + 20, burn_in=_RNG_CHUNK - 10, thin=3,
            replicas=replicas, seed=17, sampler=sampler, initial=("gaussian", 1.0),
        )
        builtin = run_chain(system, cfg)
        per_state = run_chain(system, cfg, observables={
            name: (lambda x, f=f: f(x)) for name, f in default_observables(system).items()
        })
        assert builtin.steps[0] < _RNG_CHUNK < builtin.steps[-1]
        assert sorted(builtin.observables) == ["u_n", "x1", "xbar"]
        for name in builtin.observables:
            np.testing.assert_array_equal(builtin.observables[name], per_state.observables[name])
        assert np.array_equal(builtin.acceptance_rates, per_state.acceptance_rates, equal_nan=True)

    def test_wrapped_builtin_called_once_per_record_in_order(self):
        # a functools.wraps wrapper copies the wrapped object's attributes;
        # it still takes the per-state path, state by state, name by name
        system = ParticleSystem(QuadraticMeanEnergy(0.3), 3, 1)
        calls = []

        def wrap(name, fn):
            @functools.wraps(fn)
            def wrapper(x):
                calls.append(name)
                return fn(x)

            return wrapper

        builtins = default_observables(system)
        observables = {name: wrap(name, fn) for name, fn in builtins.items()}
        observables["x1_user"] = wrap("x1_user", lambda x: float(x[0, 0]))
        cfg = SimConfig(step=0.05, n_steps=40, burn_in=10, thin=2, replicas=2, seed=3)
        traj = run_chain(system, cfg, observables)
        assert calls == ["xbar", "x1", "u_n", "x1_user"] * (2 * len(traj.steps))
        ref = run_chain(system, cfg)
        for name in ref.observables:
            np.testing.assert_array_equal(traj.observables[name], ref.observables[name])
        np.testing.assert_array_equal(traj.observables["x1_user"], ref.observables["x1"])

    def test_ula_stationary_variance(self):
        # 1-D OU target kappa x^2/2: ULA is Gaussian with variance
        # 1 / (kappa (1 - kappa h / 2)), exactly computable
        kappa, h = 1.0, 0.2
        system = ou_system(kappa)
        cfg = SimConfig(
            step=h, n_steps=120000, burn_in=2000, replicas=4, seed=1, sampler="ULA"
        )
        traj = run_chain(system, cfg, observables={"x": lambda x: float(x[0, 0])})
        var = float(np.var(traj.observables["x"]))
        expected = 1.0 / (kappa * (1.0 - kappa * h / 2.0))
        assert abs(var - expected) < 0.03
        # and the bias relative to the true variance 1/kappa is visible
        assert var > 1.0 / kappa + 0.05

    def test_mala_removes_step_bias(self):
        kappa, h = 1.0, 0.2
        system = ou_system(kappa)
        cfg = SimConfig(
            step=h, n_steps=120000, burn_in=2000, replicas=4, seed=2, sampler="MALA"
        )
        traj = run_chain(system, cfg, observables={"x": lambda x: float(x[0, 0])})
        var = float(np.var(traj.observables["x"]))
        assert abs(var - 1.0 / kappa) < 0.03

    def test_stationarity_gradient_identity(self):
        # E[grad U] = 0 under the Gibbs measure
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 10, 1)
        cfg = SimConfig(
            step=0.1, n_steps=40000, burn_in=4000, thin=10, replicas=4, seed=5
        )
        traj = run_chain(
            system,
            cfg,
            observables={"g1": lambda x: float(system.grad_u_n(x)[0, 0])},
        )
        assert abs(np.mean(traj.observables["g1"])) < 0.02

    def test_exchangeability(self):
        # particle labels are statistically interchangeable
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 6, 1)
        cfg = SimConfig(
            step=0.1, n_steps=60000, burn_in=5000, thin=10, replicas=2, seed=6
        )
        traj = run_chain(
            system,
            cfg,
            observables={
                "v1": lambda x: float(x[0, 0] ** 2),
                "v4": lambda x: float(x[3, 0] ** 2),
            },
        )
        m1 = np.mean(traj.observables["v1"])
        m4 = np.mean(traj.observables["v4"])
        assert abs(m1 - m4) < 0.08

    def test_blow_up_raises(self):
        # negative-curvature potential with an exploding start
        energy = LinearPotentialEnergy(
            v=lambda x: -2.0 * np.sum(x * x, axis=-1),
            v_grad=lambda x: -4.0 * x,
            v_hess=lambda x: -4.0 * np.eye(x.shape[-1]) * np.ones(x.shape[:-1] + (1, 1)),
        )
        system = ParticleSystem(energy, 1, 1)
        cfg = SimConfig(
            step=1.0, n_steps=500, seed=0, sampler="ULA",
            initial=np.array([[10.0]]),
        )
        with pytest.raises(BlowUpError) as exc:
            run_chain(system, cfg)
        assert exc.value.step is not None
        assert exc.value.replica == 0

    def test_gaussian_initial(self):
        system = ou_system()
        cfg = SimConfig(
            step=0.1, n_steps=5, seed=1, initial=("gaussian", 2.0), sampler="ULA"
        )
        run_chain(system, cfg)  # just exercises the path

    @pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, h):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            SimConfig(step=h, n_steps=10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(step=0.1, n_steps=10, burn_in=10)
        with pytest.raises(ValueError):
            SimConfig(step=0.1, n_steps=10, sampler="HMC")

    @pytest.mark.parametrize("field", ["n_steps", "thin", "replicas"])
    def test_counts_must_be_positive(self, field):
        with pytest.raises(ValueError, match="n_steps, thin, replicas must be positive"):
            SimConfig(**{"step": 0.1, "n_steps": 10, field: 0})

    def test_unknown_initial_condition(self):
        cfg = SimConfig(step=0.1, n_steps=5, initial="uniform")
        with pytest.raises(ValueError, match="unknown initial condition 'uniform'"):
            run_chain(ou_system(), cfg)

    @pytest.mark.parametrize("sampler", ["ULA", "MALA"])
    def test_chain_state_is_one_configuration(self, sampler):
        # a batch (K, N, d) is rejected as an explicit initial configuration,
        # naming its shape
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 3, 2)
        batch = np.zeros((4, 3, 2))
        cfg = SimConfig(step=0.1, n_steps=5, sampler=sampler, initial=batch)
        with pytest.raises(ValueError, match=r"not a batch of shape \(4, 3, 2\)"):
            run_chain(system, cfg)
        with pytest.raises(ValueError, match=r"configuration shape \(3, 3\)"):
            _initial_configuration(system, np.zeros((3, 3)), make_rng(0))

    def test_one_chain_proposal_calls_no_value_helper(self, monkeypatch):
        # the R=1 quadratic MALA proposal takes F inline: no `_value` frame
        # and no `_wsum` frame, on any step or for the default observables
        calls = {"_value_and_grad": 0, "_value": 0, "_wsum": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("_value_and_grad", "_value"):
            fn = getattr(QuadraticMeanEnergy, name)
            monkeypatch.setattr(QuadraticMeanEnergy, name, counted(name, fn))
        monkeypatch.setattr(energies, "_wsum", counted("_wsum", energies._wsum))
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 10, 1)
        traj = run_chain(system, SimConfig(step=0.1, n_steps=50, sampler="MALA", seed=3))
        assert traj.acceptance_rates[0] > 0
        assert calls == {"_value_and_grad": 51, "_value": 0, "_wsum": 0}


def _mean_square(x):
    return float(np.mean(np.sum(x * x, axis=1)))


def _assert_same_trajectory(a, b):
    assert sorted(a.observables) == sorted(b.observables)
    for name in a.observables:
        np.testing.assert_array_equal(a.observables[name], b.observables[name])
    assert np.array_equal(a.acceptance_rates, b.acceptance_rates, equal_nan=True)


BATCH_SYSTEMS = {
    "quadratic-d2": lambda: ParticleSystem(QuadraticMeanEnergy(0.3), 4, 2),
    "kernel": lambda: ParticleSystem(PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05), 6, 1),
    "ou-callables": lambda: ou_system(N=3),
}


class TestReplicaGroups:
    """R >= 2 replicas move as (G, N, d) arrays; every replica is bit for bit
    its `_replay` on the draws of (seed, r)."""

    @pytest.mark.parametrize("name", list(BATCH_SYSTEMS))
    @pytest.mark.parametrize("sampler", ["ULA", "MALA"])
    def test_every_replica_equals_its_serial_chain(self, sampler, name):
        # records 4087, 4090, ..., 4114 straddle the first chunk end; one
        # group of all five replicas
        system = BATCH_SYSTEMS[name]()
        cfg = SimConfig(
            step=0.05, n_steps=_RNG_CHUNK + 20, burn_in=_RNG_CHUNK - 10, thin=3,
            replicas=5, seed=23, sampler=sampler, initial=("gaussian", 1.0),
        )
        assert len(_replica_groups(5, _RNG_CHUNK * system.N * system.d)) == 1
        observables = dict(default_observables(system), m2=_mean_square)
        traj = _assert_replicas_replay(system, cfg, observables)
        assert traj.steps[0] < _RNG_CHUNK < traj.steps[-1]

    @pytest.mark.parametrize("sampler", ["ULA", "MALA"])
    def test_group_budget_does_not_change_the_trajectory(self, sampler, monkeypatch):
        system = ParticleSystem(PairwiseKernelEnergy(eta=1.0, L=1.0, alpha=0.05), 5, 2)
        cfg = SimConfig(
            step=0.05, n_steps=300, burn_in=7, thin=2, replicas=5, seed=31,
            sampler=sampler, initial=("gaussian", 2.0),
        )
        per_replica = cfg.n_steps * system.N * system.d
        observables = dict(default_observables(system), m2=_mean_square)
        runs = []
        for size in (1, 2, 5):
            monkeypatch.setattr(dynamics, "_GROUP_ENTRIES", size * per_replica)
            assert max(len(g) for g in _replica_groups(cfg.replicas, per_replica)) == size
            runs.append(run_chain(system, cfg, observables))
        for traj in runs[1:]:
            _assert_same_trajectory(runs[0], traj)

    @pytest.mark.parametrize("replicas", [1, 2, 3, 16, 17, 4000])
    @pytest.mark.parametrize("per_replica", [1, 250, 52_000, _GROUP_ENTRIES, _GROUP_ENTRIES + 1])
    def test_groups_cover_the_replicas_within_the_budget(self, replicas, per_replica):
        groups = _replica_groups(replicas, per_replica)
        assert [r for g in groups for r in g] == list(range(replicas))
        sizes = [len(g) for g in groups]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        if per_replica > _GROUP_ENTRIES:
            assert sizes == [1] * replicas
        else:
            assert max(sizes) * per_replica <= _GROUP_ENTRIES
            # as few groups as the budget allows
            assert len(groups) == -(-replicas // (_GROUP_ENTRIES // per_replica))

    @pytest.mark.parametrize("group_size", [2, 6])
    @pytest.mark.parametrize("seed", [24, 37])
    def test_blow_up_reports_the_serial_replica_and_step(self, seed, group_size, monkeypatch):
        # stable inside |x| < 6, pushed out beyond: replica 0 never blows up,
        # and a higher replica blows up at an earlier step than the lowest
        # one that does. The report is the lowest one, at its own step.
        energy = LinearPotentialEnergy(
            v=lambda x: np.zeros(x.shape[:-1]),
            v_grad=lambda x: np.where(np.abs(x) < 6.0, x, -x),
            v_hess=lambda x: np.ones(x.shape + (1,)),
        )
        system = ParticleSystem(energy, 1, 1)
        cfg = SimConfig(
            step=0.1, n_steps=300, replicas=6, seed=seed, sampler="ULA",
            initial=("gaussian", 4.0),
        )
        observables = {"x": lambda x: float(x[0, 0])}
        serial = {}
        for r in range(cfg.replicas):
            try:
                _replay(system, cfg, observables, r)
            except BlowUpError as exc:
                assert exc.replica == r
                serial[r] = exc.step
        lowest = min(serial)
        assert 0 not in serial and any(serial[r] < serial[lowest] for r in serial if r > lowest)
        monkeypatch.setattr(dynamics, "_GROUP_ENTRIES", group_size * cfg.n_steps)
        with pytest.raises(BlowUpError) as exc:
            run_chain(system, cfg, observables)
        assert (exc.value.replica, exc.value.step) == (lowest, serial[lowest])
        assert str(exc.value) == f"blow-up at step {serial[lowest]}"

    @pytest.mark.parametrize("group_size", [1, 6])
    @pytest.mark.parametrize("seed", [2, 3])
    def test_non_finite_move_reports_the_serial_replica_and_step(
        self, seed, group_size, monkeypatch
    ):
        # the gradient is NaN beyond |x| = 3, so the move from there is NaN,
        # which `_move` counts as a blow-up; a higher replica blows up at an
        # earlier step than the lowest one that does
        energy = LinearPotentialEnergy(
            v=lambda x: 0.5 * np.sum(x * x, axis=-1),
            v_grad=lambda x: np.where(np.abs(x) <= 3.0, x, np.nan),
            v_hess=lambda x: np.ones(x.shape + (1,)),
        )
        system = ParticleSystem(energy, 1, 1)
        cfg = SimConfig(
            step=0.1, n_steps=300, replicas=6, seed=seed, sampler="ULA",
            initial=("gaussian", 1.0),
        )
        observables = {"x": lambda x: float(x[0, 0])}
        serial = {}
        for r in range(cfg.replicas):
            try:
                _replay(system, cfg, observables, r)
            except BlowUpError as exc:
                serial[r] = exc.step
        lowest = min(serial)
        assert any(serial[r] < serial[lowest] for r in serial if r > lowest)
        monkeypatch.setattr(dynamics, "_GROUP_ENTRIES", group_size * cfg.n_steps)
        with pytest.raises(BlowUpError) as exc:
            run_chain(system, cfg, observables)
        assert (exc.value.replica, exc.value.step) == (lowest, serial[lowest])

    @pytest.mark.parametrize("seed", [27, 42])
    def test_mala_blow_up_cuts_the_carried_state(self, seed):
        # flat inside |x| <= 5, a cliff of -1e300 with a huge gradient beyond:
        # a proposal over the edge is accepted, and the move from there blows
        # up. Within one chunk a higher replica blows up first, cutting the
        # group to replicas 0-2 with their U_N, h grad U_N and |kick|^2 rows;
        # then replica 2 blows up, and replicas 0 and 1 run to the end.
        energy = LinearPotentialEnergy(
            v=lambda x: np.where(np.abs(x[..., 0]) <= 5.0, 0.0, -1e300),
            v_grad=lambda x: np.where(np.abs(x) <= 5.0, 0.0 * x, -1e20 * x),
            v_hess=lambda x: np.zeros(x.shape + (1,)),
        )
        system = ParticleSystem(energy, 1, 1)
        cfg = SimConfig(
            step=0.05, n_steps=300, replicas=8, seed=seed, sampler="MALA",
            initial=("gaussian", 2.5),
        )
        assert cfg.n_steps < _RNG_CHUNK
        observables = dict(default_observables(system), x=lambda x: float(x[0, 0]))
        serial, records = {}, {}
        for r in range(cfg.replicas):
            try:
                records[r] = _replay(system, cfg, observables, r)[0]
            except BlowUpError as exc:
                serial[r] = exc.step
        lowest = min(serial)
        assert lowest == 2 and any(serial[r] < serial[lowest] for r in serial if r > lowest)
        record_steps = cfg.record_steps()
        values = {name: np.full((cfg.replicas, len(record_steps)), np.nan) for name in observables}
        with pytest.raises(BlowUpError) as exc:
            dynamics._run_group(system, cfg, range(cfg.replicas), observables, record_steps, values)
        assert (exc.value.replica, exc.value.step) == (lowest, serial[lowest])
        for r in range(lowest):
            for name in observables:
                np.testing.assert_array_equal(values[name][r], records[r][name])

    @pytest.mark.parametrize("sampler", ["ULA", "MALA"])
    def test_group_calls_each_builtin_block_once_per_chunk(self, sampler):
        # three chunks, each with records, one group of three replicas
        system = ParticleSystem(QuadraticMeanEnergy(0.3), 3, 1)
        cfg = SimConfig(
            step=0.05, n_steps=2 * _RNG_CHUNK + 5, thin=2, replicas=3, seed=5, sampler=sampler
        )
        assert len(_replica_groups(3, _RNG_CHUNK * system.N * system.d)) == 1
        calls = {}

        def counted(name, obs):
            def block(states, u_n):
                calls[name] = calls.get(name, 0) + 1
                return obs.block(states, u_n)

            return _Observable(block)

        builtins = default_observables(system)
        traj = run_chain(system, cfg, {name: counted(name, obs) for name, obs in builtins.items()})
        assert calls == {name: 3 for name in builtins}
        _assert_same_trajectory(traj, run_chain(system, cfg))


def _cliff(fill, sampler):
    """One particle in d = 1 whose gradient is `fill` beyond |x| = 20: a
    move from there lands at |y| ~ 1e200, where y*y overflows, or at NaN.
    Inside, ULA drifts outward (x -> 1.05 x + xi at h = 0.5) and reaches the
    edge at a step of its own per replica; MALA contracts (y = x/2 + xi),
    so only a replica that starts beyond the edge blows up, at step 1, and
    no proposal reaches the edge."""
    slope, scale = (-0.1, 1.0) if sampler == "ULA" else (1.0, 16.0)
    beyond = {"huge": lambda x: -1e200 * x, "nan": lambda x: np.full_like(x, np.nan)}[fill]
    energy = LinearPotentialEnergy(
        v=lambda x: 0.5 * np.sum(x * x, axis=-1),
        v_grad=lambda x: np.where(np.abs(x) < 20.0, slope * x, beyond(x)),
        v_hess=lambda x: np.ones(x.shape + (1,)),
    )
    return ParticleSystem(energy, 1, 1), ("gaussian", scale)


class TestMoveVerdict:
    """`_move`'s blow-up verdict on edge values: one configuration alone
    blows up exactly when the batch branch names its row in a group of 3,
    with no warning and no floating-point error raised."""

    BELOW = float(np.nextafter(BLOWUP_THRESHOLD, 0.0))
    NAN, INF = math.nan, math.inf
    # six entries each, flattened (N, d) order; True: the move blows up
    CASES = {
        "at-1e8": ([0.5, -2.0, 1e8, 0.0, 1.0, 3.0], True),
        "at-minus-1e8": ([0.5, -2.0, 1.0, -1e8, 1.0, 3.0], True),
        "just-below": ([BELOW, -BELOW, 1.0, 0.0, -BELOW, 2.0], False),
        "nan-first": ([NAN, 1.0, 2.0, 3.0, 4.0, 5.0], True),
        "nan-middle": ([1.0, 2.0, NAN, 3.0, 4.0, 5.0], True),
        "nan-last": ([1.0, 2.0, 3.0, 4.0, 5.0, NAN], True),
        "nan-after-huge": ([1.0, 2e8, 3.0, NAN, 4.0, 5.0], True),
        "inf": ([1.0, 2.0, INF, 3.0, 4.0, 5.0], True),
        "minus-inf": ([-INF, 2.0, 3.0, 4.0, 5.0, 6.0], True),
        "1e200": ([1.0, 2.0, 3.0, 4.0, 1e200, 5.0], True),
        "minus-zero": ([-0.0] * 6, False),
    }

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("case", list(CASES))
    def test_alone_as_in_a_group(self, case, d):
        values, blows = self.CASES[case]
        y = np.array(values).reshape(-1, d)
        zero = np.zeros_like(y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise"):
                moved, bad = dynamics._move(y, zero, zero)
                assert (bad is not None) == blows
                assert bad in (None, 0)
                for row in range(3):
                    group = np.full((3,) + y.shape, 0.25)
                    group[row] = y
                    _, first = dynamics._move(group, np.zeros_like(group), np.zeros_like(group))
                    assert first == (row if blows else None)
        np.testing.assert_array_equal(moved, y)


class TestBlowUpSemantics:
    """A move whose max |y| is huge or NaN raises BlowUpError at its own
    replica and step, with no warning, under the default error state and
    under the CLI's, where an overflow or an invalid operation raises."""

    ERRSTATES = {"default": {}, "raise": {"over": "raise", "invalid": "raise"}}

    @staticmethod
    def _config(sampler, replicas, initial):
        # ULA seed 3: replicas 1 and 2 blow up before replica 0 does; MALA
        # seed 3 starts replica 1 alone beyond the edge, seed 5 replica 0
        seed = 5 if (sampler, replicas) == ("MALA", 1) else 3
        return SimConfig(step=0.5, n_steps=300, replicas=replicas, seed=seed,
                         sampler=sampler, initial=initial)

    @pytest.mark.parametrize("errstate", list(ERRSTATES))
    @pytest.mark.parametrize("replicas", [1, 3])
    @pytest.mark.parametrize("sampler", ["ULA", "MALA"])
    @pytest.mark.parametrize("fill", ["huge", "nan"])
    def test_reports_its_own_replica_and_step(
        self, fill, sampler, replicas, errstate, monkeypatch
    ):
        system, initial = _cliff(fill, sampler)
        cfg = self._config(sampler, replicas, initial)
        observables = {"x": lambda x: float(x[0, 0])}
        serial = {}
        for r in range(replicas):
            try:
                _replay(system, cfg, observables, r)
            except BlowUpError as exc:
                serial[r] = exc.step
        lowest = min(serial)
        if replicas > 1:
            assert lowest > 0 or any(serial[r] < serial[lowest] for r in serial if r > lowest)
        blown = []
        move = dynamics._move

        def spy(x, hg, kick):
            y, bad = move(x, hg, kick)
            if bad is not None:
                blown.append(np.reshape(y, (-1, 1))[bad, 0])
            return y, bad

        monkeypatch.setattr(dynamics, "_move", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(**self.ERRSTATES[errstate]):
                with pytest.raises(BlowUpError) as exc:
                    run_chain(system, cfg, observables)
        assert (exc.value.replica, exc.value.step) == (lowest, serial[lowest])
        # each blown move is the case named: y*y overflows, or y is NaN
        assert blown and all(
            np.isnan(y) if fill == "nan" else 1e154 < abs(y) < math.inf for y in blown
        )

    @pytest.mark.parametrize("replicas", [1, 3])
    @pytest.mark.parametrize("sampler", ["ULA", "MALA"])
    @pytest.mark.parametrize("fill", ["huge", "nan"])
    def test_the_cli_exits_4(self, fill, sampler, replicas, tmp_path, monkeypatch, capsys):
        system, initial = _cliff(fill, sampler)
        cfg = self._config(sampler, replicas, initial)
        with pytest.raises(BlowUpError) as exc:
            run_chain(system, cfg)
        path = tmp_path / "cliff.ini"
        path.write_text(
            "[energy]\ntype = quadratic\na = 0.5\n\n[system]\nn = 1\nd = 1\n\n"
            f"[sim]\nstep = {cfg.step}\nn_steps = {cfg.n_steps}\nseed = {cfg.seed}\n"
            f"sampler = {sampler}\ninitial = gaussian({initial[1]})\n"
        )
        monkeypatch.setattr(config.ExperimentConfig, "build_system", lambda self: system)
        # `simulate` reads the energy's Gibbs constant before the chain
        monkeypatch.setattr(LinearPotentialEnergy, "declared_rho", 1.0, raising=False)
        out = tmp_path / "traj.csv"
        code = cli.main(["simulate", "--config", str(path), "--out", str(out),
                         "--replicas", str(replicas)])
        assert code == 4
        assert capsys.readouterr().err == f"blow-up: blow-up at step {exc.value.step}\n"
        assert not out.exists()


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        traj = Trajectory(
            step=0.5,
            thin=1,
            steps=np.array([1, 2]),
            observables={"a": np.array([[1.5, 2.5], [3.5, 4.5]])},
            acceptance_rates=np.array([0.9, 0.8]),
        )
        path = tmp_path / "out.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "replica,step,time,observable,value"
        assert lines[1] == "0,1,0.5,a,1.5"
        assert lines[4] == "1,2,1,a,4.5"
        assert len(lines) == 5


def _reference_csv(traj, path):
    """The row-by-row writer that Trajectory.to_csv must match byte for byte."""
    names = sorted(traj.observables)
    with open(path, "w") as fh:
        fh.write("replica,step,time,observable,value\n")
        for r in range(traj.acceptance_rates.shape[0]):
            for k, s in enumerate(traj.steps):
                t = s * traj.step
                for name in names:
                    v = traj.observables[name][r, k]
                    fh.write(f"{r},{s},{t:.17g},{name},{v:.17g}\n")


def _trajectory(replicas, n_records, names, thin=1, burn_in=0, seed=0):
    rng = np.random.default_rng(seed)
    return Trajectory(
        step=0.1,
        thin=thin,
        steps=burn_in + 1 + thin * np.arange(n_records),
        observables={name: rng.standard_normal((replicas, n_records)) for name in names},
        acceptance_rates=np.full(replicas, 0.5),
    )


class TestTrajectoryCsvBlocks:
    def test_matches_row_by_row_writer(self, tmp_path):
        # R=2, three blocks, thin 3, names not in sorted order, and values
        # whose formatting has edge cases
        traj = _trajectory(2, 2 * _RNG_CHUNK + 5, ["x1", "u_n", "a", "xbar"], thin=3, burn_in=7)
        special = [0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 1e300, np.inf, -np.inf, np.nan]
        traj.observables["a"][1, _RNG_CHUNK - 5 : _RNG_CHUNK + 5] = special
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        traj.to_csv(new)
        _reference_csv(traj, ref)
        assert new.read_bytes() == ref.read_bytes()

    def test_memory_bounded_by_block(self, tmp_path):
        # 1e5 records x 3 observables: the writer holds one block of formatted
        # rows at a time, never the whole file. A block is 1/24 of this file;
        # its rows, their join and its encoding measured 0.19 of the file size
        traj = _trajectory(1, 100_000, ["u_n", "x1", "xbar"])
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            traj.to_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 10_000_000
        assert peak < 0.25 * size


class TestExactFlow:
    def test_stationary_is_fixed(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 3, 1)
        A = system.hess_u_n(np.zeros((3, 1)))
        cov_inf = np.linalg.inv(A)
        (m,), (S,) = ou_exact_flow_stacks(system, np.zeros(3), cov_inf, [2.7])
        np.testing.assert_allclose(m, 0.0, atol=1e-12)
        np.testing.assert_allclose(S, cov_inf, atol=1e-12)

    def test_semigroup_property(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 3, 1)
        mean0 = np.array([1.0, -2.0, 0.5])
        cov0 = 0.3 * np.eye(3)
        (m1,), (S1,) = ou_exact_flow_stacks(system, mean0, cov0, [0.4])
        (m2,), (S2,) = ou_exact_flow_stacks(system, m1, S1, [0.6])
        (m_direct,), (S_direct,) = ou_exact_flow_stacks(system, mean0, cov0, [1.0])
        np.testing.assert_allclose(m2, m_direct, atol=1e-12)
        np.testing.assert_allclose(S2, S_direct, atol=1e-12)

    def test_scalar_closed_form(self):
        # N = 1: A = 1 - a, mean e^{-At} m0, var e^{-2At} v0 + (1-e^{-2At})/A
        system = ParticleSystem(QuadraticMeanEnergy(0.5), 1, 1)
        A = 0.5
        t, m0, v0 = 0.7, 2.0, 0.1
        (m,), (S,) = ou_exact_flow_stacks(system, [m0], [[v0]], [t])
        assert abs(m[0] - np.exp(-A * t) * m0) < 1e-14
        expected = np.exp(-2 * A * t) * v0 + (1 - np.exp(-2 * A * t)) / A
        assert abs(S[0, 0] - expected) < 1e-14

    def test_time_zero_identity(self):
        system = ParticleSystem(QuadraticMeanEnergy(0.2), 2, 1)
        cov0 = np.array([[0.5, 0.1], [0.1, 0.4]])
        (m,), (S,) = ou_exact_flow_stacks(system, [1.0, 2.0], cov0, [0.0])
        np.testing.assert_allclose(m, [1.0, 2.0], atol=1e-14)
        np.testing.assert_allclose(S, cov0, atol=1e-14)

    def test_matches_diag_form(self):
        # scaling V's columns is the product with np.diag(decay), bit for bit
        system = ParticleSystem(QuadraticMeanEnergy(0.3), 5, 1)
        rng = np.random.default_rng(4)
        mean0, B = rng.normal(size=5), rng.normal(size=(5, 5))
        cov0 = B @ B.T + 0.1 * np.eye(5)
        times = [0.0, 0.35, 2.0]
        evals, V = np.linalg.eigh(system.hess_u_n(np.zeros((5, 1))))
        for t, m, S in zip(times, *ou_exact_flow_stacks(system, mean0, cov0, times)):
            decay = np.exp(-evals * t)
            E = V @ np.diag(decay) @ V.T
            stat = V @ np.diag((1.0 / evals) * (1.0 - decay**2)) @ V.T
            assert np.array_equal(m, E @ mean0)
            assert np.array_equal(S, E @ cov0 @ E + stat)

    def test_undefined_gibbs(self):
        system = ParticleSystem(QuadraticMeanEnergy(1.5), 2, 1)
        with pytest.raises(GibbsUndefinedError):
            ou_exact_flow_stacks(system, np.zeros(2), np.eye(2), [1.0])

    def test_non_quadratic_rejected(self):
        with pytest.raises(TypeError):
            ou_exact_flow_stacks(ou_system(), [0.0], [[1.0]], [1.0])
