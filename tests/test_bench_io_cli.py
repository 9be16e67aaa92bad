import os

import numpy as np
import pytest

from mpcqp import (
    ClosedLoopFailed,
    DenseQp,
    InvalidConfig,
    MassSpringConfig,
    ParseError,
    VersionMismatch,
    gen_mass_spring,
    mass_spring_dynamics,
    mode_preset,
    qp_read,
    qp_write,
    run_closed_loop,
    validate,
)
from mpcqp.cli import main as cli_main

from conftest import rand_dense_qp, rand_ocp_qp, rand_tree_qp


class TestGenerator:
    @pytest.mark.parametrize("M,nx,nu,nb", [(2, 4, 1, 5), (4, 8, 3, 11)])
    def test_dimension_formulas(self, M, nx, nu, nb):
        qp = gen_mass_spring(MassSpringConfig(masses=M, horizon=10))
        assert qp.dim.nx[0] == nx == 2 * M
        assert qp.dim.nu[0] == nu == M - 1
        assert qp.dim.nb[0] == nb == 3 * M - 1
        for n in range(10):
            assert qp.dim.nb[n] == 3 * M - 1

    def test_validates_clean_over_grid(self):
        for M in (2, 7, 15, 30):
            for N in (1, 10, 100):
                qp = gen_mass_spring(MassSpringConfig(masses=M, horizon=N))
                assert validate(qp) == []

    def test_small_ts_limit(self):
        M = 3
        Kstiff = -2.0 * np.eye(M) + np.diag(np.ones(M - 1), 1) \
            + np.diag(np.ones(M - 1), -1)
        for ts in (1e-3, 1e-4):
            A, B = mass_spring_dynamics(M, ts)
            assert np.max(np.abs(A - np.eye(2 * M))) <= 2.0 * ts * np.max(
                np.abs(Kstiff)) + 10 * ts
            assert np.max(np.abs(B)) <= 2.0 * ts

    def test_marginally_stable_discretization(self):
        for M in (2, 5, 11):
            A, _ = mass_spring_dynamics(M, 0.5)
            rad = np.max(np.abs(np.linalg.eigvals(A)))
            assert rad <= 1.0 + 1e-12

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfig):
            MassSpringConfig(masses=1).validate()
        with pytest.raises(InvalidConfig):
            MassSpringConfig(horizon=0).validate()
        with pytest.raises(InvalidConfig):
            MassSpringConfig(ts=0.0).validate()
        with pytest.raises(InvalidConfig):
            MassSpringConfig(x0=np.full(4, 9.0)).validate()


class TestClosedLoop:
    def test_equilibrium_zero_controls(self):
        cfg = MassSpringConfig(masses=2, horizon=10, x0=np.zeros(4))
        res = run_closed_loop(cfg, 6, mode_preset("speed").with_tol(1e-6))
        assert np.max(np.abs(res.inputs)) == 0.0
        assert all(r.iterations <= 1 for r in res.records[1:])

    def test_perturbed_state_decays(self):
        cfg = MassSpringConfig(masses=3, horizon=10)
        res = run_closed_loop(cfg, 50, mode_preset("balance").with_tol(1e-6))
        assert all(r.status == "Success" for r in res.records)
        assert np.linalg.norm(res.states[-1]) < np.linalg.norm(res.states[0])

    def test_warm_start_beats_cold_everywhere(self):
        cfg = MassSpringConfig(masses=2, horizon=10)
        res = run_closed_loop(cfg, 30, mode_preset("speed").with_tol(1e-6),
                              compare_cold=True)
        warm = [r.iterations for r in res.records]
        cold = [r.cold_iterations for r in res.records]
        assert all(w <= c for w, c in zip(warm, cold))
        assert sum(warm) < sum(cold)

    def test_kept_view_is_bit_identical_to_rebuilding(self, monkeypatch):
        # the view carried across every step's lbx/ubx writes against a run
        # that drops the cached view before every step
        import mpcqp.mass_spring as ms
        from mpcqp.view import ProblemView

        builds = []
        real_init = ProblemView.__init__

        def counting_init(self, qp):
            builds.append(qp)
            real_init(self, qp)

        monkeypatch.setattr(ProblemView, "__init__", counting_init)
        cfg = MassSpringConfig(masses=4, horizon=20)
        kept = run_closed_loop(cfg, 16)
        assert len(builds) == 1
        real_make_view = ms.make_view

        def dropping_make_view(qp):
            qp._view_cache = None
            return real_make_view(qp)

        monkeypatch.setattr(ms, "make_view", dropping_make_view)
        rebuilt = run_closed_loop(cfg, 16)
        assert len(builds) == 1 + 16
        assert np.array_equal(kept.states, rebuilt.states)
        assert np.array_equal(kept.inputs, rebuilt.inputs)
        assert ([r.iterations for r in kept.records]
                == [r.iterations for r in rebuilt.records])
        assert all(r.status == "Success" for r in kept.records)

    def test_abort_reports_step(self):
        # force failure through an unreachable tolerance budget
        cfg = MassSpringConfig(masses=2, horizon=10)
        arg = mode_preset("speed").with_tol(1e-6)
        arg.iter_max = 1
        with pytest.raises(ClosedLoopFailed) as ei:
            run_closed_loop(cfg, 3, arg)
        assert ei.value.step == 0


class TestQpFiles:
    def test_ocp_round_trip(self, rng, tmp_path):
        qp = rand_ocp_qp(rng, N=3, nx=3, nu=2, fix_x0=True)
        path = tmp_path / "q.qp"
        qp_write(path, qp)
        qp2 = qp_read(path)
        for n in range(4):
            for f in qp._stages[0]:
                assert np.array_equal(qp.get_field(f, n), qp2.get_field(f, n)), f
        for n in range(3):
            for f in ("A", "B", "b"):
                assert np.array_equal(qp.get_field(f, n), qp2.get_field(f, n))

    def test_dense_round_trip(self, rng, tmp_path):
        qp = rand_dense_qp(rng)
        qp.set_field("ub", np.array([np.inf, 0.25, 1.0]))
        path = tmp_path / "d.qp"
        qp_write(path, qp)
        qp2 = qp_read(path)
        for f in qp._data:
            assert np.array_equal(qp.get_field(f), qp2.get_field(f)), f

    def test_tree_round_trip(self, rng, tmp_path):
        qp = rand_tree_qp(rng, [-1, 0, 0, 1])
        path = tmp_path / "t.qp"
        qp_write(path, qp)
        qp2 = qp_read(path)
        assert np.array_equal(qp2.dim.parents, [-1, 0, 0, 1])
        for m in range(4):
            for f in qp._stages[0]:
                assert np.array_equal(qp.get_field(f, m), qp2.get_field(f, m))

    def test_full_precision(self, tmp_path):
        qp = DenseQp(nv=1)
        qp.set_field("g", [0.1 + 0.2])  # not exactly representable in text
        path = tmp_path / "p.qp"
        qp_write(path, qp)
        assert qp_read(path).get_field("g")[0] == 0.1 + 0.2

    def test_truncated_file(self, rng, tmp_path):
        qp = rand_dense_qp(rng)
        path = tmp_path / "x.qp"
        qp_write(path, qp)
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[: len(text) // 2]))
        with pytest.raises(ParseError):
            qp_read(path)

    def test_unknown_field_named(self, rng, tmp_path):
        qp = rand_dense_qp(rng)
        path = tmp_path / "y.qp"
        qp_write(path, qp)
        path.write_text(path.read_text().replace("\nidxb\n", "\nixdb\n"))
        with pytest.raises(ParseError) as ei:
            qp_read(path)
        assert "idxb" in str(ei.value) and "ixdb" in str(ei.value)

    def test_version_mismatch(self, rng, tmp_path):
        qp = rand_dense_qp(rng)
        path = tmp_path / "v.qp"
        qp_write(path, qp)
        path.write_text(path.read_text().replace("mpcqp_qp 1", "mpcqp_qp 9"))
        with pytest.raises(VersionMismatch):
            qp_read(path)


class TestCli:
    def test_gen_solve_report(self, tmp_path, capsys):
        qpf = str(tmp_path / "ms.qp")
        repf = str(tmp_path / "rep.txt")
        assert cli_main(["gen-mass-spring", "--masses", "2", "--horizon",
                         "10", "--out", qpf]) == 0
        rc = cli_main(["solve", "--qp", qpf, "--mode", "speed",
                       "--tol", "1e-6", "--report", repf])
        assert rc == 0
        out = capsys.readouterr().out
        assert "status Success" in out
        iters = int([l for l in out.splitlines()
                     if l.startswith("iterations")][0].split()[1])
        assert iters <= 15
        assert os.path.exists(repf)

    def test_fixed_iteration_budget(self, tmp_path, capsys):
        qpf = str(tmp_path / "ms.qp")
        cli_main(["gen-mass-spring", "--masses", "2", "--horizon", "10",
                  "--out", qpf])
        rc = cli_main(["solve", "--qp", qpf, "--mode", "speed_abs",
                       "--iter-max", "10", "--tol", "1e-6"])
        out = capsys.readouterr().out
        iters = int([l for l in out.splitlines()
                     if l.startswith("iterations")][0].split()[1])
        assert iters <= 10
        assert any(l.startswith("res_g") for l in out.splitlines())
        assert rc == 0

    def test_condensed_paths(self, tmp_path, capsys):
        qpf = str(tmp_path / "ms.qp")
        cli_main(["gen-mass-spring", "--masses", "2", "--horizon", "8",
                  "--out", qpf])
        for path in ("condense", "partial:4"):
            rc = cli_main(["solve", "--qp", qpf, "--path", path,
                           "--mode", "speed", "--tol", "1e-6"])
            out = capsys.readouterr().out
            assert rc == 0
            res_g = float([l for l in out.splitlines()
                           if l.startswith("res_g")][0].split()[1])
            assert res_g <= 1e-6

    def test_path_errors_exit_2(self, rng, tmp_path, capsys):
        densef = str(tmp_path / "d.qp")
        qp_write(densef, rand_dense_qp(rng))
        ocpf = str(tmp_path / "o.qp")
        qp_write(ocpf, rand_ocp_qp(rng, N=3, nx=2, nu=1))
        for qpf, path in ((densef, "condense"), (densef, "partial:2"),
                          (ocpf, "bogus"), (ocpf, "partial:abc")):
            assert cli_main(["solve", "--qp", qpf, "--path", path]) == 2
            assert capsys.readouterr().err.startswith("error: ")
        cli_main(["solve", "--qp", ocpf, "--path", "partial:1.5"])
        assert "solve path 'partial:1.5'" in capsys.readouterr().err

    def test_infeasible_exit_code(self, tmp_path):
        qp = DenseQp(nv=1, nb=1)
        qp.set_field("H", [[1.0]])
        qp.set_field("lb", [1.0])
        qp.set_field("ub", [0.0])
        qpf = str(tmp_path / "bad.qp")
        qp_write(qpf, qp)
        assert cli_main(["solve", "--qp", qpf, "--mode", "speed"]) == 1

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "junk.qp"
        bad.write_text("not a qp\n")
        assert cli_main(["solve", "--qp", str(bad)]) == 2

    def test_negative_iter_max_exit_2(self, tmp_path, capsys):
        qpf = str(tmp_path / "ms.qp")
        cli_main(["gen-mass-spring", "--masses", "2", "--horizon", "5",
                  "--out", qpf])
        assert cli_main(["solve", "--qp", qpf, "--iter-max", "-1"]) == 2
        assert "iter_max" in capsys.readouterr().err

    def test_closed_loop_command(self, tmp_path, capsys):
        out_csv = str(tmp_path / "cl.csv")
        rc = cli_main(["closed-loop", "--masses", "2", "--horizon", "10",
                       "--steps", "5", "--mode", "speed", "--out", out_csv])
        assert rc == 0
        lines = open(out_csv).read().splitlines()
        assert lines[0].startswith("step,")
        assert len(lines) == 6

    def test_scaling_command_is_gone(self, capsys):
        # wall-time measurements live in perfbench, not in the CLI
        with pytest.raises(SystemExit) as ei:
            cli_main(["scaling", "--masses", "2", "--horizons", "10",
                      "--modes", "speed", "--out", "sc.csv"])
        assert ei.value.code == 2
        assert "invalid choice: 'scaling'" in capsys.readouterr().err

    def test_report_determinism(self, tmp_path):
        qpf = str(tmp_path / "ms.qp")
        cli_main(["gen-mass-spring", "--masses", "2", "--horizon", "10",
                  "--out", qpf])
        r1 = str(tmp_path / "r1.txt")
        r2 = str(tmp_path / "r2.txt")
        cli_main(["solve", "--qp", qpf, "--mode", "balance", "--report", r1])
        cli_main(["solve", "--qp", qpf, "--mode", "balance", "--report", r2])
        assert open(r1, "rb").read() == open(r2, "rb").read()
