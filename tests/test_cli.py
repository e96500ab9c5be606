import os

import numpy as np
import pytest

from lps import cli
from lps.cli import ConfigError, RunConfig, build_config, main, parse_config


def write_config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


BASE = """
alpha = 0.0
count = 5
seed = 42
cutoff = 4
quad_order = 32
"""


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = write_config(
            tmp_path,
            "alpha = 0.3, -0.5\ntask = verify\nseed = 7\ncount = 10\n# comment\n",
        )
        values = parse_config(path)
        assert values["alpha"] == (0.3, -0.5)
        assert values["task"] == "verify"
        assert values["seed"] == 7

    def test_unknown_key_is_error(self, tmp_path):
        path = write_config(tmp_path, "alpha = 0.0\nbogus_key = 3\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config(path)

    def test_bad_value_names_field(self, tmp_path):
        path = write_config(tmp_path, "alpha = 0.0\ncount = many\n")
        with pytest.raises(ConfigError, match="count"):
            parse_config(path)

    def test_missing_alpha_is_error(self, tmp_path):
        path = write_config(tmp_path, "task = basis\n")

        class Args:
            config = path
            task = "basis"
            seed = None
            out = ""
            format = ""
            threads = ""
            no_timestamp = False

        with pytest.raises(ConfigError, match="alpha"):
            build_config(Args())


class TestValidation:
    def test_czscan_requires_cz_range(self):
        cfg = RunConfig(alpha=(-0.9,), task="czscan", seed=1)
        with pytest.raises(ConfigError, match=r"-1/2"):
            cfg.validate()

    def test_seed_required_for_sampled_tasks(self):
        cfg = RunConfig(alpha=(0.0,), task="gfun")
        with pytest.raises(ConfigError, match="seed"):
            cfg.validate()

    def test_thread_env_override(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        cfg = RunConfig(alpha=(0.0,), task="basis", threads="2")
        assert cfg.thread_count() == 2
        monkeypatch.setenv("LPS_THREADS", "5")
        assert cfg.thread_count() == 5

    def test_threads_clamped_to_cores(self, monkeypatch):
        # thread_count only computes the number; no thread is started here
        monkeypatch.delenv("LPS_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert RunConfig(alpha=(0.0,), task="basis", threads="64").thread_count() == 4
        assert RunConfig(alpha=(0.0,), task="basis", threads="3").thread_count() == 3
        monkeypatch.setenv("LPS_THREADS", "100000")
        assert RunConfig(alpha=(0.0,), task="basis").thread_count() == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert RunConfig(alpha=(0.0,), task="basis").thread_count() == 1

    def test_bad_threads(self):
        cfg = RunConfig(alpha=(0.0,), task="basis", threads="zero")
        with pytest.raises(ConfigError, match="threads"):
            cfg.thread_count()


class TestExitCodes:
    @pytest.mark.parametrize("task,text,field", [
        ("czscan", "alpha = -0.9\n", "-1/2"),
        ("basis", "alpha = nan\n", "alpha"),
        ("basis", "alpha = 0.0\nquad_order = 0\n", "quad_order"),
        ("basis", "alpha = 0.0\ncutoff = -1\n", "cutoff"),
        ("gfun", "alpha = 0.0\ncutoff = 0\n", "cutoff"),
        ("verify", "alpha = 0.0\ncutoff = 0\n", "cutoff"),
        ("czscan", "alpha = 0.0\nzeta_order = 1\n", "zeta_order"),
        ("czscan", "alpha = 0.0\nzeta_levels = 1\n", "zeta_levels"),
        ("czscan", "alpha = 0.0\nbox_hi = inf\n", "box_hi"),
        # the mixed-derivative kinds need a second coordinate
        ("czscan", "alpha = 0.0\nkind = hTmod\n", "kind"),
        ("czscan", "alpha = 0.0\nkind = hPmod\n", "kind"),
        # the positional task must not silently override a different config task
        ("czscan", "alpha = 0.0\ntask = lemmas\n", "task"),
        # a d = 5 ball measure takes 20-30 s, once per pair
        ("czscan", "alpha = 0 0 0 0 0\n", "d = 5 ball takes 20-30 s"),
        ("lemmas", "alpha = 0 0 0 0 0\n", "d = 5 ball takes 20-30 s"),
        # the kernel triple draws from the box clipped to [0.2, 4]
        ("kernel", "alpha = 0.0\nbox_lo = 0.05\nbox_hi = 0.1\n", "box_lo/box_hi"),
        ("kernel", "alpha = 0.0\nbox_lo = 5\nbox_hi = 9\n", "box_lo/box_hi"),
        ("verify", "alpha = 0.0\nbox_lo = 0.05\nbox_hi = 0.1\n", "box_lo/box_hi"),
        ("verify", "alpha = 0.0\nbox_lo = 5\nbox_hi = 9\n", "box_lo/box_hi"),
        # a box meeting [0.2, 4] in one point would draw that point every time
        ("kernel", "alpha = 0.0\nbox_lo = 4\nbox_hi = 10\n", "box_lo/box_hi"),
        ("kernel", "alpha = 0.0\nbox_lo = 0.05\nbox_hi = 0.2\n", "box_lo/box_hi"),
        # alpha fixes the dimension; there is no key for it
        ("basis", "alpha = 0.0\ndimension = 1\n", "unknown key 'dimension'"),
    ], ids=["alpha_below_range", "alpha_nan", "quad_order_0", "cutoff_negative",
            "gfun_cutoff_0", "verify_cutoff_0", "zeta_order_1", "zeta_levels_1",
            "box_hi_inf", "hTmod_d1", "hPmod_d1", "task_contradicts_command",
            "czscan_d5", "lemmas_d5", "kernel_box_below", "kernel_box_above",
            "verify_box_below", "verify_box_above", "kernel_box_at_top",
            "kernel_box_at_bottom", "dimension_key"])
    def test_invalid_config_exits_2(self, tmp_path, capsys, task, text, field):
        path = write_config(tmp_path, text + "seed = 1\ncount = 3\n")
        code = main([task, "--config", path, "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("task", list(cli.TASKS))
    def test_negative_seed_exits_2(self, tmp_path, capsys, task):
        # numpy rejects a negative seed with a traceback; validation names the key
        path = write_config(tmp_path, "alpha = 0.0\ncount = 3\n")
        code = main([task, "--config", path, "--seed", "-1", "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_verify_below_range_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "alpha = -0.9\nseed = 1\ncount = 3\n")
        code = main(["verify", "--config", path, "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "-1/2" in capsys.readouterr().err

    def test_verify_passes(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = str(tmp_path / "verify.csv")
        code = main(["verify", "--config", path, "--out", out, "--no-timestamp"])
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[1].startswith("t,")  # header row after the info line
        devs = [float(r.split(",")[-1]) for r in lines[2:] if r.split(",")[-1]]
        assert all(d <= 1e-6 for d in devs if d == d)

    def test_basis_task(self, tmp_path):
        path = write_config(tmp_path, "alpha = 0.3\ncutoff = 3\nquad_order = 32\n")
        out = str(tmp_path / "basis.csv")
        assert main(["basis", "--config", path, "--out", out, "--no-timestamp"]) == 0

    def test_czscan_refine_flag(self, tmp_path):
        path = write_config(
            tmp_path,
            "alpha = 0.0\nseed = 5\ncount = 6\nkind = dT\nzeta_order = 6\n"
            "zeta_levels = 16\nrefine = true\n",
        )
        out = str(tmp_path / "scan.csv")
        assert main(["czscan", "--config", path, "--out", out, "--no-timestamp"]) == 0

    def test_row_count_matches_sample_count(self, tmp_path):
        path = write_config(tmp_path, "alpha = 0.0\nseed = 3\ncount = 7\nkind = dT\nzeta_order = 6\nzeta_levels = 12\n")
        out = str(tmp_path / "scan.csv")
        assert main(["czscan", "--config", path, "--out", out, "--no-timestamp"]) == 0
        rows = [r for r in open(out).read().splitlines() if not r.startswith("#")][1:]
        assert len(rows) == 3 * 7  # growth + two smoothness scans

    def test_single_estimate_rows_equal_pairs(self, tmp_path):
        path = write_config(
            tmp_path,
            "alpha = -0.5\nseed = 3\ncount = 100\nkind = dT\nestimate = growth\n"
            "zeta_order = 6\nzeta_levels = 12\n",
        )
        out = str(tmp_path / "growth.csv")
        assert main(["czscan", "--config", path, "--out", out, "--no-timestamp"]) == 0
        rows = [r for r in open(out).read().splitlines() if not r.startswith("#")][1:]
        assert len(rows) == 100
        ratios = [float(r.split(",")[7]) for r in rows]
        assert all(np.isfinite(ratios))


class TestReproducibility:
    def test_byte_identical_reports(self, tmp_path):
        path = write_config(tmp_path, "alpha = 0.0\nseed = 9\ncount = 4\nkind = hT\nzeta_order = 6\nzeta_levels = 12\n")
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        assert main(["czscan", "--config", path, "--out", out1, "--no-timestamp"]) == 0
        assert main(["czscan", "--config", path, "--out", out2, "--no-timestamp"]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_rewrite_leaves_no_stale_tail(self, tmp_path):
        # a report is overwritten in place: a shorter one must not keep the
        # end of the longer one it replaces
        base = "alpha = 0.0\nseed = 9\nkind = dT\nzeta_order = 6\nzeta_levels = 12\n"
        for fmt in ("csv", "jsonl"):
            long_cfg = write_config(tmp_path, base + f"count = 6\nformat = {fmt}\n", "long.cfg")
            short_cfg = write_config(tmp_path, base + f"count = 2\nformat = {fmt}\n", "short.cfg")
            fresh = str(tmp_path / f"fresh.{fmt}")
            reused = str(tmp_path / f"reused.{fmt}")
            assert main(["czscan", "--config", short_cfg, "--out", fresh, "--no-timestamp"]) == 0
            assert main(["czscan", "--config", long_cfg, "--out", reused, "--no-timestamp"]) == 0
            long_size = os.path.getsize(reused)
            assert main(["czscan", "--config", short_cfg, "--out", reused, "--no-timestamp"]) == 0
            assert os.path.getsize(reused) < long_size
            assert open(reused, "rb").read() == open(fresh, "rb").read()

    def test_report_to_device(self, tmp_path):
        # a device cannot be cut to length; writing to it must still work
        path = write_config(tmp_path, "alpha = 0.0\nseed = 9\ncount = 2\nkind = dT\n"
                            "zeta_order = 6\nzeta_levels = 12\n")
        assert main(["czscan", "--config", path, "--out", os.devnull, "--no-timestamp"]) == 0

    def test_jsonl_format(self, tmp_path):
        import json

        # every task, so that no report column holds a type JSON cannot encode
        path = write_config(tmp_path, "alpha = 0.0\nseed = 9\ncount = 2\ncutoff = 4\n"
                            "quad_order = 32\nzeta_order = 6\nzeta_levels = 12\nformat = jsonl\n")
        for task, (_, columns) in cli.TASKS.items():
            out = str(tmp_path / f"{task}.jsonl")
            assert main([task, "--config", path, "--out", out, "--no-timestamp"]) == 0, task
            header, *records = (json.loads(line) for line in open(out).read().splitlines())
            assert "header" in header
            assert records, task
            assert all(list(rec) == columns for rec in records), task

    def test_threads_give_same_rows(self, tmp_path, monkeypatch):
        # one pair per span, so the six pairs are split over the workers
        monkeypatch.setattr(cli, "PAIR_BLOCK", 1)
        base = "alpha = 0.0\nseed = 9\ncount = 6\nkind = dP\nzeta_order = 6\nzeta_levels = 12\n"
        p1 = write_config(tmp_path, base + "threads = 1\n", "one.cfg")
        p2 = write_config(tmp_path, base + "threads = 3\n", "three.cfg")
        o1 = str(tmp_path / "t1.csv")
        o2 = str(tmp_path / "t3.csv")
        assert main(["czscan", "--config", p1, "--out", o1, "--no-timestamp"]) == 0
        assert main(["czscan", "--config", p2, "--out", o2, "--no-timestamp"]) == 0
        assert open(o1).read() == open(o2).read()

    def test_short_scan_starts_no_pool(self, tmp_path, monkeypatch):
        # fewer pairs than PAIR_BLOCK per worker: one span, run in the caller
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        count = 2 * cli.PAIR_BLOCK - 1
        p = write_config(tmp_path, f"alpha = 0.0\nseed = 9\ncount = {count}\nkind = dT\n"
                         "estimate = growth\nzeta_order = 4\nzeta_levels = 6\nthreads = 8\n")
        assert main(["czscan", "--config", p, "--out", str(tmp_path / "r.csv")]) == 0
