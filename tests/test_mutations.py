"""Wrong programs that `lps verify` must reject: the mutation table of ROADMAP item 21.

Each row patches one fact of one square function in this process, with
monkeypatch, and runs a small seeded `lps verify`, which must exit 1.  A row
that no CLI check can see yet is a strict xfail naming the item that closes
it, so the suite fails once a check starts to catch it.
"""

import pytest

from lps import cli, gfunctions
from lps.kernels import KernelKind

CONFIG = "alpha = 0, -0.5\ncount = 4\ncutoff = 5\nquad_order = 32\nbox_hi = 2\n"


def _time_power(tag: str, power: int):
    def mutate(monkeypatch):
        right = KernelKind.time_power
        monkeypatch.setattr(KernelKind, "time_power", property(
            lambda kind: power if kind.tag == tag else right.fget(kind)))
    return mutate


def _multiplier(tag: str, factor: float):
    def mutate(monkeypatch):
        right = gfunctions._modes

        def scaled(kind, alpha, idx, coeffs):
            nus, mults = right(kind, alpha, idx, coeffs)
            return nus, mults * factor if kind.tag == tag else mults

        monkeypatch.setattr(gfunctions, "_modes", scaled)
    return mutate


MUTATIONS = [
    pytest.param(_time_power("hT", 2), id="hT-time-power-2"),
    pytest.param(_multiplier("hT", 1.1), id="hT-multiplier-1.1"),
    pytest.param(_multiplier("hP", 1.1), id="hP-multiplier-1.1", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 21: verify has no Poisson horizontal check yet")),
]


def _verify(tmp_path) -> int:
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    return cli.main(["verify", "--config", str(cfg), "--seed", "11", "--no-timestamp",
                     "--out", str(tmp_path / "r.csv")])


def test_right_program_passes(tmp_path):
    assert _verify(tmp_path) == 0


@pytest.mark.parametrize("mutate", MUTATIONS)
def test_verify_rejects_mutation(tmp_path, monkeypatch, capsys, mutate):
    mutate(monkeypatch)
    assert _verify(tmp_path) == 1
    assert "check=horizontal_heat_sum" in capsys.readouterr().err
