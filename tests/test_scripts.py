"""The stored experiment configs under ``configs/``, run through the CLI at
reduced sizes: each must validate and write the files of its dataset.  The
README's library quickstart runs as written."""
import json
import pathlib
import re

import pytest

from leafout.cli import main

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def run(name, out, *overrides):
    cfg = CONFIGS / f"{name}.json"
    task = json.loads(cfg.read_text())["task"]["name"]
    args = [a for kv in overrides for a in ("--set", kv)]
    return main([task, "--config", str(cfg), "--out", str(out), *args])


@pytest.mark.parametrize("cfg", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_stored_config_validates(cfg, capsys):
    assert main(["validate", "--config", str(CONFIGS / cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_uniform_landscape_script(tmp_path):
    assert run("uniform_path", tmp_path / "path", "task.n_samples=41") == 0
    assert len((tmp_path / "path" / "uniform_path.csv").read_text().splitlines()) == 42
    assert (tmp_path / "path" / "uniform_path.json").exists()
    classes = {}
    for rest in (0, 60, 150):
        out = tmp_path / f"rest{rest}"
        assert run("landscape", out, f"springs.rest_deg.rho_m={rest}",
                   f"springs.rest_deg.rho_b={-rest}") == 0
        assert (out / "landscape.csv").exists()
        classes[rest] = json.loads((out / "bistability.json").read_text())[
            "stability_class"]
    assert classes == {0: "monostable", 60: "bistable", 150: "multistable"}


def test_ratio_surface_script(tmp_path):
    assert run("ratio_surface", tmp_path, "task.grid_step_deg=12") == 0
    rows = (tmp_path / "ratio_surface.csv").read_text().splitlines()
    assert len(rows) == 1 + 15 * 15
    assert (tmp_path / "xi_zero_contour.json").exists()


def test_drop_map_script(tmp_path):
    assert run("drop_map", tmp_path, "task.n_h=8", "task.n_rest=4") == 0
    assert len((tmp_path / "trigger_map.csv").read_text().splitlines()) == 1 + 8 * 4
    contour = json.loads((tmp_path / "egap_zero_contour.json").read_text())
    assert len(contour["threshold_height_m"]) == 4


def test_multigrasp_script(tmp_path):
    assert run("multigrasp", tmp_path, "task.delta_rho_c_deg=2.0") == 0
    bundle = json.loads((tmp_path / "multigrasp_bundle.json").read_text())
    labels = [p["label"] for p in bundle["programs"]]
    assert labels == ["units-1", "units-1-2", "units-1-3", "units-1-2-3",
                      "units-1-2-3-4", "units-1-2-3-4-5"]
    for label in labels:
        assert (tmp_path / f"trace_{label}.csv").exists()


def test_readme_quickstart_runs():
    readme = (CONFIGS.parent / "README.md").read_text()
    section = readme.split("\n## Library quickstart\n")[1].split("\n## ")[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, "README.md", "exec"), {})
