"""The scripts under scripts/ still run against the public API."""

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_collect_minima_writes_its_csv(tmp_path, capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "collect_minima", ROOT / "scripts" / "collect_minima.py")
    mod = importlib.util.module_from_spec(spec)
    # the script puts src/ on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(mod)
    out = tmp_path / "minima.csv"
    assert mod.main(["--cyclic", "7:3", "--sl2", "2,3", "--m-max", "4",
                     "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "family,p,f,group_order,center_order,module,dim,min_sub,min_quot,"
        "bound,scanned_to",
        "cyclic,7,1,3,3,chi0,1,3,3,3,3",
        "cyclic,7,1,3,3,chi1,1,1,1,3,3",
        "cyclic,7,1,3,3,chi2,1,2,2,3,3",
        "sl2,2,1,6,1,sym0,1,2,2,6,4",
        "sl2,2,1,6,1,sym1,2,1,1,6,4",
        "sl2,3,1,24,2,sym0,1,4,4,24,4",
        "sl2,3,1,24,2,sym1,2,1,1,24,4",
        "sl2,3,1,24,2,sym2,3,2,2,24,4",
    ]
    assert capsys.readouterr().out == f"8 rows written to {out}\n"
