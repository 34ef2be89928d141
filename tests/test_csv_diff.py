import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "csv_diff.py"
_SPEC = importlib.util.spec_from_file_location("csv_diff", _PATH)
csv_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(csv_diff)

HEADER = "problem,P,solver,estimator,iteration,error,wall_ns\n"
OLD = HEADER + (
    "f1,10,gd,ang,0,2.5,100\n"
    "f1,10,gd,ang,1,1.25,100\n"
    "f2,10,gd,aug,0,4.0,200\n"
    "f2,10,gd,aug,1,0.001,200\n"
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_equal_files_but_for_wall_ns(tmp_path, capsys):
    new = OLD.replace(",100\n", ",999\n")
    assert csv_diff.main([_write(tmp_path, "a.csv", OLD), _write(tmp_path, "b.csv", new)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["estimator rows differing", "ang 2 0", "aug 2 0"]
    assert out[3] == "largest absolute difference: 0.000e+00 at -"
    assert out[4] == "largest relative difference: 0.000e+00 at -"


def test_differences_are_counted_per_estimator_with_their_keys(tmp_path, capsys):
    # 4.0 -> 4.5 is the largest absolute difference, 0.001 -> 0.002 the
    # largest relative one
    new = OLD.replace("f2,10,gd,aug,0,4.0", "f2,10,gd,aug,0,4.5").replace(
        "aug,1,0.001", "aug,1,0.002")
    assert csv_diff.main([_write(tmp_path, "a.csv", OLD), _write(tmp_path, "b.csv", new)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:3] == ["ang 2 0", "aug 2 2"]
    assert out[3] == "largest absolute difference: 5.000e-01 at f2,10,gd,aug,0"
    assert out[4] == "largest relative difference: 1.000e+00 at f2,10,gd,aug,1"


def test_different_keys_exit_1(tmp_path, capsys):
    new = OLD.replace("f1,10,gd,ang,1,", "f1,10,gd,ang,2,")
    assert csv_diff.main([_write(tmp_path, "a.csv", OLD), _write(tmp_path, "b.csv", new)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "ang 1 0"  # only the shared keys are compared
    assert out[-1].startswith("keys differ: 1 only in ") and ", 1 only in " in out[-1]


def _output_dir(tmp_path, name, csv_text, plots):
    """A hand-made ``valgrad run`` output directory: results.csv and the
    given {name: bytes} under plots/."""
    out = tmp_path / name
    (out / "plots").mkdir(parents=True)
    (out / "results.csv").write_text(csv_text)
    for plot, data in plots.items():
        (out / "plots" / plot).write_bytes(data)
    return str(out)


def test_output_directories_compare_csv_and_plot_bytes(tmp_path, capsys):
    old = _output_dir(tmp_path, "old", OLD, {"f1_P10.svg": b"<svg/>", "f2_P10.svg": b"<svg>a"})
    new = _output_dir(tmp_path, "new", OLD.replace(",100\n", ",7\n"),
                      {"f1_P10.svg": b"<svg/>", "f2_P10.svg": b"<svg>b"})
    assert csv_diff.main([old, new]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["estimator rows differing", "ang 2 0", "aug 2 0"]
    assert out[5:] == ["plots compared 2 differing 1", "plot differs: f2_P10.svg"]


def test_output_directories_with_different_plot_names_exit_1(tmp_path, capsys):
    old = _output_dir(tmp_path, "old", OLD, {"f1_P10.svg": b"<svg/>", "f2_P10.svg": b"<svg/>"})
    new = _output_dir(tmp_path, "new", OLD, {"f1_P10.svg": b"<svg/>"})
    assert csv_diff.main([old, new]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[5] == "plots compared 1 differing 0"
    assert out[6] == f"plots differ: 1 only in {old}, 0 only in {new}"
