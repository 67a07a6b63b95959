"""Generated input files and flags through ``cli.main``: a report or a located diagnostic, always.

Valid inputs give a report, and the same report on stdout, in ``report.json`` and from the library.
"""

import contextlib
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from it2ipa import default_scale, fixtures
from it2ipa.cli import main
from it2ipa.report import PipelineConfig, run_pipeline
from it2ipa.writer import DELIMITED, REPORT_FORMATS, emit, json_chunks, sections
from helpers import it2_values

LABELS = default_scale().labels
# ASCII and other decimal digits, digits that are not decimal (No), and characters
# that a line splitter or a CSV reader could take for a row or field end.
ID_CHARS = "x_19٣²³¼①⑴ a,\"#\n\r\x00\x1c\u2028\u0085"
# Psychometrics ids and dimension names may also hold a lone surrogate, which a
# JSON file can only carry as an escape such as ``\ud800``.
NAME_CHARS = ID_CHARS + "\ud800"
# Endpoints at and just beyond the ends of [0, 1], and a few inside it.
ENDPOINTS = [0, 0.0, 1e-13, -1e-13, 1e-300, 0.1, 0.3, 0.5, 0.9, 1 - 1e-13, 1, 1.0, 1 + 1e-13]
HEIGHTS = [1, 1.0, 0.9, 0.5, 1e-300]
# Bytes spliced into a file: not UTF-8, NUL, separators, a quoted line break.
SPLICES = [b"\xff", b"\xe9", b"\x00", "\u2028".encode(), b"\x1c", b'"a\nb"', b"\r\n", b","]
SCORES = [1, 2, 5, 0, -1, 2.5, 1e10, -1e10, 1e-161, 1e308, True, "3", None]
# A section's threshold: one past the float range, ones that are not JSON numbers, two floats, none.
THRESHOLDS = [{"threshold": t} for t in (10**400, "0.7", True, None, float("inf"), 0.5)] + [{}]
# Scale term labels and values that are not JSON strings.
NOT_STRINGS = [None, 7, 0.5, True, ["x"], {"x": 1}]


@st.composite
def fuzzy_text(draw) -> str:
    """Mostly well-formed values, some with endpoints out of order or out of [0, 1] by a nudge."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(alphabet="(),;0.1e-+ ", max_size=12))
    end = draw(st.sampled_from([None, 0, 1]))
    if end is None:
        ends = sorted(draw(st.lists(st.sampled_from(ENDPOINTS), min_size=8, max_size=8)))
    else:  # squeezed at one end of [0, 1], with one or two endpoints a nudge away from it
        ends = [end] * 8
        for k in draw(st.lists(st.integers(0, 7), min_size=1, max_size=2)):
            ends[k] += draw(st.sampled_from([1e-13, -1e-13]))
        ends.sort()
    i, j = draw(st.sampled_from([(0, 0), (0, 2), (5, 7), (1, 2), (3, 4)]))
    ends[i], ends[j] = ends[j], ends[i]
    h = sorted(draw(st.lists(st.sampled_from(HEIGHTS), min_size=4, max_size=4)))
    upper, lower = ends[:2] + ends[6:] + h[2:], ends[2:6] + h[:2]
    return "(({},{},{},{};{},{}),({},{},{},{};{},{}))".format(*map(repr, upper + lower))


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


factor_ids = st.lists(st.text(alphabet=ID_CHARS, max_size=5), min_size=1, max_size=3)


@st.composite
def ratings_file(draw) -> str:
    ids = draw(factor_ids)
    experts = draw(st.integers(1, 3))
    cells = st.one_of(st.sampled_from(LABELS), st.sampled_from(LABELS).map(str.upper),
                      st.sampled_from(["", " low ", "Very  High", "medium\u2028"]))
    lines = ["factor_id,name,facet," + ",".join(f"E{j}" for j in range(experts))]
    for fid in ids:
        for facet in ("importance", "performance"):
            row = [draw(cells) for _ in range(experts)]
            lines.append(",".join([_quoted(fid), "n", facet] + [_quoted(c) for c in row]))
    return "\n".join(lines) + "\n"


@st.composite
def aggregated_file(draw) -> str:
    ids = draw(factor_ids)
    lines = ["factor_id,dimension,importance,performance"]
    for fid in ids:
        lines.append(",".join([_quoted(fid), "d", _quoted(draw(fuzzy_text())),
                               _quoted(draw(fuzzy_text()))]))
    return "\n".join(lines) + "\n"


@st.composite
def scale_file(draw) -> str:
    terms = [{"label": label, "value": value.to_text()} for label, value in default_scale().terms]
    for _ in range(draw(st.integers(0, 2))):
        terms[draw(st.integers(0, len(terms) - 1))]["value"] = draw(fuzzy_text())
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(["label", "value"]))
        terms[draw(st.integers(0, len(terms) - 1))][key] = draw(st.sampled_from(NOT_STRINGS))
    return json.dumps({"terms": terms})


@st.composite
def psychometrics_file(draw) -> str:
    doc = {}
    if draw(st.booleans()):
        ids = draw(st.lists(st.text(alphabet=NAME_CHARS, max_size=4), max_size=3))
        doc["content_validity"] = {
            "panel_size": draw(st.sampled_from([0, 1, 11, 2.0, 2.5, -1, True])),
            "essential_counts": {i: draw(st.sampled_from([0, 1, 5, 12, -1])) for i in ids},
        }
    if draw(st.booleans()):
        rows, items = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        grid = [[draw(st.sampled_from(SCORES)) for _ in range(items)] for _ in range(rows)]
        doc["reliability"] = {"dimensions": {draw(st.text(alphabet=NAME_CHARS, max_size=3)): grid}}
    for section in doc.values():
        section.update(draw(st.sampled_from(THRESHOLDS)))
    # the file text is encoded to bytes, so the surrogate goes in as its JSON escape
    return json.dumps(doc, ensure_ascii=False).replace("\ud800", "\\ud800")


@st.composite
def spliced(draw, text: st.SearchStrategy) -> bytes:
    data = draw(text).encode()
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(SPLICES)) + data[at:]
    return data


@st.composite
def invocations(draw) -> tuple[list[str], dict[str, bytes]]:
    """CLI arguments with ``{dir}`` for the work directory, and the files they name.

    The directory is spelled one of three ways that name it alike.
    """
    files, argv = {}, []
    at = draw(st.sampled_from(["{dir}/", "{dir}/./", "{dir}//"]))
    source = draw(st.sampled_from(["bundled", "ratings", "aggregated"]))
    if source == "ratings":
        files["ratings.csv"] = draw(spliced(ratings_file()))
        argv += ["--ratings", at + "ratings.csv"]
    elif source == "aggregated":
        files["aggregated.csv"] = draw(spliced(aggregated_file()))
        argv += ["--aggregated", at + "aggregated.csv"]
    if draw(st.booleans()):
        files["scale.json"] = draw(spliced(scale_file()))
        argv += ["--scale", at + "scale.json"]
    if draw(st.booleans()):
        files["psychometrics.json"] = draw(spliced(psychometrics_file()))
        argv += ["--psychometrics", at + "psychometrics.json"]
    cuts = ["0.3333,0.6667", "0.2,0.5", "1e-13,0.9999999999999"]
    argv += ["--thresholds", draw(st.sampled_from(cuts))]
    argv += ["--partition-mode", draw(st.sampled_from(["region", "comparison"]))]
    argv += ["--cffs-mode", draw(st.sampled_from(["as_computed", "as_written"]))]
    if draw(st.booleans()):
        argv += ["--out", at + "out"]
        for fmt in draw(st.lists(st.sampled_from(["structured", "delimited", "svg-map"]), max_size=3)):
            argv += ["--format", fmt]
    return argv, files


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


# Derandomized, so that every run tries the same inputs; raise max_examples to search further.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(invocations())
def test_every_run_gives_a_report_or_a_located_diagnostic(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as work:
        for name, data in files.items():
            Path(work, name).write_bytes(data)
        argv = [arg.format(dir=work) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            report = Path(work, "out", "report.json")
            if "--out" not in argv:
                json.loads(out.getvalue(), parse_constant=_reject_constant)
            elif report.exists():
                json.loads(report.read_text(), parse_constant=_reject_constant)
        else:
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error: ")]
            assert code == 2 and len(errors) == 1, err.getvalue()
            file = json.loads(errors[0].removeprefix("error: "))["file"]
            flags = dict(zip(argv[::2], argv[1::2]))  # every flag here takes a value
            inputs = [flags[f] for f in ("--ratings", "--aggregated", "--scale", "--psychometrics")
                      if f in flags]
            if not {"--ratings", "--aggregated"} & flags.keys():
                inputs.append(str(fixtures.aggregated_path()))
            # an input file exactly as written, or a report file under --out
            assert file in inputs or (
                "--out" in flags and Path(file).parent == Path(flags["--out"])
            ), errors[0]


# Ids that read as the same number (x1, x01, x١), one with a digit that is not a
# decimal, and ids from a few safe characters.
VALID_IDS = st.sampled_from(["x1", "x01", "x\u0661", "x\u00b2"]) | st.text(
    alphabet="xy_01\u0661\u00b2 a-", min_size=1, max_size=4
).map(str.strip).filter(lambda i: i and not i.startswith("#"))
VALID_NAME_CHARS = st.characters(blacklist_categories=("Cs",))
# Supports inside one map band each at the default cuts, from 0.01 so that an
# as_computed failure score always has a divisor.
BANDS = [(0.01, 0.3), (0.36, 0.63), (0.7, 1.0)]


@st.composite
def valid_aggregated_file(draw) -> str:
    """One to four factors; in one file of four, each factor's importance is its performance."""
    ids = draw(st.lists(VALID_IDS, min_size=1, max_size=4, unique=True))
    balanced = draw(st.sampled_from([False, False, False, True]))
    lines = ["factor_id,importance,performance"]
    for fid in ids:
        band = draw(st.integers(0, 2))
        importance = draw(it2_values(*BANDS[band]))
        # another band first, so that most files have candidates to score and rank
        shift = draw(st.sampled_from([1, 2, 0]))
        performance = importance if balanced else draw(it2_values(*BANDS[(band + shift) % 3]))
        lines.append(",".join([_quoted(fid), _quoted(importance.to_text()),
                               _quoted(performance.to_text())]))
    return "\n".join(lines) + "\n"


@st.composite
def valid_psychometrics_file(draw) -> str:
    panel = draw(st.integers(1, 20))
    ids = draw(st.lists(st.text(alphabet=VALID_NAME_CHARS, max_size=4), max_size=3))
    names = draw(st.lists(st.text(alphabet=VALID_NAME_CHARS, max_size=4), min_size=1, max_size=2,
                          unique=True))
    grids = {}
    for name in names:
        rows, items = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        # the first item sets each respondent's total apart, so the total variance is not 0
        grids[name] = [[100 * i] + [draw(st.integers(0, 9)) for _ in range(items - 1)]
                       for i in range(rows)]
    return json.dumps({
        "content_validity": {"panel_size": panel,
                             "essential_counts": {i: draw(st.integers(0, panel)) for i in ids}},
        "reliability": {"dimensions": grids},
    })


def _main(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return code, stdout.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(valid_aggregated_file(), st.none() | valid_psychometrics_file(),
       st.sampled_from(["region", "comparison"]), st.sampled_from(["as_computed", "as_written"]))
def test_every_valid_input_gives_the_same_report_everywhere(aggregated, psychometrics,
                                                            partition_mode, cffs_mode):
    with tempfile.TemporaryDirectory() as work:
        agg, psy, out = Path(work, "aggregated.csv"), Path(work, "psychometrics.json"), Path(work, "out")
        agg.write_text(aggregated, encoding="utf-8")
        argv = ["--aggregated", str(agg), "--partition-mode", partition_mode, "--cffs-mode", cffs_mode]
        if psychometrics is not None:
            psy.write_text(psychometrics, encoding="utf-8")
            argv += ["--psychometrics", str(psy)]
        code, text = _main(argv)
        assert code == 0
        code, listing = _main(argv + ["--out", str(out),
                                      *(arg for fmt in REPORT_FORMATS for arg in ("--format", fmt))])
        assert code == 0 and listing.splitlines()[0] == str(out / "report.json")
        assert text.encode() == (out / "report.json").read_bytes()

        report = run_pipeline(PipelineConfig(partition_mode=partition_mode, cffs_mode=cffs_mode),
                              aggregated_path=agg,
                              psychometrics_path=psy if psychometrics is not None else None)
        doc = report.to_structured()
        assert ("".join(json_chunks(sections(report)))
                == json.dumps(doc, indent=2, allow_nan=False) + "\n" == text)


# Python 3.10's csv reader refuses NUL, so there the ids leave it out. Each id
# starts and ends with x, so that the parsers keep it as it is.
CSV_ID_CHARS = ID_CHARS if sys.version_info >= (3, 11) else ID_CHARS.replace("\x00", "")
csv_ids = st.text(alphabet=CSV_ID_CHARS, max_size=4).map(lambda text: f"x{text}x")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(csv_ids, min_size=1, max_size=4, unique=True), st.data())
def test_delimited_files_read_back_as_the_report_fields(ids, data):
    lines = ["factor_id,name,dimension,importance,performance"]
    for fid in ids:
        band = data.draw(st.integers(0, 2))
        importance, performance = (data.draw(it2_values(*BANDS[b])) for b in (band, (band + 1) % 3))
        lines.append(",".join(map(_quoted, [fid, fid[::-1], data.draw(csv_ids),
                                            importance.to_text(), performance.to_text()])))
    psychometrics = {
        "content_validity": {"panel_size": 4, "essential_counts": dict.fromkeys(ids, 3)},
        "reliability": {"dimensions": {fid: [[0, 1], [100, 2], [200, 4]] for fid in ids}},
    }
    with tempfile.TemporaryDirectory() as work:
        agg, psy = Path(work, "aggregated.csv"), Path(work, "psychometrics.json")
        agg.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
        psy.write_text(json.dumps(psychometrics), encoding="utf-8")
        report = run_pipeline(PipelineConfig(), aggregated_path=agg, psychometrics_path=psy)
        columns = {}
        for path in emit(report, Path(work, "out"), [DELIMITED]):
            if path.endswith(".csv"):
                with open(path, encoding="utf-8", newline="") as handle:
                    header, *rows = csv.reader(handle)
                assert {len(row) for row in rows} <= {len(header)}, path
                columns[os.path.basename(path)] = dict(zip(header, zip(*rows)))

        profiles = report.profiles
        for name in ("aggregated.csv", "defuzzified.csv"):
            assert columns[name]["factor_id"] == tuple(p.factor.id for p in profiles)
            assert columns[name]["name"] == tuple(p.factor.name for p in profiles)
            assert columns[name]["dimension"] == tuple(p.factor.dimension for p in profiles)
        assert columns["aggregated.csv"]["importance"] == tuple(p.w_fuzzy.to_text(3) for p in profiles)
        for kind, ranking in report.rankings.items():
            assert columns[f"scores_{kind}.csv"].get("factor_id", ()) == tuple(
                p.factor.id for p in report.candidates[kind])
            assert columns[f"ranking_{kind}.csv"].get("factor_id", ()) == tuple(
                rf.factor.id for rf in ranking)
        summary = report.psychometrics
        assert columns["psychometrics.csv"]["id"] == tuple(
            [row[0] for row in summary.components] + [row[0] for row in summary.dimensions])
        # and it2ipa --aggregated reads aggregated.csv back
        again = run_pipeline(PipelineConfig(), aggregated_path=Path(work, "out", "aggregated.csv"))
        assert [p.factor for p in again.profiles] == [p.factor for p in profiles]
