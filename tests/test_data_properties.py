"""Property tests for score-file loading: hypothesis draws files of rows,
comments, blank lines, headers, malformed rows and lines that are not
UTF-8, with every line ending,
with and without a byte-order mark, and with the loader's chunk size
patched down so that files span many chunks, each loaded with and without
a ``like`` matrix whose keys follow the file's or depart from them.
``load_scores`` must return what a line-by-line restatement of README's
format rules returns, or raise the same ``path:line: message``."""

import contextlib
import hashlib
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_load_scores

from tiecal import ScoreFileError, ScoreMatrix, dump_scores, load_scores
from tiecal import data
from tiecal.cli import main

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=400)

# Ids with non-ASCII letters, spaces, separators text mode does not split
# lines at, and a system id that turns its row into a comment.
IDS = st.one_of(st.sampled_from(["a", "sysB", "\u00e9", "\u65e5\u672c", "x y", "", "#c",
                                 "a\u2028b", "\x0c"]),
                st.integers(0, 40).map(str))
VALID_SCORES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1", "-0", "+2", ".5", "3.", "1E3", "-1.25e-2", "0007", "1e-999"]))
BAD_SCORES = st.sampled_from([
    " 1", "1 ", "1_000", "\u0661", "\uff11.5", "1\x0c", "\x1c1", "1\x85", "", "abc", "0x10",
    "score", "nan", "-inf", "+Infinity", "1e999", "1,5",
    # float() refuses dotless and dotted capital I: "unparseable", not "non-finite"
    "\u0131nf", "\u0130NF"])
ROWS = st.tuples(IDS, IDS, VALID_SCORES).map("\t".join)
HEADER = "system\tsegment\tscore"
SKIPPED = st.sampled_from(["", " ", "\x0b\x1f\u3000", "\x85", "# note", "#\t\t"])
MALFORMED = st.one_of(
    st.tuples(IDS, IDS, BAD_SCORES).map("\t".join),
    st.tuples(IDS, IDS, BAD_SCORES).map("\t".join),
    # tab-only rows; a header, which is an error anywhere after the first row
    st.sampled_from(["\t", "\t\t", " \t \t", "\t\t\t", HEADER]),
    st.sampled_from([1, 2, 4]).flatmap(lambda n: st.lists(IDS, min_size=n, max_size=n))
    .map("\t".join),
    # bytes that are not UTF-8 (each surrogate escape writes one byte), in a
    # row, a comment, a line of their own, or a line with too few or too many
    # tabs, whose fault is still the byte
    st.sampled_from(["\udcff", "a\tb\t1\udcff", "#\udcc3", "x\udcc3\ty\t1", "\udce2\udc82",
                     "a\udcff\tb", "a\tb\tc\t\udcff", "\udcff\t\t"]),
)


# Scores float() reads that hold a byte besides 0-9 . e E + -: the loader's
# byte test refuses them, and must still name them as unparseable.
FLOAT_ONLY_SCORES = st.sampled_from(["1_0", "\u0661", "\uff11.5", " 1", "2\x0c", "3\u00a0"])


@st.composite
def score_files(draw):
    lines = draw(st.lists(st.one_of(ROWS, ROWS, ROWS, SKIPPED), max_size=30))
    if draw(st.booleans()):  # a header before the first row is skipped
        lines = [*draw(st.lists(SKIPPED, max_size=2)), HEADER, *lines]
    if lines and draw(st.booleans()):  # a repeated row is a duplicate
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(MALFORMED))
    fault = draw(st.sampled_from(["none", "1 and 3 tabs", "float-only score"]))
    at = draw(st.integers(0, len(lines)))
    if fault == "1 and 3 tabs":  # two tabs a line in all, but not on each line
        short = draw(st.tuples(IDS, VALID_SCORES).map("\t".join))
        long = draw(st.tuples(IDS, IDS, VALID_SCORES, VALID_SCORES).map("\t".join))
        lines[at:at] = draw(st.permutations([short, long]))
    elif fault == "float-only score":
        lines.insert(at, draw(st.tuples(IDS, IDS, FLOAT_ONLY_SCORES).map("\t".join)))
    endings = draw(st.one_of(
        st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)),
        st.just(["\r"] * len(lines))))  # only CR: no line ends at a \n
    text = "".join(line + end for line, end in zip(lines, endings))
    if lines and not draw(st.booleans()):  # no newline after the last line
        text = text.removesuffix(endings[-1])
    return ("\ufeff" if draw(st.booleans()) else "") + text


# Keys no drawn file holds.
NEW_KEYS = [("\x00new", str(i)) for i in range(3)]


@st.composite
def like_keys(draw, keys):
    """None, or the keys of a ``like`` matrix: ``keys`` in order, in another
    order, a prefix of them, a superset of them, or them with one changed."""
    kind = draw(st.sampled_from(["none", "same", "shuffled", "prefix", "superset", "changed"]))
    if kind == "none":
        return None
    if kind == "same":
        return keys
    if kind == "shuffled":
        return draw(st.permutations(keys))
    if kind == "prefix":
        return keys[:draw(st.integers(0, len(keys)))]
    if kind == "superset" or not keys:
        merged = list(keys)
        for key in draw(st.lists(st.sampled_from(NEW_KEYS), min_size=1, unique=True)):
            merged.insert(draw(st.integers(0, len(merged))), key)
        return merged
    changed = draw(st.integers(0, len(keys) - 1))
    return [*keys[:changed], NEW_KEYS[0], *keys[changed + 1:]]


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("scores") / "scores.tsv"


@PROFILE
@given(text=score_files(), chunk=st.sampled_from([1, 2, 7, 30, data._CHUNK_CHARS]),
       draw=st.data())
def test_load_scores_equals_line_oracle(path, text, chunk, draw):
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    expected = oracle_load_scores(path)
    if isinstance(expected, list):
        keys = [key for key, _ in expected]
    else:  # roughly the rows of a file with an error: its lines of three columns
        keys = list(dict.fromkeys(tuple(line.split("\t")[:2]) for line in text.splitlines()
                                  if line.count("\t") == 2))
    like = draw.draw(like_keys(keys))
    if like is not None:
        like = ScoreMatrix((system, segment, 0.0) for system, segment in like)
    with mock.patch("tiecal.data._CHUNK_CHARS", chunk), \
            mock.patch("tiecal.data._add_lines", wraps=data._add_lines) as line_retry, \
            mock.patch.object(ScoreMatrix, "with_scores", autospec=True,
                              side_effect=ScoreMatrix.with_scores) as sharing:
        try:
            matrix = load_scores(path, like=like)
            got = [((system, segment), score) for system, segment, score in matrix.items()]
        except ScoreFileError as exc:
            got = str(exc)
    assert got == expected
    # only a file with an error runs a chunk again line by line
    assert line_retry.called == isinstance(expected, str)
    # like's key list is shared exactly when the file lists like's keys in order
    shared = like is not None and isinstance(expected, list) and list(like.keys()) == keys
    assert sharing.called == shared
    if isinstance(expected, list) and like is not None:
        assert (matrix._keys is like._keys) == shared
    if isinstance(expected, str):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["perturb", "--metric", f"m={path}"]) == 2
        assert (out.getvalue(), err.getvalue()) == ("", f"error: {expected}\n")


@PROFILE
@given(text=score_files(), chunk=st.sampled_from([1, 2, 7, 30]))
def test_chunks_are_whole_lines_of_bounded_size(text, chunk):
    raw = text.encode("utf-8", "surrogateescape")
    hasher = hashlib.sha256()
    with mock.patch("tiecal.data._CHUNK_CHARS", chunk):
        chunks = list(data._line_chunks(io.BytesIO(raw), hasher))
    assert b"".join(chunks) == raw
    assert hasher.digest() == hashlib.sha256(raw).digest()
    # a chunk holds at most one read beyond the line it starts with, so a
    # file whose lines end at \r alone streams too
    longest = max(map(len, raw.splitlines(keepends=True)), default=0)
    assert all(0 < len(piece) <= chunk + longest for piece in chunks)
    for piece, following in zip(chunks, chunks[1:]):  # whole lines, and \r\n kept whole
        assert piece.endswith((b"\n", b"\r"))
        assert not (piece.endswith(b"\r") and following.startswith(b"\n"))


# dump_scores must reject, not write, a system id starting with '#' (its
# row would be a comment) and an id with a tab or line break.  Half the
# matrices draw ids without tabs and line breaks, so most of those round-trip.
WRITABLE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                   max_size=6)
DUMPABLE = st.text(st.one_of(st.characters(blacklist_categories=("Cs",)),
                             st.sampled_from("#\t\r\n")), max_size=6)
SCORES = st.floats(allow_nan=False, allow_infinity=False)


@PROFILE
@given(entries=st.one_of(st.dictionaries(st.tuples(WRITABLE, WRITABLE), SCORES, max_size=20),
                         st.dictionaries(st.tuples(DUMPABLE, DUMPABLE), SCORES, max_size=20)))
def test_dump_then_load_round_trips(path, entries):
    matrix = ScoreMatrix(entries)
    unwritable = [(system, segment) for system, segment in sorted(entries)
                  if system.startswith("#") or set(system + segment) & {"\t", "\r", "\n"}]
    if unwritable:
        with pytest.raises(ValueError) as info:
            dump_scores(matrix)
        system, segment = unwritable[0]
        assert f"system={system!r} segment={segment!r}" in str(info.value)
        return
    path.write_bytes(dump_scores(matrix))
    loaded = load_scores(path)
    assert list(loaded.items()) == sorted(matrix.items())
    assert [repr(score) for *_, score in loaded.items()] == \
        [repr(score) for *_, score in sorted(matrix.items())]
