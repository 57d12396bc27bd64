"""Round-trip properties of the package's codecs, checked on generated inputs.

The examples are derived from each test's name (``derandomize=True``) and
no example database is kept (``database=None``), so every run tries the
same inputs.  Hypothesis still caches Unicode tables and constants in
``.hypothesis/``, which git ignores.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from f0synth.featureio import (
    STD_FLOOR,
    Dataset,
    Gender,
    NormStats,
    Utterance,
    check_id,
    is_csv_field,
    load_manifest,
    read_csv,
    read_feature_file,
    write_csv,
    write_dataset,
    write_feature_file,
)
from f0synth.model import ModelParams, load_checkpoint, save_checkpoint

reproducible = settings(derandomize=True, database=None, deadline=None, max_examples=50)


def bits(values) -> bytes:
    """The exact bytes of an array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(values).tobytes()


def accepted(value: str) -> bool:
    try:
        check_id("utt_id", value)
    except ValueError:
        return False
    return True


# st.text()'s own alphabet (every code point but surrogates), named so that
# hypothesis does not scan the utf-8 codec, about 2 s when .hypothesis/ is empty.
code_points = st.characters(exclude_categories=("Cs",))
finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
finite64 = st.floats(allow_nan=False, allow_infinity=False)


@reproducible
@given(st.text(code_points, min_size=1, max_size=90).filter(accepted))
@example("x" * 250)
@example("é" * 125)
@example("..")
def test_accepted_id_names_its_feature_files(utt_id):
    utt = Utterance(utt_id, utt_id, Gender.F, np.array([120.0, 0.0], dtype=np.float32),
                    np.array([[1.0], [-0.0]], dtype=np.float32),
                    np.array([0.5], dtype=np.float32))
    with tempfile.TemporaryDirectory() as tmp:
        back = load_manifest(write_dataset(Dataset([utt]), tmp)).utterances
        names = sorted(p.name for p in (Path(tmp) / "features").iterdir())
    assert names == sorted(f"{utt_id}.{kind}" for kind in ("f0", "bn", "xvec"))
    assert [(u.utt_id, u.speaker_id) for u in back] == [(utt_id, utt_id)]
    for name in ("f0", "bn", "xvec"):
        assert bits(getattr(back[0], name)) == bits(getattr(utt, name))


# Two or more columns: a one-column row of one empty field is a blank line,
# which read_csv skips.
@reproducible
@given(st.integers(2, 6).flatmap(lambda width: st.lists(
    st.lists(st.text(code_points, max_size=8).filter(is_csv_field),
             min_size=width, max_size=width),
    max_size=6).map(lambda rows: (width, rows))))
def test_csv_rows_read_back(table):
    width, rows = table
    columns = tuple(f"c{i}" for i in range(width))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_csv(Path(tmp) / "table.csv", columns, rows)
        back = [fields for _, fields in read_csv(path, columns)]
    assert back == rows


@reproducible
@given(arrays(np.float32, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
              elements=finite32))
@example(np.array([-0.0, 0.0, 1e-45, -1e-45, 1.1754942e-38], dtype=np.float32))
@example(np.zeros((0, 3), dtype=np.float32))
def test_feature_file_round_trip_is_bit_equal(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/values.bn"
        write_feature_file(path, values)
        back = read_feature_file(path)
    assert back.shape == values.shape
    assert bits(back) == bits(values)


@st.composite
def checkpoints(draw):
    widths = [draw(st.integers(1, 4)), *draw(st.lists(st.integers(1, 4), min_size=1,
                                                       max_size=3)), 2]
    weights = [draw(arrays(np.float64, (out, inp), elements=finite64))
               for inp, out in zip(widths, widths[1:])]
    biases = [draw(arrays(np.float64, out, elements=finite64)) for out in widths[1:]]
    stds = st.floats(STD_FLOOR, 1e300)
    norm = NormStats(draw(arrays(np.float64, widths[0], elements=finite64)),
                     draw(arrays(np.float64, widths[0], elements=stds)),
                     draw(finite64), draw(stds))
    return ModelParams(weights, biases, norm), draw(st.floats(0.0, 0.5))


@reproducible
@given(checkpoints())
def test_checkpoint_round_trip_is_bit_equal(checkpoint):
    params, dropout = checkpoint
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.f0md"
        save_checkpoint(path, params, dropout=dropout)
        back, config = load_checkpoint(path)
    for got, want in zip(back.weights + back.biases, params.weights + params.biases,
                         strict=True):
        assert bits(got) == bits(want)
    for name in ("input_mean", "input_std", "logf0_mean", "logf0_std"):
        assert bits(getattr(back.norm, name)) == bits(getattr(params.norm, name))
    assert bits(config.dropout) == bits(dropout)
    assert config.hidden_sizes == [w.shape[0] for w in params.weights[:-1]]
