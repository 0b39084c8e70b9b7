"""Fuzz gate for the scores-file and feature-file readers.

Mutated copies of valid files must either load or fail with the readers'
own errors: `CorpusFormatError` for a malformed file, and `FusionError` for
a scores table that is well formed but is no distribution. Examples are
derandomized, so every run checks the same inputs.
"""

import copy
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from densecap import (CorpusFormatError, FusionConfig, VideoMeta, load_features,
                      save_features)
from densecap.fusion import FusionError, load_scores, select_proposals
from densecap.synthetic import gen_synthetic, synthetic_grid

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# values a field may take in a hostile file: wrong types, non-finite and
# out-of-range numbers, integers past the float range, index-like strings,
# and containers of the wrong shape
JSON_VALUES = st.one_of(
    st.integers(), st.floats(),
    st.sampled_from([None, True, 0, -1, 10 ** 400, -10 ** 400, 1e308, -0.0, math.inf,
                     "", "0", "-1", "٣", "1e999", "NaN",
                     [], [0], [1, 0], [[0, 1]], [[1, 0]], ["0"], [None], {}, {"0": 1}]))

KEYS = st.sampled_from(["0", "1", "2", "9", "-1", "01", "٣", "99999999999999999999",
                        "x", "eos", "probs", "mode"])


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


@st.composite
def field_mutations(draw, doc):
    """`doc` with one to three fields replaced, deleted or renamed."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))[1:]
        if not paths:
            break
        path = paths[draw(st.integers(0, len(paths) - 1))]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "rename"]))
        if action == "replace":
            parent[path[-1]] = copy.deepcopy(draw(JSON_VALUES))  # later steps may edit it
        elif action == "delete" or isinstance(parent, list):
            del parent[path[-1]]
        else:
            parent[draw(KEYS)] = parent.pop(path[-1])
    return doc


@st.composite
def byte_mutations(draw, blob):
    """`blob` with a few bytes flipped, inserted or cut, or truncated."""
    blob = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(blob)))
        action = draw(st.sampled_from(["flip", "insert", "cut", "truncate"]))
        if action == "flip" and i < len(blob):
            blob[i] ^= 1 << draw(st.integers(0, 7))
        elif action == "insert":
            blob[i:i] = draw(st.binary(min_size=1, max_size=4))
        elif action == "cut":
            del blob[i:i + draw(st.integers(1, 4))]
        else:
            del blob[i:]
    return bytes(blob)


# ---------------------------------------------------------------------------
# scores files

_CORPUS = gen_synthetic(2, seed=1)
METAS = {vid: rec.meta for vid, rec in _CORPUS.videos.items()}
HEURISTIC = {"mode": "heuristic", "attractors": {
    vid: [[iv.start_s, iv.end_s] for iv in rec.annotation_sets[0].intervals]
    for vid, rec in _CORPUS.videos.items()}}
TABLES = {"mode": "tables", "videos": {
    "v1": {"candidates": [[0, 10], [10, 20], [20, 30]], "f_s": [0.9, 0.5, 0.4],
           "f_e_steps": [{"probs": {"0": 0.2, "1": 0.5, "2": 0.2}, "eos": 0.1},
                         {"probs": {"0": 0.3, "2": 0.1}, "eos": 0.6}]},
    "v2": {"candidates": [[0.5, 4.0], [1.0, 2.0]], "f_s": [1, 0.25],
           "f_e_steps": [{"probs": {"1": 3, "0": 1}, "eos": 0}]}}}


@FUZZ
@given(st.sampled_from([HEURISTIC, TABLES]).flatmap(field_mutations))
def test_scores_file_mutations_raise_only_reader_errors(tmp_path, doc):
    path = tmp_path / "scores.json"
    path.write_text(json.dumps(doc))
    try:
        select_proposals(load_scores(path), METAS, FusionConfig(k=2, candidate_cap=10))
    except (CorpusFormatError, FusionError):
        pass


# ---------------------------------------------------------------------------
# feature files

@pytest.fixture(scope="module")
def feature_files(tmp_path_factory):
    """Valid feature file bytes, binary and JSON, of one 4-segment video."""
    grid = synthetic_grid(VideoMeta("v1", 10.0), dim=3, seed=0)
    path = tmp_path_factory.mktemp("features") / "v1.feat"
    blobs = {}
    for binary in (True, False):
        save_features(grid, path, binary=binary)
        blobs[binary] = path.read_bytes()
    return blobs


def _split_binary(blob):
    (length,) = struct.unpack("<I", blob[4:8])
    return json.loads(blob[8:8 + length]), blob[8 + length:]


def _join_binary(header, payload):
    head = json.dumps(header).encode()
    return b"SEGF" + struct.pack("<I", len(head)) + head + payload


def _loads_or_format_error(path, blob):
    path.write_bytes(blob)
    try:
        grid = load_features(path)
    except CorpusFormatError:
        return
    assert np.isfinite(grid.features).all()


@FUZZ
@given(st.booleans(), st.data())
def test_feature_file_byte_mutations_raise_only_format_error(tmp_path, feature_files,
                                                            binary, data):
    blob = data.draw(byte_mutations(feature_files[binary]))
    _loads_or_format_error(tmp_path / "mutated", blob)


@FUZZ
@given(st.booleans(), st.data())
def test_feature_file_field_mutations_raise_only_format_error(tmp_path, feature_files,
                                                             binary, data):
    blob = feature_files[binary]
    if binary:
        header, payload = _split_binary(blob)
        blob = _join_binary(data.draw(field_mutations(header)), payload)
    else:
        blob = json.dumps(data.draw(field_mutations(json.loads(blob)))).encode()
    _loads_or_format_error(tmp_path / "mutated", blob)
