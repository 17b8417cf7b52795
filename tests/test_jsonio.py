import numpy as np
import pytest

from skewbidisc import jsonio
from skewbidisc.colligation import SubspaceSplit, random_colligation
from skewbidisc.errors import ConfigError, ParseError
from skewbidisc.synthesis import BidiscModelSpec, PolyVectorMap, ScalarPoly


def test_complex_roundtrip():
    z = 1.5 - 2.25j
    assert jsonio.complex_from_json(jsonio.complex_to_json(z), "z") == z


@pytest.mark.parametrize(
    "obj",
    [
        {"re": 1.0},
        {"re": 1.0, "im": "x"},
        {"re": float("nan"), "im": 0.0},
        [1.0, 2.0],
        {"re": True, "im": False},
        {"re": 0.5, "im": True},
    ],
)
def test_complex_rejects_malformed(obj):
    with pytest.raises(ParseError):
        jsonio.complex_from_json(obj, "z")


def test_integers_too_large_for_a_float_are_parse_errors():
    huge = 10**400  # a 401-digit JSON integer
    assert jsonio.complex_from_json({"re": 3, "im": -2}, "z") == 3 - 2j
    for obj in ({"re": huge, "im": 0.0}, {"re": 0.0, "im": -huge}):
        with pytest.raises(ParseError, match=r"z\.(re|im): integer too large"):
            jsonio.complex_from_json(obj, "z")
    assert jsonio._real_number(7, "x") == 7.0
    with pytest.raises(ParseError, match="x: integer too large"):
        jsonio._real_number(-huge, "x")
    obj = jsonio.colligation_to_json(random_colligation(SubspaceSplit(1, 1), 0.5, seed=1))
    with pytest.raises(ParseError, match=r"colligation\.r: integer too large"):
        jsonio.colligation_from_json({**obj, "r": huge})
    obj["U"][1][0]["im"] = huge
    with pytest.raises(ParseError, match=r"colligation\.U\[1\]\[0\]\.im"):
        jsonio.colligation_from_json(obj)


class _Dict(dict):
    pass


@pytest.mark.parametrize(
    "entry",
    [
        {"re": 3, "im": -2},
        {"re": 0.5, "im": 10**400},
        {"re": 0.5, "im": True},
        {"re": float("inf"), "im": 0.0},
        {"re": 0.0, "im": float("nan")},
        {"re": 0.5},
        {"re": 0.5, "x": 0.5},
        {"re": 0.5, "im": 0.5, "x": 0.5},
        _Dict(re=0.5, im=-0.5),
        [0.5, 0.5],
        None,
    ],
)
def test_vector_decoding_agrees_with_the_strict_entry_decoder(entry):
    # Entries that the unchecked fast path does not take must still decode, or
    # fail, exactly as complex_from_json does at their location.
    good = jsonio.complex_to_json(0.25 - 1.5j)
    try:
        expected = jsonio.complex_from_json(entry, "v[2]")
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            jsonio.vector_from_json([good, good, entry, good], "v")
        assert str(got.value) == str(exc)
    else:
        vec = jsonio.vector_from_json([good, good, entry, good], "v")
        np.testing.assert_array_equal(vec, [0.25 - 1.5j, 0.25 - 1.5j, expected, 0.25 - 1.5j])


def test_matrix_roundtrip_and_ragged():
    m = np.array([[1.0, 2.0j], [3.0, 4.0]], dtype=complex)
    back = jsonio.matrix_from_json(jsonio.matrix_to_json(m), "m")
    np.testing.assert_array_equal(back, m)
    with pytest.raises(ParseError, match="ragged"):
        jsonio.matrix_from_json(
            [jsonio.vector_to_json([1.0]), jsonio.vector_to_json([1.0, 2.0])], "m"
        )


def test_colligation_roundtrip():
    c = random_colligation(SubspaceSplit(2, 1), 0.4, seed=0)
    back = jsonio.colligation_from_json(jsonio.colligation_to_json(c))
    assert back.r == c.r
    assert back.split == c.split
    assert back.a == c.a
    np.testing.assert_array_equal(back.D, c.D)
    np.testing.assert_array_equal(back.U, c.U)


def test_colligation_parse_failures():
    c = random_colligation(SubspaceSplit(1, 1), 0.5, seed=1)
    obj = jsonio.colligation_to_json(c)
    for broken in (
        {k: v for k, v in obj.items() if k != "gamma"},
        {**obj, "r": 1.5},
        {**obj, "d1": 7},
        {**obj, "U": obj["U"][:1]},
    ):
        with pytest.raises(ParseError):
            jsonio.colligation_from_json(broken)
    with pytest.raises(ParseError, match="finite number"):
        jsonio.colligation_from_json({**obj, "r": True})


def test_model_spec_roundtrip(lambda12_spec):
    spec = lambda12_spec()
    back = jsonio.model_spec_from_json(jsonio.model_spec_to_json(spec))
    assert back.r == spec.r
    assert (back.d1, back.d2) == (spec.d1, spec.d2)
    assert back.F.terms == spec.F.terms
    lam = (0.2, 0.3j)
    np.testing.assert_array_equal(back.u1.eval(lam), spec.u1.eval(lam))
    np.testing.assert_array_equal(back.u2.eval(lam), spec.u2.eval(lam))


def test_model_spec_rejects_bad_terms():
    good = jsonio.model_spec_to_json(
        BidiscModelSpec(
            r=0.5,
            d1=1,
            d2=1,
            u1=PolyVectorMap(dim=1, terms=(((0, 0), np.array([1.0])),)),
            u2=PolyVectorMap(dim=1, terms=()),
            F=ScalarPoly(()),
        )
    )
    with pytest.raises(ParseError):
        jsonio.model_spec_from_json({**good, "u1": [{"j": 0, "coeff": []}]})
    with pytest.raises(ParseError):
        jsonio.model_spec_from_json({**good, "F": [{"j": 0, "k": -1, "coeff": {"re": 1.0, "im": 0.0}}]})


def test_points_roundtrip(tmp_path):
    pts = [(0.1 + 0.2j, -0.3j), (0.0 + 0j, 0.5 + 0j)]
    path = tmp_path / "pts.json"
    jsonio.dump_json(jsonio.matrix_to_json(pts), path)
    back = [tuple(complex(z["re"], z["im"]) for z in pair) for pair in jsonio.load_json(path)]
    assert back == pts


def test_dump_json_failures_name_the_path(tmp_path):
    for path in (tmp_path / "missing" / "out.json", tmp_path):
        with pytest.raises(ConfigError, match=f"cannot write {path}"):
            jsonio.dump_json([], path)


def test_load_json_failures(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        jsonio.load_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        jsonio.load_json(bad)
