"""The contract of the result records: slotted classes whose fields,
declared once in ``__slots__``, are in order the constructor's positional
parameters, with identity equality and the certificates' ``kind`` strings."""

import inspect

import pytest

from affinespectra.classify import (
    Classification,
    ConditionOnly,
    Conditions,
    HadamardCertificate,
    WitnessCertificate,
)
from affinespectra.conjugation import BlockDecomposition, CompanionConjugation
from affinespectra.evidence import AttractorSample, CliqueReport, CompletenessReport
from affinespectra.fourier import MuHatValue, OrthogonalityCertificate, Witness

RECORDS = [
    (Conditions, ("r", "det_m1", "gcd_q_detm1", "q_divides_detm1", "pure_power_c")),
    (HadamardCertificate, ("triple",)),
    (WitnessCertificate, ("witness",)),
    (ConditionOnly, ("note",)),
    (Classification, ("verdict", "conditions", "certificate", "reasons")),
    (CompanionConjugation, ("b", "m_tilde", "v_tilde")),
    (BlockDecomposition, ("b", "b_inv", "r", "m1", "c", "m2", "x", "m2_char_poly")),
    (Witness, ("alpha", "ell", "phase", "image", "verified")),
    (OrthogonalityCertificate, ("lambda1", "lambda2", "j", "phase")),
    (MuHatValue, ("value", "error", "factors")),
    (CliqueReport, ("lattice_denominator", "box_radius", "max_clique_size", "witness_set", "certified")),
    (CompletenessReport, ("depth", "tail_eps", "probes", "defects")),
    (AttractorSample, ("points", "iterations", "seed", "radius")),
]


@pytest.mark.parametrize("cls, names", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_contract(cls, names):
    assert cls.__slots__ == names
    assert list(inspect.signature(cls).parameters) == list(names)
    values = [object() for _ in names]
    for record in (cls(*values), cls(**dict(zip(names, values)))):
        assert [getattr(record, name) for name in names] == values
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.unknown_field = 1
    a, b = cls(*values), cls(*values)
    assert a == a and a != b
    assert len({a, b}) == 2 and hash(a) == hash(a)


def test_record_class_attributes():
    assert HadamardCertificate.kind == "hadamard"
    assert WitnessCertificate.kind == "witness"
    assert ConditionOnly.kind == "condition-only"
    assert Witness(1, 2, 3, 4).verified is False
    assert isinstance(BlockDecomposition.block, property)
