import f0synth


def test_every_public_name_resolves():
    assert len(set(f0synth.__all__)) == len(f0synth.__all__)
    missing = [name for name in f0synth.__all__ if not hasattr(f0synth, name)]
    assert not missing
