import pytest

from dlczsim.params import params_from_text


@pytest.mark.parametrize("key", ["bg1_coherent", "bg2_coherent", "bg1_incoherent",
                                 "bg2_incoherent"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
def test_background_means_must_be_finite_and_nonnegative(key, value):
    with pytest.raises(ValueError, match=key):
        params_from_text(f"{key} = {value}\n")
