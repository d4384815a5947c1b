"""Argument checks at the library boundary.

Every public record and function that takes a flag, a number or an int
refuses a value of the wrong kind with a DataError that names the field and
the value, never a TypeError or an OverflowError, and never accepts it; numpy
scalars of the right kind stay accepted.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baselcost import (
    PAPER_PRESET,
    DataError,
    NsfrWeights,
    PanelDataset,
    RegressionSpec,
    ScenarioInput,
    fit_system,
    phase_in_scenario,
    propagate_shock,
    required_deltas,
    simulate_panel,
)
PANEL = simulate_panel(PAPER_PRESET, 3, 3, 0.1, 1)

# (field named in the message, kind of value wanted, call taking the value)
SITES = [
    ("fixed_effects", "flag", lambda v: RegressionSpec("y", ("x",), fixed_effects=v)),
    ("small_sample", "flag", lambda v: RegressionSpec("y", ("x",), small_sample=v)),
    ("dk_bandwidth", "int", lambda v: RegressionSpec("y", ("x",), dk_bandwidth=v)),
    ("small_sample", "flag", lambda v: fit_system(PANEL, small_sample=v)),
    ("dk_bandwidth", "int", lambda v: fit_system(PANEL, dk_bandwidth=v)),
    *[(f.name, "real", lambda v, name=f.name: replace(PAPER_PRESET, **{name: v}))
      for f in fields(PAPER_PRESET) if f.name != "provenance"],
    ("delta_cap", "real", lambda v: ScenarioInput(delta_cap=v)),
    ("delta_liq", "real", lambda v: ScenarioInput(delta_liq=v)),
    ("delta_lgdp", "real", lambda v: ScenarioInput(mode="exogenous", delta_lgdp=v)),
    ("n_banks", "int", lambda v: simulate_panel(PAPER_PRESET, v, 3, 0.1, 1)),
    ("n_years", "int", lambda v: simulate_panel(PAPER_PRESET, 3, v, 0.1, 1)),
    ("noise_sd", "real", lambda v: simulate_panel(PAPER_PRESET, 3, 3, v, 1)),
    ("seed", "int", lambda v: simulate_panel(PAPER_PRESET, 3, 3, 0.1, v)),
    ("from_year", "int", lambda v: required_deltas(v, 2019)),
    ("to_year", "int", lambda v: required_deltas(2015, v)),
    ("from_year", "int", lambda v: phase_in_scenario(PAPER_PRESET, from_year=v)),
    ("to_year", "int", lambda v: phase_in_scenario(PAPER_PRESET, to_year=v)),
    ("delta_liq_per_year", "real",
     lambda v: phase_in_scenario(PAPER_PRESET, delta_liq_per_year=v)),
    *[(f.name, "real", lambda v, name=f.name: NsfrWeights(**{name: v}))
      for f in fields(NsfrWeights)],
    ("periods", "int", lambda v: PanelDataset(("B01",), (v,))),
]

# For each kind wanted, the wrong kinds of value that must be refused.
TEXT = st.text(max_size=8).filter(lambda s: s != "auto")  # "auto" is a dk_bandwidth
NP_BOOL = st.sampled_from([np.True_, np.False_])
WRONG = {
    "flag": {"str": TEXT, "int": st.integers(-2, 2), "none": st.none()},
    "real": {"bool": st.booleans(), "np-bool": NP_BOOL, "str": TEXT,
             "huge-int": st.just(10**400) | st.integers(min_value=2**1024)
             | st.integers(max_value=-2**1024)},
    "int": {"bool": st.booleans(), "np-bool": NP_BOOL, "str": TEXT,
            "float": st.floats().filter(lambda x: not x.is_integer())},
}
CASES = [(field, call, wrong, strategy)
         for field, kind, call in SITES for wrong, strategy in WRONG[kind].items()]


@pytest.mark.parametrize("field, call, wrong, strategy", CASES,
                         ids=[f"{field}-{wrong}" for field, _, wrong, _ in CASES])
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_wrong_kind_is_a_data_error_naming_the_field(field, call, wrong, strategy, data):
    value = data.draw(strategy)
    with pytest.raises(DataError) as info:
        call(value)
    assert field in str(info.value) and repr(value) in str(info.value)


def test_numpy_scalars_of_the_right_kind_are_accepted():
    ds = simulate_panel(PAPER_PRESET, np.int64(5), 5, np.float64(0.1), np.int64(1))
    plain = simulate_panel(PAPER_PRESET, 5, 5, 0.1, 1)
    assert ds.periods == plain.periods == (2010, 2011, 2012, 2013, 2014)
    assert all(np.array_equal(ds.columns[c], plain.columns[c]) for c in plain.columns)
    shock = ScenarioInput(delta_cap=np.float64(1.0))
    assert propagate_shock(PAPER_PRESET, shock).delta_spread == PAPER_PRESET.spread_cap
    assert PanelDataset(("B01",), tuple(range(2010, 2015))).periods == tuple(range(2010, 2015))
    assert RegressionSpec("y", ("x",), dk_bandwidth=np.int64(1)).dk_bandwidth == 1
