from dataclasses import asdict, replace

import numpy as np
import pytest

from tacholess import FramingConfig, GroundTruth, ScenarioSpec, synthesize
from tacholess.synth import SCENARIOS
from props import check_synth_determinism
from oracles import naive_synthesize


def band_energy(x, fs, f_lo, f_hi):
    mag = np.abs(np.fft.rfft(x))
    freqs = np.arange(len(mag)) * fs / len(x)
    sel = (freqs >= f_lo) & (freqs <= f_hi)
    return float(np.sum(mag[sel] ** 2))


def test_scenario_codes():
    assert SCENARIOS == ("S0", "S1", "S2", "S3", "S4", "S5")
    with pytest.raises(ValueError, match="unknown scenario"):
        ScenarioSpec(scenario="S9")


def test_spec_defaults():
    spec = ScenarioSpec()
    assert spec.duration_s == 5.0
    assert spec.sample_rate_hz == 12800.0
    assert spec.base_rpm == 1500.0
    assert spec.n_harmonics == 5
    assert np.allclose(spec.amps(), 1.0 / np.arange(1, 6))
    assert spec.snr_db is None  # S0 stays clean by default


def test_spec_validation():
    with pytest.raises(ValueError, match="alpha"):
        ScenarioSpec(scenario="S3", alpha=4.0)
    with pytest.raises(ValueError, match="jump_time"):
        ScenarioSpec(scenario="S5", jump_time_s=6.0)
    with pytest.raises(ValueError, match="harmonic_amps"):
        ScenarioSpec(harmonic_amps=(1.0, 0.5))
    with pytest.raises(ValueError):
        ScenarioSpec(duration_s=0.0)
    with pytest.raises(ValueError):
        ScenarioSpec(wobble_fraction=1.5)
    assert ScenarioSpec(scenario="S2").snr_db == 0.0


@pytest.mark.parametrize("name", ["duration_s", "sample_rate_hz", "base_rpm",
                                  "wobble_period_s"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
def test_spec_rejects_non_finite_and_non_positive_values(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        ScenarioSpec(**{name: value})


@pytest.mark.parametrize("name", ["alpha", "snr_db"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_spec_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ScenarioSpec(scenario="S3", **{name: value})


def test_spec_round_trips_through_dict():
    spec = ScenarioSpec(scenario="S4", seed=9, harmonic_amps=(1.0, 0.4, 0.2, 0.1, 0.05),
                        detuning=(0.0, 0.01, -0.01, 0.02, -0.02))
    again = ScenarioSpec(**asdict(spec))
    assert again == spec


@pytest.mark.parametrize("scenario", ["S0", "S4"])
@pytest.mark.parametrize("name", ["harmonic_amps", "detuning"])
@pytest.mark.parametrize("n", [2, 7])
def test_spec_refuses_per_harmonic_tuples_of_the_wrong_length(scenario, name, n):
    with pytest.raises(ValueError, match=f"{name} has {n} entries for 5 harmonics"):
        ScenarioSpec(scenario=scenario, **{name: (1.0,) + (0.01,) * (n - 1)})


@pytest.mark.parametrize("n_harmonics", [3, 5, 7])
def test_default_detuning_serves_any_harmonic_count(n_harmonics):
    d = ScenarioSpec(scenario="S4", n_harmonics=n_harmonics).detuning_vector()
    take = min(n_harmonics, 5)
    assert d.shape == (n_harmonics,)
    assert np.array_equal(d[:take], (0.0, 0.012, -0.015, 0.018, -0.02)[:take])
    assert not d[take:].any()


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("snr_db", [None, 30.0])
def test_synthesis_matches_its_oracle_byte_for_byte(scenario, seed, snr_db):
    # compared with the formula, not a stored digest: np.sin's last bits are
    # the platform's. S2 always has noise (0 dB when unset); S4 also runs
    # with detuning of its own
    specs = [ScenarioSpec(scenario=scenario, duration_s=1.0, jump_time_s=0.5, seed=seed,
                          snr_db=snr_db)]
    if scenario == "S4":
        specs.append(replace(specs[0], detuning=(0.01, -0.02, 0.0, 0.03, -0.01)))
    for spec in specs:
        signal, truth = synthesize(spec)
        x, rpm = naive_synthesize(spec)
        assert signal.samples.tobytes() == x.tobytes()
        assert truth.rpm_samples.tobytes() == rpm.tobytes()


def test_determinism_property():
    check_synth_determinism(24)


def test_constant_speed_trajectory():
    spec = ScenarioSpec(scenario="S0", duration_s=0.5, seed=1)
    sig, truth = synthesize(spec)
    assert len(sig) == 6400
    assert len(truth.rpm_samples) == 6400
    assert np.all(truth.rpm_samples == 1500.0)
    assert sig.sample_rate_hz == 12800.0


def test_wobble_bounds_and_period():
    spec = ScenarioSpec(scenario="S1", duration_s=4.0, seed=3)
    _, truth = synthesize(spec)
    r = truth.rpm_samples
    assert r.max() <= 1500.0 * 1.01 + 1e-9
    assert r.min() >= 1500.0 * 0.99 - 1e-9
    assert r.max() > 1500.0 * 1.009  # the wobble actually reaches its amplitude
    period = int(2.0 * 12800)
    assert np.allclose(r[period:], r[:-period], atol=1e-6)


def test_step_trajectory_reference_values():
    spec = ScenarioSpec(scenario="S5", duration_s=5.0, seed=1)
    _, truth = synthesize(spec)
    r = truth.rpm_samples
    jump_sample = int(2.5 * 12800)
    assert np.all(r[:jump_sample] == 1500.0)
    assert np.all(r[jump_sample:] == 2100.0)
    refs = truth.frame_references(FramingConfig())
    assert len(refs) == 437
    # first frame whose center crosses the step: 128 t + 4096 >= 32000
    assert int(np.argmax(refs > 1500.0)) == 218
    assert refs[217] == 1500.0 and refs[218] == 2100.0


def test_step_stays_phase_continuous():
    spec = ScenarioSpec(scenario="S5", duration_s=5.0, seed=4)
    sig, _ = synthesize(spec)
    x = sig.samples
    assert np.all(np.isfinite(x))
    # max slew of a 5-harmonic sum at 35 Hz is ~0.09 per sample; a phase break
    # at the jump would show up an order of magnitude above that
    assert np.max(np.abs(np.diff(x))) < 0.5


def test_noise_injection_hits_target_snr():
    clean_spec = ScenarioSpec(scenario="S5", duration_s=2.0, seed=7, jump_time_s=1.0)
    noisy_spec = ScenarioSpec(scenario="S5", duration_s=2.0, seed=7, jump_time_s=1.0,
                              snr_db=10.0)
    clean, _ = synthesize(clean_spec)
    noisy, _ = synthesize(noisy_spec)
    noise = noisy.samples - clean.samples  # same seed: phases identical
    realized = 10.0 * np.log10(np.mean(clean.samples**2) / np.mean(noise**2))
    assert realized == pytest.approx(10.0, abs=0.15)


def test_s2_is_noisier_than_s0():
    s0, _ = synthesize(ScenarioSpec(scenario="S0", duration_s=0.5, seed=5))
    s2, _ = synthesize(ScenarioSpec(scenario="S2", duration_s=0.5, seed=5))
    # 0 dB SNR doubles the total power
    assert np.mean(s2.samples**2) > 1.5 * np.mean(s0.samples**2)


def test_subharmonic_band_shows_up_in_s1():
    fs = 12800.0
    s0, _ = synthesize(ScenarioSpec(scenario="S0", duration_s=2.0, seed=6))
    s1, _ = synthesize(ScenarioSpec(scenario="S1", duration_s=2.0, seed=6))
    # half-order of 25 Hz, wobble keeps it within ~1%
    e0 = band_energy(s0.samples, fs, 11.0, 14.0)
    e1 = band_energy(s1.samples, fs, 11.0, 14.0)
    assert e1 > 20.0 * max(e0, 1e-12)


def test_interference_band_shows_up_in_s3():
    fs = 12800.0
    s0, _ = synthesize(ScenarioSpec(scenario="S0", duration_s=2.0, seed=6))
    s3, _ = synthesize(ScenarioSpec(scenario="S3", duration_s=2.0, seed=6))
    # 3.7 x 25 Hz = 92.5 Hz interferer
    e0 = band_energy(s0.samples, fs, 90.0, 95.0)
    e3 = band_energy(s3.samples, fs, 90.0, 95.0)
    assert e3 > 20.0 * max(e0, 1e-12)


def test_detuning_moves_harmonics_not_fundamental():
    fs = 12800.0
    s4, _ = synthesize(ScenarioSpec(scenario="S4", duration_s=2.0, seed=6,
                                    detuning=(0.0, 0.05, 0.0, 0.0, 0.0)))
    # second harmonic moves from 50 Hz to 52.5 Hz
    shifted = band_energy(s4.samples, fs, 51.8, 53.2)
    nominal = band_energy(s4.samples, fs, 49.3, 50.7)
    assert shifted > 5.0 * nominal
    fundamental = band_energy(s4.samples, fs, 24.3, 25.7)
    assert fundamental > 5.0 * shifted / 2.0


def test_trajectory_bounds_guard():
    with pytest.raises(ValueError, match="exits RPM bounds"):
        synthesize(ScenarioSpec(scenario="S0", duration_s=0.1, base_rpm=5000.0))
    with pytest.raises(ValueError, match="exits RPM bounds"):
        synthesize(ScenarioSpec(scenario="S5", duration_s=0.1, base_rpm=3600.0,
                                jump_time_s=0.05))


def test_ground_truth_lookup():
    truth = GroundTruth(sample_rate_hz=100.0, rpm_samples=np.arange(10, dtype=float))
    with pytest.raises(ValueError, match="shorter than one frame"):
        truth.frame_references(FramingConfig(frame_len=16, hop=4))
