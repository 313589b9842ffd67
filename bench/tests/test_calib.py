"""Pacer, normalisation and order-statistic arithmetic."""

import time

import pytest

from bench import calib


def test_kernel_is_frozen():
    assert calib.calibration_kernel() == calib.KERNEL_DIGEST


def test_normalise_is_cpu_in_units_of_the_kernel_pass():
    assert calib.normalise(60.0, 30.0) == pytest.approx(60.0 * calib.CALIB_REF_MS / 30.0)
    # a machine twice as slow reads twice the CPU and twice the pass time
    assert calib.normalise(120.0, 60.0) == pytest.approx(calib.normalise(60.0, 30.0))


def test_pass_ms_averages_the_passes_inside_the_window():
    pacer = calib.Pacer()
    pacer.passes = [(0.0, 1.0, 0.020), (1.0, 2.0, 0.030), (2.0, 3.0, 0.040), (3.5, 4.5, 0.1)]
    assert pacer.pass_ms(0.0, 3.0) == pytest.approx(30.0)
    assert pacer.pass_ms(0.9, 3.2) == pytest.approx(35.0)  # first straddles the edge
    # no whole pass inside: the one nearest the middle of the window
    assert pacer.pass_ms(1.2, 1.4) == pytest.approx(30.0)


def test_pacer_thread_times_passes_and_accounts_for_its_cpu():
    pacer = calib.Pacer(pause_s=0.0)
    pacer.start()
    deadline = time.monotonic() + 30.0
    while len(pacer.passes) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    live = pacer.cpu_seconds()
    pacer.stop()
    assert len(pacer.passes) >= 2
    timed = sum(cpu for _, _, cpu in pacer.passes)
    assert 0.0 < live <= pacer.cpu_seconds()
    assert pacer.cpu_seconds() == pytest.approx(timed, rel=0.2)
    # a pass on the caller's thread is tallied too
    before = pacer.cpu_seconds()
    pacer.timed_pass()
    assert pacer.cpu_seconds() - before == pytest.approx(pacer.passes[-1][2])
    assert all(w1 >= w0 and cpu > 0 for w0, w1, cpu in pacer.passes)


def test_a_slice_is_booked_as_the_pass_it_stands_for():
    pacer = calib.Pacer()
    pacer.timed_pass()
    pacer.timed_pass(slices=5)
    whole, scaled = (cpu for _, _, cpu in pacer.passes)
    assert scaled == pytest.approx(whole, rel=0.5)
    # ... but only the CPU it really took is subtracted from the process's
    assert pacer.cpu_seconds() == pytest.approx(whole + scaled / 5)
    pacer.stop()  # a slice has another digest and is not a kernel edit


def test_an_edited_kernel_is_reported(monkeypatch):
    monkeypatch.setattr(calib, "KERNEL_DIGEST", "00000000")
    pacer = calib.Pacer()
    pacer.timed_pass()
    with pytest.raises(RuntimeError):
        pacer.stop()


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert calib.percentile(values, 0.5) == 50
    assert calib.percentile(values, 0.9) == 90
    assert calib.percentile(values, 1.0) == 100
    assert calib.percentile([7.0], 0.9) == 7.0
    assert calib.percentile([3, 1, 2], 0.5) == 2
