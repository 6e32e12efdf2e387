//! The tail rule: report the highest percentile that still has at least
//! ten samples beyond it.

use sb_benchmark::metrics::{tail, TAIL_MIN_BEYOND};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn picks_the_highest_percentile_with_ten_samples_beyond() {
    // (sample count, percentile picked): each boundary from both sides.
    for (n, pct) in [
        (5_000, 99.0),
        (1_000, 99.0),
        (999, 95.0),
        (200, 95.0),
        (199, 90.0),
        (100, 90.0),
        (99, 75.0),
        (40, 75.0),
        (39, 50.0),
        (3, 50.0),
    ] {
        let picked = tail(&ramp(n));
        assert_eq!(picked.pct, pct, "n = {n}");
        assert_eq!(picked.samples, n);
        if pct > 50.0 {
            assert!(picked.beyond >= TAIL_MIN_BEYOND, "n = {n}: {picked:?}");
            // On the ramp 1..=n the nearest-rank value is the rank itself.
            assert_eq!(picked.value, (n as f64 * pct / 100.0).ceil(), "n = {n}");
            assert_eq!(picked.beyond, n - picked.value as usize, "n = {n}");
        }
    }
}

#[test]
fn order_does_not_matter_and_the_fallback_is_the_median() {
    let mut shuffled = ramp(1_000);
    shuffled.reverse();
    shuffled.swap(3, 700);
    assert_eq!(tail(&shuffled), tail(&ramp(1_000)));
    assert_eq!(tail(&[4.0, 1.0, 3.0, 2.0]).value, 2.5);
    assert!(tail(&[]).value.is_nan());
}
