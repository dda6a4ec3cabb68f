//! The order statistics the benchmark reports and its bounds are
//! checked with, against values Python's `statistics` module gives.

use ema_perfbench::stats::{median, percentile, quartiles, ratio, relative_spread};

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(data, n=4) for each data set.
    let cases: [(&[f64], [f64; 3]); 5] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.75, 5.5, 8.25],
        ),
        (&[3.5, 1.0], [0.375, 2.25, 4.125]),
        (&[2.0, 9.0, 4.0], [2.0, 4.0, 9.0]),
        (&[1.0, 1.5, 7.25, 3.0, 2.0], [1.25, 2.0, 5.125]),
        (&[10.0, 10.0, 10.0, 10.0], [10.0, 10.0, 10.0]),
    ];
    for (data, want) in cases {
        assert_eq!(quartiles(data), Some(want), "{data:?}");
    }
}

#[test]
fn quartiles_need_two_samples() {
    assert_eq!(quartiles(&[]), None);
    assert_eq!(quartiles(&[4.0]), None);
    assert_eq!(relative_spread(&[4.0]), None);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[9.0, 1.0, 4.0]), Some(4.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn relative_spread_is_iqr_over_median() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let spread = relative_spread(&ten).unwrap();
    assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-15);
    assert_eq!(
        relative_spread(&[0.0, 0.0, 0.0]),
        None,
        "zero median has no relative spread"
    );
}

#[test]
fn percentile_interpolates_between_ranks() {
    let v = [10.0, 20.0, 30.0, 40.0, 50.0];
    assert_eq!(percentile(&v, 0.0), Some(10.0));
    assert_eq!(percentile(&v, 0.5), Some(30.0));
    assert_eq!(percentile(&v, 1.0), Some(50.0));
    assert_eq!(percentile(&v, 0.9), Some(46.0));
    assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn ratio_of_an_unused_layer_is_zero() {
    assert_eq!(ratio(3.0, 4.0), 0.75);
    assert_eq!(ratio(3.0, 0.0), 0.0);
}
