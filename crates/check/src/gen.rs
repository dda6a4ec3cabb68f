//! Generator helpers: small building blocks for property-test inputs.
//!
//! Two styles are provided and mix freely:
//!
//! - **Direct**: functions taking `&mut Rng64` plus bounds, for use
//!   inside hand-written generator fns (`gen::vec_f64(rng, -1.0, 1.0,
//!   1, 32)`).
//! - **Curried**: functions returning an `impl Fn(&mut Rng64) -> T`
//!   closure, for inline use in [`crate::prop_tests!`] clauses
//!   (`seed in gen::u64_below(1000)`).

use ema_tensor::Rng64;

/// Uniform `f64` in `[lo, hi)`, direct form.
pub fn f64_in(rng: &mut Rng64, lo: f64, hi: f64) -> f64 {
    rng.uniform_in(lo, hi)
}

/// Uniform `usize` in `[lo, hi)`, direct form.
///
/// # Panics
/// Panics if `lo >= hi`.
pub fn usize_in(rng: &mut Rng64, lo: usize, hi: usize) -> usize {
    assert!(lo < hi, "usize_in bounds inverted: {lo} >= {hi}");
    lo + rng.index(hi - lo)
}

/// Vector of uniform `f64` values with a length drawn from
/// `[len_lo, len_hi)`, direct form.
pub fn vec_f64(rng: &mut Rng64, lo: f64, hi: f64, len_lo: usize, len_hi: usize) -> Vec<f64> {
    let n = usize_in(rng, len_lo, len_hi);
    (0..n).map(|_| rng.uniform_in(lo, hi)).collect()
}

/// Vector of exactly `len` uniform `f64` values, direct form.
pub fn vec_f64_len(rng: &mut Rng64, lo: f64, hi: f64, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.uniform_in(lo, hi)).collect()
}

/// Curried uniform `f64` in `[lo, hi)`.
pub fn f64_range(lo: f64, hi: f64) -> impl Fn(&mut Rng64) -> f64 {
    move |rng| rng.uniform_in(lo, hi)
}

/// Curried uniform `u64` in `[0, n)`.
pub fn u64_below(n: u64) -> impl Fn(&mut Rng64) -> u64 {
    assert!(n > 0, "u64_below needs a positive bound");
    move |rng| {
        // For bounds that fit in usize (all our uses), reuse the
        // unbiased index sampler.
        rng.index(usize::try_from(n).expect("bound fits usize")) as u64
    }
}

/// Curried uniform `usize` in `[lo, hi)`.
pub fn usize_range(lo: usize, hi: usize) -> impl Fn(&mut Rng64) -> usize {
    assert!(lo < hi, "usize_range bounds inverted: {lo} >= {hi}");
    move |rng| lo + rng.index(hi - lo)
}

/// Curried choice among a fixed slice of values (cloned out).
pub fn one_of<T: Clone>(choices: &[T]) -> impl Fn(&mut Rng64) -> T + '_ {
    assert!(!choices.is_empty(), "one_of needs at least one choice");
    move |rng| choices[rng.index(choices.len())].clone()
}

/// Curried vector with element generator and length range `[lo, hi)`.
pub fn vec_of<T>(
    elem: impl Fn(&mut Rng64) -> T,
    len_lo: usize,
    len_hi: usize,
) -> impl Fn(&mut Rng64) -> Vec<T> {
    assert!(
        len_lo < len_hi,
        "vec_of bounds inverted: {len_lo} >= {len_hi}"
    );
    move |rng| {
        let n = len_lo + rng.index(len_hi - len_lo);
        (0..n).map(|_| elem(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_generators_respect_bounds() {
        let mut rng = Rng64::seed_from(1);
        for _ in 0..1000 {
            let x = f64_in(&mut rng, -2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
            let n = usize_in(&mut rng, 4, 9);
            assert!((4..9).contains(&n));
        }
    }

    #[test]
    fn vec_generators_respect_lengths() {
        let mut rng = Rng64::seed_from(2);
        for _ in 0..200 {
            let v = vec_f64(&mut rng, 0.0, 1.0, 1, 32);
            assert!((1..32).contains(&v.len()));
            assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
            assert_eq!(vec_f64_len(&mut rng, 0.0, 1.0, 7).len(), 7);
        }
    }

    #[test]
    fn curried_generators_cover_their_domain() {
        let mut rng = Rng64::seed_from(3);
        let below = u64_below(5);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[below(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "u64_below(5) missed a value");

        let choice = one_of(&["a", "b", "c"]);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..300 {
            *counts.entry(choice(&mut rng)).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 3);
    }

    #[test]
    fn vec_of_composes_element_generators() {
        let mut rng = Rng64::seed_from(4);
        let g = vec_of(f64_range(-1.0, 1.0), 2, 6);
        for _ in 0..100 {
            let v = g(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|x| x.abs() <= 1.0));
        }
    }
}
