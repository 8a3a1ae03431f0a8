//! The *min-unfavorable* ordering `≤ₘ` over ordered rate vectors
//! (Definition 2) and its threshold characterization (Lemma 2).
//!
//! For ordered (ascending) vectors `X` and `Y` of equal length, `X ≤ₘ Y`
//! ("X is min-unfavorable to Y") iff no index `i` has `x_i > y_i`, or every
//! such `i` is preceded by some `j < i` with `x_j < y_j`. The paper points
//! out this is exactly alphabetical order on strings; on ordered vectors it
//! coincides with lexicographic comparison, which is how we implement the
//! fast path. The definitional form is kept alongside and property-tested
//! equivalent, because the reproduction's claim is about the paper's
//! definition, not about lexicographic order.
//!
//! Lemma 1 states every feasible allocation is `≤ₘ` the max-min fair one;
//! Lemma 2 characterizes strict min-unfavorability by a threshold `x₀`:
//! `X <ₘ Y` iff there is an `x₀` such that for all `z < x₀` the number of
//! entries `≤ z` in `X` is at least that in `Y`, and strictly more entries
//! of `X` are `≤ x₀` than of `Y`.

use std::cmp::Ordering;

/// Tolerance for rate comparisons within the ordering. Allocator outputs are
/// exact for the paper's examples, but Monte-Carlo feasible allocations carry
/// float noise.
pub(crate) const ORD_EPS: f64 = 1e-9;

/// Sort a rate vector ascending (the "ordered vector" of Definition 2).
/// Uses [`f64::total_cmp`], so non-finite rates (a NaN leaking out of an
/// upstream model) sort deterministically instead of panicking.
pub fn ordered(rates: &[f64]) -> Vec<f64> {
    let mut v = rates.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Compare two *ordered* equal-length vectors under `≤ₘ`.
///
/// Returns `Ordering::Less` when `X <ₘ Y`, `Equal` when `X = Y` (within
/// `ORD_EPS`), `Greater` when `Y <ₘ X`. The relation is total on ordered
/// vectors of equal length (the paper notes at least one direction always
/// holds).
///
/// # Panics
///
/// Panics if the lengths differ — the ordering is only defined for
/// allocations over the same receiver set.
pub(crate) fn min_unfavorable_cmp(x: &[f64], y: &[f64]) -> Ordering {
    assert_eq!(x.len(), y.len(), "min-unfavorable needs equal lengths");
    debug_assert!(is_sorted(x) && is_sorted(y), "inputs must be ordered");
    for (a, b) in x.iter().zip(y) {
        if (a - b).abs() > ORD_EPS {
            return if a < b {
                Ordering::Less
            } else {
                Ordering::Greater
            };
        }
    }
    Ordering::Equal
}

/// `X ≤ₘ Y` on ordered vectors (non-strict).
pub fn is_min_unfavorable(x: &[f64], y: &[f64]) -> bool {
    min_unfavorable_cmp(x, y) != Ordering::Greater
}

/// `X <ₘ Y` on ordered vectors (strict: `≤ₘ` and not equal).
pub fn is_strictly_min_unfavorable(x: &[f64], y: &[f64]) -> bool {
    min_unfavorable_cmp(x, y) == Ordering::Less
}

/// The literal Definition 2 check, used to validate the lexicographic fast
/// path: `X ≤ₘ Y` iff no `i` has `x_i > y_i`, or for any such `i` there is
/// `j < i` with `x_j < y_j`.
pub fn is_min_unfavorable_definitional(x: &[f64], y: &[f64]) -> bool {
    assert_eq!(x.len(), y.len());
    for i in 0..x.len() {
        if x[i] > y[i] + ORD_EPS {
            let rescued = (0..i).any(|j| x[j] < y[j] - ORD_EPS);
            if !rescued {
                return false;
            }
        }
    }
    true
}

/// Lemma 2's threshold witness: if `X <ₘ Y`, return an `x₀` such that
///
/// * for all `z < x₀`: `|{x_i ≤ z}| ≥ |{y_i ≤ z}|`, and
/// * `|{x_i ≤ x₀}| > |{y_i ≤ x₀}|`.
///
/// Returns `None` when `X <ₘ Y` does not hold. The witness returned is
/// `x_d`, the entry at the first index where the ordered vectors differ —
/// the proof of Lemma 2 in the technical report uses exactly this value.
pub fn lemma2_threshold(x: &[f64], y: &[f64]) -> Option<f64> {
    if !is_strictly_min_unfavorable(x, y) {
        return None;
    }
    let d = x
        .iter()
        .zip(y)
        .position(|(a, b)| (a - b).abs() > ORD_EPS)
        // mlf-lint: allow(panic-unwrap, reason = "the strict-ordering branch above established that some coordinate differs by more than ORD_EPS")
        .expect("strict ordering implies a differing index");
    Some(x[d])
}

/// Count entries of an ordered vector that are `≤ z` (within tolerance).
pub(crate) fn count_at_or_below(v: &[f64], z: f64) -> usize {
    v.iter().filter(|&&a| a <= z + ORD_EPS).count()
}

/// Verify that `x0` is a valid Lemma 2 witness for `X <ₘ Y`.
pub fn verify_lemma2_witness(x: &[f64], y: &[f64], x0: f64) -> bool {
    // Candidate z values below x0 where counts can change: the entries
    // themselves.
    let below_ok = x
        .iter()
        .chain(y)
        .filter(|&&z| z < x0 - ORD_EPS)
        .all(|&z| count_at_or_below(x, z) >= count_at_or_below(y, z));
    below_ok && count_at_or_below(x, x0) > count_at_or_below(y, x0)
}

fn is_sorted(v: &[f64]) -> bool {
    // total_cmp order (the order `ordered()` produces): finite ascending,
    // then +inf, then NaN — `<=` would reject any window touching a NaN.
    v.windows(2)
        .all(|w| w[0].total_cmp(&w[1]) != Ordering::Greater || w[0] <= w[1] + ORD_EPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reflexive_transitive_total() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![1.0, 2.0, 4.0];
        let c = vec![1.0, 3.0, 3.0];
        // Reflexive.
        assert!(is_min_unfavorable(&a, &a));
        // a <m b (differ at last), a <m c (differ at middle), b <m c.
        assert!(is_strictly_min_unfavorable(&a, &b));
        assert!(is_strictly_min_unfavorable(&a, &c));
        assert!(is_strictly_min_unfavorable(&b, &c));
        // Totality: one direction always holds.
        assert!(is_min_unfavorable(&b, &c) || is_min_unfavorable(&c, &b));
        // Antisymmetry of the strict form.
        assert!(!is_strictly_min_unfavorable(&c, &b));
    }

    #[test]
    fn paper_example_single_link_layered() {
        // Section 3's fixed-layer example, c = 6: allocation (c/3, c/2) =
        // (2, 3) vs (2c/3, 0) = (4, 0). Ordered: (2,3) vs (0,4):
        // (0,4) <m (2,3).
        let a = ordered(&[4.0, 0.0]);
        let b = ordered(&[2.0, 3.0]);
        assert!(is_strictly_min_unfavorable(&a, &b));
    }

    #[test]
    fn definitional_and_lexicographic_agree() {
        // Exhaustive check over small integer vectors.
        let vals = [0.0, 1.0, 2.0];
        let mut vectors = Vec::new();
        for a in vals {
            for b in vals {
                for c in vals {
                    let mut v = vec![a, b, c];
                    v.sort_by(f64::total_cmp);
                    vectors.push(v);
                }
            }
        }
        for x in &vectors {
            for y in &vectors {
                assert_eq!(
                    is_min_unfavorable(x, y),
                    is_min_unfavorable_definitional(x, y),
                    "mismatch for {x:?} vs {y:?}"
                );
            }
        }
    }

    #[test]
    fn lemma2_witness_is_valid_when_strict() {
        let x = ordered(&[1.0, 1.0, 5.0]);
        let y = ordered(&[1.0, 2.0, 3.0]);
        let x0 = lemma2_threshold(&x, &y).expect("x <m y");
        assert_eq!(x0, 1.0);
        assert!(verify_lemma2_witness(&x, &y, x0));
        // No witness when not strictly ordered.
        assert!(lemma2_threshold(&y, &x).is_none());
        assert!(lemma2_threshold(&x, &x).is_none());
    }

    #[test]
    fn count_at_or_below_counts() {
        let v = vec![1.0, 2.0, 2.0, 5.0];
        assert_eq!(count_at_or_below(&v, 0.5), 0);
        assert_eq!(count_at_or_below(&v, 2.0), 3);
        assert_eq!(count_at_or_below(&v, 10.0), 4);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn unequal_lengths_panic() {
        let _ = min_unfavorable_cmp(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn tolerance_treats_near_equal_as_equal() {
        let x = vec![1.0, 2.0];
        let y = vec![1.0 + 1e-12, 2.0 - 1e-12];
        assert_eq!(min_unfavorable_cmp(&x, &y), Ordering::Equal);
    }
}
