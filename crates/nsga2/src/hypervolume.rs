//! Exact hypervolume indicators for minimization fronts.
//!
//! The hypervolume (the measure of the objective-space region dominated
//! by a front, bounded by a reference point) is the standard scalar
//! quality indicator for multi-objective optimizers. The ablation benches
//! use it to compare NSGA-II against random and grid search on Flower's
//! resource-share problem (3 objectives).
//!
//! Implementation: 2-D by a sweep over the sorted front; 3-D by slicing
//! along the third objective and accumulating 2-D hypervolumes — the
//! classic HSO ("hypervolume by slicing objectives") scheme, exact and
//! comfortably fast for the front sizes NSGA-II produces.

/// Exact hypervolume of a minimization front w.r.t. `reference`.
///
/// Points that do not strictly dominate the reference point contribute
/// nothing. Supports 2- and 3-objective fronts.
///
/// # Panics
/// Panics when the reference's dimensionality is not 2 or 3. Points
/// must match the reference's dimension: mismatches are caught by a
/// debug assertion in the module's non-dominated filter; release-build
/// behavior on a violated contract is unspecified (see the filter's
/// docs).
#[expect(
    clippy::panic,
    reason = "documented contract — the indicator is defined for 2 and 3 objectives only"
)]
pub fn hypervolume(front: &[Vec<f64>], reference: &[f64]) -> f64 {
    match *reference {
        [rx, ry] => hv2d(front, (rx, ry)),
        [rx, ry, rz] => hv3d(front, (rx, ry, rz)),
        _ => panic!(
            "hypervolume supports 2 or 3 objectives, got {}",
            reference.len()
        ),
    }
}

/// Keep only points that strictly dominate the reference, then drop
/// dominated points and duplicates (minimization).
///
/// Sort-then-sweep instead of the naive all-pairs scan: candidates are
/// sorted lexicographically ascending (`total_cmp` per coordinate), so
/// any dominator of `p` — and any earlier duplicate of `p` — sorts
/// *before* `p`. One forward sweep then compares each candidate only
/// against the kept set (by transitivity the minimal elements are
/// always kept), i.e. O(n log n + n·|front|·d) instead of O(n²·d), and
/// clones only the kept points. In 2-D the kept-set check collapses to
/// a single running minimum, giving a pure O(n log n) sweep.
///
/// # Contract
/// Every point must have the reference's dimensionality. This is
/// enforced by a debug assertion; in release builds a short point is
/// compared coordinate-wise over the common prefix and the result is
/// unspecified (no panic, no UB). [`hypervolume`] is the public entry
/// and its 2-/3-tuple reference match pins the dimension there.
fn nondominated_filter(front: &[Vec<f64>], reference: &[f64]) -> Vec<Vec<f64>> {
    let mut candidates: Vec<&Vec<f64>> = front
        .iter()
        .filter(|p| {
            debug_assert_eq!(
                p.len(),
                reference.len(),
                "point/reference dimension mismatch"
            );
            p.iter().zip(reference).all(|(a, r)| a < r)
        })
        .collect();
    candidates.sort_by(|a, b| {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut keep: Vec<Vec<f64>> = Vec::new();
    if reference.len() == 2 {
        // 2-D fast path: after the lex sort the front is exactly the
        // strictly-decreasing staircase of the second coordinate.
        let mut best_y = f64::INFINITY;
        for p in candidates {
            // Slice-pattern destructuring; a wrong-arity point (possible
            // only in release, see the contract above) is skipped.
            let [_, y] = p[..] else { continue };
            if y < best_y {
                best_y = y;
                keep.push(p.clone());
            }
        }
        return keep;
    }
    'outer: for p in candidates {
        // q ≤ p in every coordinate covers both "q dominates p" (some
        // coordinate strict) and "q is an earlier duplicate of p".
        for q in &keep {
            if q.iter().zip(p.iter()).all(|(a, b)| a <= b) {
                continue 'outer;
            }
        }
        keep.push(p.clone());
    }
    keep
}

fn hv2d(front: &[Vec<f64>], reference: (f64, f64)) -> f64 {
    let (rx, ry) = reference;
    let mut pts: Vec<(f64, f64)> = nondominated_filter(front, &[rx, ry])
        .into_iter()
        .map(|p| match p[..] {
            [x, y] => (x, y),
            _ => unreachable!("hypervolume() pinned the dimension to 2"),
        })
        .collect();
    // Sort ascending by the first objective; the second objective then
    // descends along the non-dominated front. The filter admits only
    // points strictly dominating the reference, so NaNs never reach the
    // comparator; total_cmp keeps it panic-free regardless.
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut hv = 0.0;
    let mut prev_y = ry;
    for &(x, y) in &pts {
        hv += (rx - x) * (prev_y - y);
        prev_y = y;
    }
    hv
}

fn hv3d(front: &[Vec<f64>], reference: (f64, f64, f64)) -> f64 {
    let (rx, ry, rz) = reference;
    let mut pts: Vec<(f64, f64, f64)> = nondominated_filter(front, &[rx, ry, rz])
        .into_iter()
        .map(|p| match p[..] {
            [x, y, z] => (x, y, z),
            _ => unreachable!("hypervolume() pinned the dimension to 3"),
        })
        .collect();
    // Slice along the third objective, best (smallest) first.
    pts.sort_by(|a, b| a.2.total_cmp(&b.2));
    let mut hv = 0.0;
    let mut active: Vec<Vec<f64>> = Vec::new();
    for i in 0..pts.len() {
        let (x, y, z_lo) = pts[i];
        active.push(vec![x, y]);
        let z_hi = if i + 1 < pts.len() { pts[i + 1].2 } else { rz };
        let height = z_hi - z_lo;
        if height > 0.0 {
            hv += height * hv2d(&active, (rx, ry));
        }
    }
    hv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_2d() {
        let hv = hypervolume(&[vec![1.0, 1.0]], &[3.0, 3.0]);
        assert!((hv - 4.0).abs() < 1e-12);
    }

    #[test]
    fn two_points_2d() {
        // Points (1,2) and (2,1) vs ref (3,3):
        // union area = 2·1 + 1·2 + ... draw it: total 3.0
        let hv = hypervolume(&[vec![1.0, 2.0], vec![2.0, 1.0]], &[3.0, 3.0]);
        assert!((hv - 3.0).abs() < 1e-12, "hv={hv}");
    }

    #[test]
    fn dominated_point_adds_nothing() {
        let base = hypervolume(&[vec![1.0, 1.0]], &[3.0, 3.0]);
        let with_dup = hypervolume(&[vec![1.0, 1.0], vec![2.0, 2.0]], &[3.0, 3.0]);
        assert!((base - with_dup).abs() < 1e-12);
    }

    #[test]
    fn duplicate_points_count_once() {
        let hv = hypervolume(&[vec![1.0, 1.0], vec![1.0, 1.0]], &[2.0, 2.0]);
        assert!((hv - 1.0).abs() < 1e-12);
    }

    #[test]
    fn point_outside_reference_is_ignored() {
        let hv = hypervolume(&[vec![4.0, 4.0]], &[3.0, 3.0]);
        assert_eq!(hv, 0.0);
        let hv = hypervolume(&[vec![3.0, 1.0]], &[3.0, 3.0]);
        assert_eq!(hv, 0.0, "boundary point dominates no volume");
    }

    #[test]
    fn empty_front_is_zero() {
        assert_eq!(hypervolume(&[], &[1.0, 1.0]), 0.0);
        assert_eq!(hypervolume(&[], &[1.0, 1.0, 1.0]), 0.0);
    }

    #[test]
    fn single_point_3d() {
        let hv = hypervolume(&[vec![0.0, 0.0, 0.0]], &[2.0, 3.0, 4.0]);
        assert!((hv - 24.0).abs() < 1e-12);
    }

    #[test]
    fn two_disjointish_points_3d() {
        // (0,1,1) and (1,0,0) vs ref (2,2,2).
        // Vol(A) = 2·1·1 = 2 ; Vol(B) = 1·2·2 = 4;
        // Intersection: max coords (1,1,1) → box to ref = 1·1·1 = 1.
        // Union = 2 + 4 − 1 = 5.
        let hv = hypervolume(
            &[vec![0.0, 1.0, 1.0], vec![1.0, 0.0, 0.0]],
            &[2.0, 2.0, 2.0],
        );
        assert!((hv - 5.0).abs() < 1e-12, "hv={hv}");
    }

    #[test]
    fn hv3d_matches_inclusion_exclusion_on_triple() {
        // Three mutually non-dominated points.
        let pts = [
            vec![0.0, 2.0, 2.0],
            vec![2.0, 0.0, 2.0],
            vec![2.0, 2.0, 0.0],
        ];
        let r = [3.0, 3.0, 3.0];
        // Inclusion–exclusion by hand:
        // Each |Ai| = 3·1·1 = 3 (e.g. (3-0)(3-2)(3-2)). Sum = 9... compute:
        // A = (0,2,2): (3)(1)(1)=3 ; B = (2,0,2): (1)(3)(1)=3 ; C: (1)(1)(3)=3.
        // A∩B: max=(2,2,2) → 1 ; A∩C: (2,2,2) → 1 ; B∩C: (2,2,2) → 1.
        // A∩B∩C: (2,2,2) → 1.
        // Union = 9 − 3 + 1 = 7.
        let hv = hypervolume(&pts, &r);
        assert!((hv - 7.0).abs() < 1e-12, "hv={hv}");
    }

    #[test]
    fn hypervolume_monotone_in_front_quality() {
        let worse = hypervolume(&[vec![1.0, 1.0]], &[3.0, 3.0]);
        let better = hypervolume(&[vec![0.5, 0.5]], &[3.0, 3.0]);
        assert!(better > worse);
    }

    #[test]
    #[should_panic(expected = "2 or 3 objectives")]
    fn unsupported_dimension_panics() {
        hypervolume(&[vec![1.0, 1.0, 1.0, 1.0]], &[2.0, 2.0, 2.0, 2.0]);
    }

    // The dimension contract is a debug assertion (documented in
    // `nondominated_filter`); release builds skip the check.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_point_panics_in_debug() {
        hypervolume(&[vec![1.0]], &[2.0, 2.0]);
    }

    #[test]
    fn hv3d_regression_hand_computed_front() {
        // Hand-computed by inclusion–exclusion against ref (4,4,4):
        //   A=(1,2,3): (3)(2)(1)=6 ; B=(2,1,3): (2)(3)(1)=6 ;
        //   C=(3,3,1): (1)(1)(3)=3.
        //   A∩B: max=(2,2,3) → (2)(2)(1)=4 ; A∩C: max=(3,3,3) → 1 ;
        //   B∩C: max=(3,3,3) → 1 ; A∩B∩C: max=(3,3,3) → 1.
        //   Union = 6+6+3 − 4−1−1 + 1 = 10.
        // The input also carries a duplicate of A, a point dominated by
        // A, and a point outside the reference — all must contribute 0.
        let front = [
            vec![1.0, 2.0, 3.0],
            vec![2.0, 1.0, 3.0],
            vec![3.0, 3.0, 1.0],
            vec![1.0, 2.0, 3.0], // duplicate of A
            vec![2.0, 2.0, 3.0], // dominated by A
            vec![5.0, 5.0, 5.0], // outside the reference
        ];
        let hv = hypervolume(&front, &[4.0, 4.0, 4.0]);
        assert!((hv - 10.0).abs() < 1e-12, "hv={hv}");
    }

    #[test]
    fn filter_agrees_with_naive_all_pairs_scan() {
        // Pseudo-random 3-D cloud: the sweep filter must keep exactly
        // the minimal elements the quadratic reference scan keeps.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 3.0
        };
        let front: Vec<Vec<f64>> = (0..200).map(|_| (0..3).map(|_| next()).collect()).collect();
        let reference = [2.5, 2.5, 2.5];
        let fast = nondominated_filter(&front, &reference);
        // Naive reference implementation.
        let candidates: Vec<&Vec<f64>> = front
            .iter()
            .filter(|p| p.iter().zip(&reference).all(|(a, r)| a < r))
            .collect();
        let mut naive: Vec<Vec<f64>> = Vec::new();
        'outer: for (i, p) in candidates.iter().enumerate() {
            for (j, q) in candidates.iter().enumerate() {
                if i == j {
                    continue;
                }
                let dominates = q.iter().zip(p.iter()).all(|(a, b)| a <= b)
                    && q.iter().zip(p.iter()).any(|(a, b)| a < b);
                if dominates || (q == p && j < i) {
                    continue 'outer;
                }
            }
            naive.push((*p).clone());
        }
        let mut fast_sorted = fast;
        let mut naive_sorted = naive;
        let lex = |a: &Vec<f64>, b: &Vec<f64>| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        };
        fast_sorted.sort_by(&lex);
        naive_sorted.sort_by(&lex);
        assert_eq!(fast_sorted, naive_sorted);
    }
}
