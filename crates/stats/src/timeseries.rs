//! Alignment of two metric series on a shared period grid — required
//! before a cross-layer regression, since different services publish
//! metrics on different cadences.

use std::cmp::Ordering;

use flower_sim::{SimDuration, SimTime};

/// Bucket two time-ordered series at multiples of `period`, average each
/// bucket, and keep the buckets present in *both*, in time order, as the
/// paired columns `(means of a, means of b)`.
///
/// This is the preprocessing step before any cross-layer regression:
/// Kinesis and the Storm cluster publish on different cadences, so raw
/// samples never share timestamps.
///
/// ```
/// use flower_sim::{SimDuration, SimTime};
/// let at = SimTime::from_secs;
/// let a = [(at(0), 1.0), (at(60), 2.0), (at(90), 4.0)];
/// let b = [(at(65), 20.0), (at(125), 30.0)];
/// let (xs, ys) = flower_stats::align_bucket_means(&a, &b, SimDuration::from_secs(60));
/// assert_eq!((xs, ys), (vec![3.0], vec![20.0]));
/// ```
pub fn align_bucket_means(
    a: &[(SimTime, f64)],
    b: &[(SimTime, f64)],
    period: SimDuration,
) -> (Vec<f64>, Vec<f64>) {
    let a = bucket_means(a, period);
    let b = bucket_means(b, period);
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while let (Some(&(ta, va)), Some(&(tb, vb))) = (a.get(i), b.get(j)) {
        match ta.cmp(&tb) {
            Ordering::Equal => {
                xs.push(va);
                ys.push(vb);
                i += 1;
                j += 1;
            }
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
        }
    }
    (xs, ys)
}

/// The start and mean of every non-empty `period` bucket of a
/// time-ordered series, each mean summed left to right.
fn bucket_means(points: &[(SimTime, f64)], period: SimDuration) -> Vec<(SimTime, f64)> {
    assert!(
        points
            .iter()
            .zip(points.iter().skip(1))
            .all(|(p, q)| p.0 <= q.0),
        "time series points must be time-ordered"
    );
    let bucket = |&(t, _): &(SimTime, f64)| t.align_down(period);
    points
        .chunk_by(|p, q| bucket(p) == bucket(q))
        .filter_map(|run| {
            let mean = run.iter().map(|&(_, v)| v).sum::<f64>() / run.len() as f64;
            Some((bucket(run.first()?), mean))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(points: &[(u64, f64)]) -> Vec<(SimTime, f64)> {
        points
            .iter()
            .map(|&(s, v)| (SimTime::from_secs(s), v))
            .collect()
    }

    #[test]
    fn align_intersects_buckets() {
        let a = ts(&[(0, 1.0), (60, 2.0), (120, 3.0)]);
        let b = ts(&[(65, 20.0), (125, 30.0), (185, 40.0)]);
        let aligned = align_bucket_means(&a, &b, SimDuration::from_secs(60));
        assert_eq!(aligned, (vec![2.0, 3.0], vec![20.0, 30.0]));
    }

    #[test]
    fn align_disjoint_is_empty() {
        let a = ts(&[(0, 1.0)]);
        let b = ts(&[(600, 2.0)]);
        let (xs, ys) = align_bucket_means(&a, &b, SimDuration::from_secs(60));
        assert!(xs.is_empty() && ys.is_empty());
    }

    #[test]
    #[should_panic(expected = "must be time-ordered")]
    fn from_points_rejects_disorder() {
        let a = ts(&[(2, 1.0), (1, 2.0)]);
        align_bucket_means(&a, &a, SimDuration::from_secs(60));
    }

    #[test]
    fn window_is_half_open() {
        // Bucket k covers [k·period, (k+1)·period): 59.999 s closes the
        // first minute and 60 s opens the second.
        let a = [
            (SimTime::ZERO, 1.0),
            (SimTime::from_millis(59_999), 3.0),
            (SimTime::from_millis(60_000), 10.0),
        ];
        let (xs, _) = align_bucket_means(&a, &a, SimDuration::from_secs(60));
        assert_eq!(xs, vec![2.0, 10.0]);
    }

    #[test]
    fn resample_empty_is_empty() {
        let minute = SimDuration::from_secs(60);
        let b = ts(&[(0, 1.0)]);
        assert!(bucket_means(&[], minute).is_empty());
        assert_eq!(align_bucket_means(&[], &b, minute), (vec![], vec![]));
        assert_eq!(align_bucket_means(&b, &[], minute), (vec![], vec![]));
    }

    #[test]
    fn resample_mean_and_sum() {
        // A bucket's mean is its values summed left to right over their
        // count: 0.1 + 0.2 + 0.3 rounds differently from 0.3 + 0.2 + 0.1.
        let a = ts(&[(0, 0.1), (10, 0.2), (20, 0.3), (60, 5.0)]);
        assert_eq!(
            bucket_means(&a, SimDuration::from_secs(60)),
            vec![
                (SimTime::ZERO, (0.1 + 0.2 + 0.3) / 3.0),
                (SimTime::from_secs(60), 5.0)
            ]
        );
        assert_ne!((0.1 + 0.2 + 0.3) / 3.0, (0.3 + 0.2 + 0.1) / 3.0);
    }
}
