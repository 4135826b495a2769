//! Epsilon-dominance archive (Laumanns et al. 2002) bounding
//! Pareto-front churn across replans.
//!
//! A replanner that warm-starts each NSGA-II run from the previous
//! front would otherwise carry an unbounded, jittery seed set: every
//! replan reshuffles which of the near-identical front points survive,
//! and tiny objective wiggles count as "new" solutions. The archive
//! quantizes objective space into epsilon-sized boxes and keeps at most
//! one representative per box: a candidate only enters if no archived
//! box dominates its box, it evicts every entry whose box it dominates,
//! and within a box the representative is replaced only by a point that
//! dominates it or sits closer to the box corner. The result is a
//! bounded, stable seed set whose membership is insensitive to
//! sub-epsilon noise.
//!
//! Determinism: insertion is a pure function of the entries already
//! held and the candidate (ties keep the incumbent), so feeding the
//! same solutions in the same order always yields the same archive —
//! there is no RNG and no wall-clock anywhere in this module.

use crate::individual::{domination_kernel, Domination};

/// One archived solution: its genome and (finite) objective vector.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveEntry {
    /// Decision-variable vector of the archived solution.
    pub genes: Vec<f64>,
    /// Objective values (minimized, all finite).
    pub objectives: Vec<f64>,
}

/// A bounded epsilon-dominance archive over minimized objectives.
#[derive(Debug, Clone)]
pub struct EpsilonArchive {
    epsilon: f64,
    capacity: usize,
    entries: Vec<ArchiveEntry>,
}

/// Box-level Pareto comparison outcome for two box-index vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoxOrder {
    Dominates,
    Dominated,
    Same,
    Incomparable,
}

impl EpsilonArchive {
    /// An empty archive. `epsilon` is the objective-space box edge
    /// (larger ⇒ coarser, smaller archive); `capacity` caps the entry
    /// count — once full, candidates that would need a new box are
    /// rejected deterministically.
    pub fn new(epsilon: f64, capacity: usize) -> EpsilonArchive {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "epsilon must be finite and positive"
        );
        assert!(capacity > 0, "capacity must be positive");
        EpsilonArchive {
            epsilon,
            capacity,
            entries: Vec::new(),
        }
    }

    /// Number of archived solutions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the archive holds no solutions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The archived solutions, in insertion order of their boxes.
    pub fn entries(&self) -> &[ArchiveEntry] {
        &self.entries
    }

    /// Drop all entries, keeping epsilon and capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Pareto-compare two box-index vectors (minimization).
    fn box_order(a: &[f64], b: &[f64]) -> BoxOrder {
        let mut a_better = false;
        let mut b_better = false;
        for (x, y) in a.iter().zip(b) {
            if x < y {
                a_better = true;
            } else if y < x {
                b_better = true;
            }
            if a_better && b_better {
                return BoxOrder::Incomparable;
            }
        }
        match (a_better, b_better) {
            (true, false) => BoxOrder::Dominates,
            (false, true) => BoxOrder::Dominated,
            (false, false) => BoxOrder::Same,
            (true, true) => BoxOrder::Incomparable, // unreachable: early return above
        }
    }

    /// Squared distance from `objectives` to its box's lower corner —
    /// the within-box quality measure (closer wins, minimization).
    fn corner_distance_sq(&self, objectives: &[f64], box_idx: &[f64]) -> f64 {
        objectives
            .iter()
            .zip(box_idx)
            .map(|(o, b)| {
                let d = o - b * self.epsilon;
                d * d
            })
            .sum()
    }

    /// Offer a solution to the archive. Returns `true` when it was
    /// admitted (possibly replacing a same-box incumbent or evicting
    /// box-dominated entries). Candidates with any non-finite objective
    /// are rejected — the optimizer already quarantines degenerates and
    /// the archive must never seed them back into a population.
    pub fn offer(&mut self, genes: &[f64], objectives: &[f64]) -> bool {
        if objectives.iter().any(|o| !o.is_finite()) {
            return false;
        }
        let epsilon = self.epsilon;
        let candidate_box = box_index(objectives, epsilon);
        // One scan classifying the candidate's box against every entry.
        let mut same_box: Option<usize> = None;
        for (i, entry) in self.entries.iter().enumerate() {
            match EpsilonArchive::box_order(&candidate_box, &box_index(&entry.objectives, epsilon))
            {
                BoxOrder::Dominated => return false,
                BoxOrder::Same => same_box = Some(i),
                BoxOrder::Dominates | BoxOrder::Incomparable => {}
            }
        }
        if let Some(i) = same_box {
            // Same box: replace the incumbent only if the candidate
            // dominates it or sits strictly closer to the box corner
            // (ties keep the incumbent — deterministic and stable).
            let incumbent = &self.entries[i];
            // Objectives are finite and the archive holds no
            // constraints, so the kernel's verdict is plain Pareto
            // dominance.
            let dominates =
                domination_kernel(objectives, 0.0, false, &incumbent.objectives, 0.0, false)
                    == Domination::Left;
            let replaces = dominates
                || self.corner_distance_sq(objectives, &candidate_box)
                    < self.corner_distance_sq(&incumbent.objectives, &candidate_box);
            if replaces {
                self.entries[i] = ArchiveEntry {
                    genes: genes.to_vec(),
                    objectives: objectives.to_vec(),
                };
            }
            return replaces;
        }
        // New box: evict every entry whose box the candidate dominates,
        // then admit (capacity permitting).
        let before = self.entries.len();
        self.entries.retain(|entry| {
            EpsilonArchive::box_order(&candidate_box, &box_index(&entry.objectives, epsilon))
                != BoxOrder::Dominates
        });
        if self.entries.len() >= self.capacity {
            // Full and nothing evicted: reject deterministically. The
            // eviction pass above means this only triggers when the
            // candidate is incomparable to every held box.
            let evicted_nothing = self.entries.len() == before;
            debug_assert!(evicted_nothing, "eviction should have made room");
            return false;
        }
        self.entries.push(ArchiveEntry {
            genes: genes.to_vec(),
            objectives: objectives.to_vec(),
        });
        true
    }
}

/// The box index of an objective vector: `floor(obj / epsilon)` per
/// component. Non-finite components never reach here (such candidates
/// are rejected up front).
fn box_index(objectives: &[f64], epsilon: f64) -> Vec<f64> {
    objectives.iter().map(|o| (o / epsilon).floor()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn archive() -> EpsilonArchive {
        EpsilonArchive::new(0.5, 16)
    }

    #[test]
    fn admits_incomparable_boxes() {
        let mut a = archive();
        assert!(a.offer(&[0.0], &[0.1, 2.1]));
        assert!(a.offer(&[1.0], &[2.1, 0.1]));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn rejects_box_dominated_candidates() {
        let mut a = archive();
        assert!(a.offer(&[0.0], &[0.1, 0.1]));
        // (2.1, 2.1) lives in box (4,4), dominated by box (0,0).
        assert!(!a.offer(&[1.0], &[2.1, 2.1]));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn evicts_entries_the_candidate_box_dominates() {
        let mut a = archive();
        assert!(a.offer(&[0.0], &[2.1, 2.1]));
        assert!(a.offer(&[1.0], &[2.6, 1.6]));
        // Box (0,0) dominates both held boxes: they are evicted.
        assert!(a.offer(&[2.0], &[0.1, 0.1]));
        assert_eq!(a.len(), 1);
        assert_eq!(a.entries()[0].genes, vec![2.0]);
    }

    #[test]
    fn same_box_keeps_the_better_representative() {
        let mut a = archive();
        assert!(a.offer(&[0.0], &[0.4, 0.4]));
        // Same box (0,0); dominates the incumbent — replaces it.
        assert!(a.offer(&[1.0], &[0.3, 0.3]));
        assert_eq!(a.len(), 1);
        assert_eq!(a.entries()[0].genes, vec![1.0]);
        // Same box, incomparable but farther from the corner: rejected.
        assert!(!a.offer(&[2.0], &[0.45, 0.35]));
        assert_eq!(a.entries()[0].genes, vec![1.0]);
        // Same box, incomparable but strictly closer to the corner.
        assert!(a.offer(&[3.0], &[0.2, 0.35]));
        assert_eq!(a.entries()[0].genes, vec![3.0]);
    }

    #[test]
    fn sub_epsilon_noise_does_not_churn_membership() {
        let mut a = archive();
        assert!(a.offer(&[0.0], &[0.1, 2.1]));
        assert!(a.offer(&[1.0], &[2.1, 0.1]));
        // Wiggle each point by well under epsilon without dominating
        // the incumbent: membership must not change.
        assert!(!a.offer(&[2.0], &[0.15, 2.15]));
        assert!(!a.offer(&[3.0], &[2.15, 0.15]));
        assert_eq!(a.len(), 2);
        assert_eq!(a.entries()[0].genes, vec![0.0]);
        assert_eq!(a.entries()[1].genes, vec![1.0]);
    }

    #[test]
    fn capacity_caps_incomparable_growth() {
        let mut a = EpsilonArchive::new(0.5, 2);
        // An anti-chain of boxes: nothing dominates anything.
        assert!(a.offer(&[0.0], &[0.1, 3.1]));
        assert!(a.offer(&[1.0], &[1.1, 2.1]));
        assert!(!a.offer(&[2.0], &[2.1, 1.1]), "archive is full");
        assert_eq!(a.len(), 2);
        // A dominating candidate still gets in by evicting.
        assert!(a.offer(&[3.0], &[0.1, 0.1]));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn rejects_non_finite_objectives() {
        let mut a = archive();
        assert!(!a.offer(&[0.0], &[f64::NAN, 1.0]));
        assert!(!a.offer(&[0.0], &[f64::INFINITY, 1.0]));
        assert!(a.is_empty());
        a.offer(&[1.0], &[0.1, 0.1]);
        a.clear();
        assert!(a.is_empty());
    }
}
