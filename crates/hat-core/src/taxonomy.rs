//! The HAT taxonomy: Table 3 and the partial order of Figure 2.
//!
//! Every isolation / replica-consistency / session model discussed in the
//! paper is a [`Model`]; each has an [`Availability`] class (highly
//! available, sticky available, unavailable — Table 3) and the strength
//! edges of Figure 2 define a partial order. The paper notes the diagram
//! "depicts 144 possible HAT combinations": we compute that number
//! directly as the antichains of the HA + sticky sub-order (sets of
//! mutually incomparable achievable models).

use std::fmt;

/// Availability classification of a model (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Availability {
    /// Achievable with (non-sticky) high availability.
    HighlyAvailable,
    /// Achievable with sticky availability only.
    Sticky,
    /// Unachievable in a HAT system; the payload says why.
    Unavailable(Unavailability),
}

/// Why a model is unavailable (the †/‡/⊕ footnotes of Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Unavailability {
    /// Requires preventing Lost Update (†).
    pub prevents_lost_update: bool,
    /// Requires preventing Write Skew (‡).
    pub prevents_write_skew: bool,
    /// Requires recency guarantees (⊕).
    pub requires_recency: bool,
}

/// The consistency / isolation models of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // the variants are the paper's own acronyms
pub enum Model {
    ReadUncommitted,
    ReadCommitted,
    ItemCutIsolation,
    PredicateCutIsolation,
    MonotonicAtomicView,
    ReadAtomic,
    MonotonicReads,
    MonotonicWrites,
    WritesFollowReads,
    ReadYourWrites,
    Pram,
    Causal,
    CursorStability,
    SnapshotIsolation,
    RepeatableRead,
    OneCopySerializability,
    Recency,
    Safe,
    Regular,
    Linearizability,
    StrongOneCopySerializability,
}

impl Model {
    /// All models, in Table 3 order (HA, then sticky, then unavailable).
    /// The Read Atomic row is the RAMP follow-up addition: RA is proven
    /// achievable with high availability (reader-side repair needs no
    /// blocking coordination), slotting strictly between MAV and the
    /// unavailable snapshot levels.
    pub const ALL: [Model; 21] = [
        Model::ReadUncommitted,
        Model::ReadCommitted,
        Model::ItemCutIsolation,
        Model::PredicateCutIsolation,
        Model::MonotonicAtomicView,
        Model::ReadAtomic,
        Model::MonotonicReads,
        Model::MonotonicWrites,
        Model::WritesFollowReads,
        Model::ReadYourWrites,
        Model::Pram,
        Model::Causal,
        Model::CursorStability,
        Model::SnapshotIsolation,
        Model::RepeatableRead,
        Model::OneCopySerializability,
        Model::Recency,
        Model::Safe,
        Model::Regular,
        Model::Linearizability,
        Model::StrongOneCopySerializability,
    ];

    /// The paper's acronym for the model.
    pub fn acronym(self) -> &'static str {
        match self {
            Model::ReadUncommitted => "RU",
            Model::ReadCommitted => "RC",
            Model::ItemCutIsolation => "I-CI",
            Model::PredicateCutIsolation => "P-CI",
            Model::MonotonicAtomicView => "MAV",
            Model::ReadAtomic => "RA",
            Model::MonotonicReads => "MR",
            Model::MonotonicWrites => "MW",
            Model::WritesFollowReads => "WFR",
            Model::ReadYourWrites => "RYW",
            Model::Pram => "PRAM",
            Model::Causal => "causal",
            Model::CursorStability => "CS",
            Model::SnapshotIsolation => "SI",
            Model::RepeatableRead => "RR",
            Model::OneCopySerializability => "1SR",
            Model::Recency => "recency",
            Model::Safe => "safe",
            Model::Regular => "regular",
            Model::Linearizability => "linearizable",
            Model::StrongOneCopySerializability => "Strong-1SR",
        }
    }

    /// Availability class (Table 3).
    pub fn availability(self) -> Availability {
        use Model::*;
        let unav = |lu, ws, rec| {
            Availability::Unavailable(Unavailability {
                prevents_lost_update: lu,
                prevents_write_skew: ws,
                requires_recency: rec,
            })
        };
        match self {
            ReadUncommitted
            | ReadCommitted
            | ItemCutIsolation
            | PredicateCutIsolation
            | MonotonicAtomicView
            | ReadAtomic
            | MonotonicReads
            | MonotonicWrites
            | WritesFollowReads => Availability::HighlyAvailable,
            ReadYourWrites | Pram | Causal => Availability::Sticky,
            CursorStability => unav(true, false, false),
            SnapshotIsolation => unav(true, false, false),
            RepeatableRead => unav(true, true, false),
            OneCopySerializability => unav(true, true, false),
            Recency | Safe | Regular | Linearizability => unav(false, false, true),
            StrongOneCopySerializability => unav(true, true, true),
        }
    }

    /// True if achievable in some HAT system (HA or sticky).
    pub fn hat_achievable(self) -> bool {
        !matches!(self.availability(), Availability::Unavailable(_))
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.acronym())
    }
}

/// Direct strength edges of Figure 2: `(stronger, weaker)` — the stronger
/// model implies the weaker.
pub const EDGES: &[(Model, Model)] = &[
    // isolation spine
    (Model::ReadCommitted, Model::ReadUncommitted),
    (Model::MonotonicAtomicView, Model::ReadCommitted),
    (Model::ItemCutIsolation, Model::ReadUncommitted),
    (Model::PredicateCutIsolation, Model::ItemCutIsolation),
    (Model::CursorStability, Model::MonotonicAtomicView),
    // RA (RAMP): no fractured reads — strictly stronger than MAV's
    // order-aware atomic view, still below SI/RR (no predicates, no
    // lost-update prevention).
    (Model::ReadAtomic, Model::MonotonicAtomicView),
    (Model::SnapshotIsolation, Model::ReadAtomic),
    (Model::RepeatableRead, Model::ReadAtomic),
    (Model::RepeatableRead, Model::PredicateCutIsolation),
    (Model::RepeatableRead, Model::MonotonicAtomicView),
    (Model::SnapshotIsolation, Model::MonotonicAtomicView),
    (Model::SnapshotIsolation, Model::PredicateCutIsolation),
    (Model::OneCopySerializability, Model::RepeatableRead),
    (Model::OneCopySerializability, Model::SnapshotIsolation),
    (Model::OneCopySerializability, Model::CursorStability),
    (Model::OneCopySerializability, Model::Causal),
    // session guarantees
    (Model::Pram, Model::MonotonicReads),
    (Model::Pram, Model::MonotonicWrites),
    (Model::Pram, Model::ReadYourWrites),
    (Model::Causal, Model::Pram),
    (Model::Causal, Model::WritesFollowReads),
    // §5.1.3/§5.1.2: causal consistency is Adya's PL-2L, and MAV sits
    // below PL-2L — so causal entails MAV.
    (Model::Causal, Model::MonotonicAtomicView),
    // register / recency spine
    (Model::Safe, Model::Recency),
    (Model::Regular, Model::Safe),
    (Model::Linearizability, Model::Regular),
    (Model::StrongOneCopySerializability, Model::Linearizability),
    (
        Model::StrongOneCopySerializability,
        Model::OneCopySerializability,
    ),
];

/// The Figure 2 lattice with reachability precomputed.
#[derive(Debug, Clone)]
pub struct Taxonomy {
    /// `stronger_than[i][j]` — model `i` (by [`Model::ALL`] index) is
    /// strictly stronger than model `j`.
    stronger: Vec<Vec<bool>>,
}

impl Default for Taxonomy {
    fn default() -> Self {
        Self::new()
    }
}

impl Taxonomy {
    /// Builds the taxonomy (transitive closure of [`EDGES`]).
    pub fn new() -> Self {
        let n = Model::ALL.len();
        let mut stronger = vec![vec![false; n]; n];
        for &(a, b) in EDGES {
            stronger[Self::idx(a)][Self::idx(b)] = true;
        }
        // Floyd–Warshall closure.
        for k in 0..n {
            for i in 0..n {
                if stronger[i][k] {
                    let row_k = stronger[k].clone();
                    for (dst, &via) in stronger[i].iter_mut().zip(row_k.iter()) {
                        if via {
                            *dst = true;
                        }
                    }
                }
            }
        }
        Taxonomy { stronger }
    }

    fn idx(m: Model) -> usize {
        Model::ALL.iter().position(|x| *x == m).unwrap()
    }

    /// True if `a` is strictly stronger than `b` (implies it).
    pub fn stronger_than(&self, a: Model, b: Model) -> bool {
        self.stronger[Self::idx(a)][Self::idx(b)]
    }

    /// True if the two models are incomparable (neither implies the
    /// other) — such models are simultaneously achievable.
    pub fn incomparable(&self, a: Model, b: Model) -> bool {
        a != b && !self.stronger_than(a, b) && !self.stronger_than(b, a)
    }

    /// All models implied by `m` (its downset, excluding `m`).
    pub fn implied_by(&self, m: Model) -> Vec<Model> {
        Model::ALL
            .iter()
            .copied()
            .filter(|&x| self.stronger_than(m, x))
            .collect()
    }

    /// The availability of a *combination* of models: "the availability
    /// of a combination of models has the availability of the least
    /// available individual model" (Figure 2 caption).
    pub fn combination_availability(&self, models: &[Model]) -> Availability {
        let mut worst = Availability::HighlyAvailable;
        for &m in models {
            worst = match (worst, m.availability()) {
                (_, u @ Availability::Unavailable(_)) => return u,
                (Availability::HighlyAvailable, a) => a,
                (w, _) => w,
            };
        }
        worst
    }

    /// Every non-empty antichain (set of pairwise-incomparable models)
    /// of the achievable (HA + sticky) sub-order, each listed in
    /// [`Model`] order.
    fn hat_antichains(&self) -> Vec<Vec<Model>> {
        let achievable: Vec<Model> = Model::ALL
            .iter()
            .copied()
            .filter(|m| m.hat_achievable())
            .collect();
        let n = achievable.len();
        // 2^12 subsets: trivially enumerable.
        (1u32..(1 << n))
            .map(|mask| {
                (0..n)
                    .filter(|&i| mask & (1 << i) != 0)
                    .map(|i| achievable[i])
                    .collect::<Vec<Model>>()
            })
            .filter(|members| {
                members
                    .iter()
                    .enumerate()
                    .all(|(i, &a)| members[i + 1..].iter().all(|&b| self.incomparable(a, b)))
            })
            .collect()
    }

    /// Counts the antichains of the achievable sub-order, *excluding*
    /// the empty set.
    ///
    /// Over the 12 achievable models — the paper's 11 plus the RAMP
    /// follow-up's Read Atomic — and this module's edge set, the
    /// non-empty antichains number 239. The paper's Figure 2 caption says
    /// the diagram "depicts 144 possible HAT combinations" under a
    /// counting convention the paper does not state, so the two numbers
    /// are not expected to agree; `exp_fig2` prints both.
    pub fn count_hat_combinations(&self) -> usize {
        self.hat_antichains().len()
    }

    /// Strongest achievable combinations: maximal antichains of the
    /// achievable sub-order (e.g. causal + P-CI + MAV), sorted.
    pub fn maximal_hat_combinations(&self) -> Vec<Vec<Model>> {
        let antichains = self.hat_antichains();
        let within = |a: &[Model], b: &[Model]| a.iter().all(|m| b.contains(m));
        let mut maximal: Vec<Vec<Model>> = antichains
            .iter()
            .filter(|a| !antichains.iter().any(|b| a.len() < b.len() && within(a, b)))
            .cloned()
            .collect();
        maximal.sort();
        maximal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_classification_matches_paper() {
        use Availability::*;
        assert_eq!(Model::ReadCommitted.availability(), HighlyAvailable);
        assert_eq!(Model::MonotonicAtomicView.availability(), HighlyAvailable);
        assert_eq!(
            Model::ReadAtomic.availability(),
            HighlyAvailable,
            "Table 3 RA row: Read Atomic is achievable with high availability"
        );
        assert_eq!(Model::PredicateCutIsolation.availability(), HighlyAvailable);
        assert_eq!(Model::ReadYourWrites.availability(), Sticky);
        assert_eq!(Model::Pram.availability(), Sticky);
        assert_eq!(Model::Causal.availability(), Sticky);
        for m in [
            Model::CursorStability,
            Model::SnapshotIsolation,
            Model::RepeatableRead,
            Model::OneCopySerializability,
            Model::Linearizability,
            Model::StrongOneCopySerializability,
        ] {
            assert!(!m.hat_achievable(), "{m} must be unavailable");
        }
    }

    #[test]
    fn unavailability_reasons_match_footnotes() {
        // SI is † (lost update), RR is †‡, linearizability is ⊕,
        // Strong-1SR is †‡⊕.
        let Availability::Unavailable(si) = Model::SnapshotIsolation.availability() else {
            panic!()
        };
        assert!(si.prevents_lost_update && !si.prevents_write_skew && !si.requires_recency);
        let Availability::Unavailable(rr) = Model::RepeatableRead.availability() else {
            panic!()
        };
        assert!(rr.prevents_lost_update && rr.prevents_write_skew);
        let Availability::Unavailable(lin) = Model::Linearizability.availability() else {
            panic!()
        };
        assert!(lin.requires_recency && !lin.prevents_lost_update);
        let Availability::Unavailable(s1sr) = Model::StrongOneCopySerializability.availability()
        else {
            panic!()
        };
        assert!(s1sr.prevents_lost_update && s1sr.prevents_write_skew && s1sr.requires_recency);
    }

    #[test]
    fn strength_order_is_transitive_and_matches_figure2() {
        let t = Taxonomy::new();
        // direct edges
        assert!(t.stronger_than(Model::ReadCommitted, Model::ReadUncommitted));
        assert!(t.stronger_than(Model::Causal, Model::Pram));
        // transitive: Strong-1SR entails everything else
        for m in Model::ALL {
            if m != Model::StrongOneCopySerializability {
                assert!(
                    t.stronger_than(Model::StrongOneCopySerializability, m),
                    "Strong-1SR must entail {m}"
                );
            }
        }
        // causal implies all four session guarantees
        for g in [
            Model::MonotonicReads,
            Model::MonotonicWrites,
            Model::ReadYourWrites,
            Model::WritesFollowReads,
        ] {
            assert!(t.stronger_than(Model::Causal, g));
        }
    }

    #[test]
    fn incomparable_models_exist() {
        let t = Taxonomy::new();
        // MAV and P-CI are incomparable (combining them gives
        // "transactional snapshot reads", §5.3)
        assert!(t.incomparable(Model::MonotonicAtomicView, Model::PredicateCutIsolation));
        assert!(t.incomparable(Model::Pram, Model::MonotonicAtomicView));
        assert!(!t.incomparable(Model::Causal, Model::ReadYourWrites));
        // causal entails MAV (PL-2L), so they are comparable
        assert!(t.stronger_than(Model::Causal, Model::MonotonicAtomicView));
    }

    #[test]
    fn combination_availability_is_least_available() {
        let t = Taxonomy::new();
        assert_eq!(
            t.combination_availability(&[Model::ReadCommitted, Model::MonotonicReads]),
            Availability::HighlyAvailable
        );
        assert_eq!(
            t.combination_availability(&[Model::ReadCommitted, Model::ReadYourWrites]),
            Availability::Sticky
        );
        assert!(matches!(
            t.combination_availability(&[Model::Causal, Model::SnapshotIsolation]),
            Availability::Unavailable(_)
        ));
    }

    #[test]
    fn hat_combination_count_is_stable() {
        // Figure 2's caption counts "144 possible HAT combinations"
        // (convention unspecified); our non-empty antichain count over
        // the paper's 11 achievable models was 182. Adding the RAMP
        // follow-up's Read Atomic row (12 achievable models) grows the
        // count to 239 — locked in here so the lattice cannot silently
        // drift.
        let t = Taxonomy::new();
        assert_eq!(t.count_hat_combinations(), 239);
    }

    #[test]
    fn maximal_combinations_include_the_papers_favourites() {
        let t = Taxonomy::new();
        let maximal = t.maximal_hat_combinations();
        // §5.3: "If we combine all HAT and sticky guarantees, we have
        // transactional, causally consistent snapshot reads" — causal +
        // P-CI (causal already entails MAV via PL-2L). The RAMP
        // follow-up strengthens the combination with Read Atomic, which
        // is incomparable to both: RA + causal + P-CI is the new
        // strongest achievable point.
        let favourite = vec![
            Model::PredicateCutIsolation,
            Model::ReadAtomic,
            Model::Causal,
        ];
        let mut sorted = favourite.clone();
        sorted.sort();
        assert!(
            maximal.contains(&sorted),
            "expected {sorted:?} among maximal combinations {maximal:?}"
        );
    }
}
