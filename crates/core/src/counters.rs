//! The event-counter keys, declared once.
//!
//! Every counter the simulator keeps is a [`CounterKey`] variant, declared
//! in the `counter_keys!` table below with its report name and meaning.
//! README's counter-key registry is rendered from [`CounterKey::ALL`], and
//! the simulation counts only through [`Counters`], whose write API takes
//! a `CounterKey`. A misspelled or undeclared key therefore does not
//! compile, and every key is owned by this crate.
//!
//! Reports still carry a plain [`CounterSet`]: [`Counters`] stores its
//! values there under [`CounterKey::name`], in first-increment order, so
//! the rendered tables do not depend on declaration order.

use dles_sim::CounterSet;

/// Declares the counter keys: the [`CounterKey`] enum (each variant
/// documented by its meaning) and its `ALL`, `name()` and `meaning()`
/// tables, in declaration order.
macro_rules! counter_keys {
    ($($variant:ident = $name:literal: $meaning:literal,)*) => {
        /// One event counter of the simulation.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum CounterKey {
            $(#[doc = $meaning] $variant,)*
        }

        impl CounterKey {
            /// Every key, in declaration (README registry) order.
            pub const ALL: &'static [CounterKey] = &[$(CounterKey::$variant),*];

            /// The key's name in reports and `--counters` tables.
            pub const fn name(self) -> &'static str {
                match self {
                    $(CounterKey::$variant => $name,)*
                }
            }

            /// What the counter counts, as README's registry states it.
            pub const fn meaning(self) -> &'static str {
                match self {
                    $(CounterKey::$variant => $meaning,)*
                }
            }
        }
    };
}

counter_keys! {
    FramesEmitted = "frames_emitted": "sensor frames injected into the pipeline",
    FramesCompleted = "frames_completed": "frames delivered to the host end to end",
    DeadlineMisses = "deadline_misses": "completed frames that arrived after their deadline",
    DuplicateFramesDropped = "duplicate_frames_dropped":
        "retransmitted frames the host had already received",
    FramesLostBrownout = "frames_lost_brownout":
        "frames abandoned because their node was browned out",
    FramesLostMigration = "frames_lost_migration":
        "frames abandoned while their role migrated to another node",
    TransfersData = "transfers_data": "data transfers placed on the serial link",
    TransfersAck = "transfers_ack": "acknowledgement transfers placed on the serial link",
    TransfersLost = "transfers_lost": "transfers dropped in flight or rejected by the PPP FCS",
    TransfersLostOffline = "transfers_lost_offline":
        "transfers unheard because the receiver was browned out",
    Retransmissions = "retransmissions": "data transfers re-sent after an ack timeout",
    AckTimeouts = "ack_timeouts": "ack-wait expirations observed by senders",
    RecvTimeouts = "recv_timeouts": "receive-side timeouts while waiting on an upstream node",
    SendsAbandoned = "sends_abandoned":
        "transfers given up (retry budget spent or sender offline)",
    StateTransitions = "state_transitions":
        "node power-state changes (idle/compute/transfer/sleep)",
    Rotations = "rotations": "role rotations performed",
    RotationsDeferred = "rotations_deferred":
        "rotations postponed while the previous wave is still reconfiguring",
    Migrations = "migrations": "role migrations off a dead or dying node",
    NodeDeaths = "node_deaths": "nodes whose battery reached exhaustion",
    PolicyDecisions = "policy_decisions": "scheduling-policy evaluations at decision points",
    FaultDrops = "fault_drops": "injected link-level frame drops",
    FaultBitErrors = "fault_bit_errors": "injected link bit errors (flipped through the PPP codec)",
    FaultDelays = "fault_delays": "injected link delivery delays",
    FaultBrownouts = "fault_brownouts": "injected transient node brownouts",
    SweepJobs = "sweep_jobs": "jobs submitted to `SweepEngine::run`",
    SweepCacheHits = "sweep_cache_hits":
        "sweep jobs answered from the cross-call simulation cache",
    SweepDedupHits = "sweep_dedup_hits": "sweep jobs deduplicated within a single call",
    SweepSimsRun = "sweep_sims_run": "simulations actually executed by the sweep engine",
}

/// The counters of one simulation or sweep engine. Writes take a
/// [`CounterKey`]; [`Counters::as_set`] is the read-only report view.
#[derive(Debug, Default)]
pub struct Counters(CounterSet);

impl Counters {
    /// Add `n` to `key`'s counter.
    pub fn add(&mut self, key: CounterKey, n: u64) {
        self.0.add(key.name(), n);
    }

    /// Increment `key`'s counter by one.
    pub fn incr(&mut self, key: CounterKey) {
        self.add(key, 1);
    }

    /// The counters keyed by name, in first-increment order.
    pub fn as_set(&self) -> &CounterSet {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_snake_case() {
        for (i, key) in CounterKey::ALL.iter().enumerate() {
            let name = key.name();
            assert!(
                name.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'),
                "{name}"
            );
            assert!(
                CounterKey::ALL[..i].iter().all(|k| k.name() != name),
                "{name} declared twice"
            );
            assert!(!key.meaning().is_empty(), "{name} has no meaning");
        }
    }

    #[test]
    fn counts_by_name_in_first_increment_order() {
        let mut c = Counters::default();
        c.incr(CounterKey::Rotations);
        c.add(CounterKey::FramesEmitted, 3);
        c.incr(CounterKey::Rotations);
        let names: Vec<(&str, u64)> = c.as_set().iter().collect();
        assert_eq!(names, vec![("rotations", 2), ("frames_emitted", 3)]);
    }
}
