//! Deterministic event loop driving one auditor daemon and a set of
//! provider daemons over a shared transport on a virtual clock.
//!
//! The loop steps every daemon at the current instant, then advances
//! the clock to the earliest of the transport's next delivery and the
//! daemons' next timer wakeups — no busy-waiting, no wall clock, so a
//! run is a pure function of the seeds and the issue schedule.

#![deny(missing_docs)]

use std::collections::BTreeMap;

use dsaudit_chain::beacon::Beacon;

use crate::auditor::AuditorNode;
use crate::frame::ChallengeId;
use crate::provider::ProviderNode;
use crate::transport::{Millis, PeerId, Transport};

/// One auditor + N providers on a shared transport.
pub struct Cluster<T: Transport> {
    /// The shared (typically fault-injecting) transport.
    pub transport: T,
    /// The auditor daemon.
    pub auditor: AuditorNode,
    /// Provider daemons by transport address.
    pub providers: BTreeMap<PeerId, ProviderNode>,
    /// The virtual clock, ms.
    pub now: Millis,
}

impl<T: Transport> Cluster<T> {
    /// A cluster at virtual time zero.
    pub fn new(transport: T, auditor: AuditorNode) -> Self {
        Self {
            transport,
            auditor,
            providers: BTreeMap::new(),
            now: 0,
        }
    }

    /// Attaches a provider daemon (keyed by its peer id).
    pub fn add_provider(&mut self, node: ProviderNode) {
        self.providers.insert(node.peer(), node);
    }

    /// Opens round `beacon_round` against `provider` at the current
    /// instant. The beacon is read once, and the auditor and the
    /// provider daemon each open the round from the same 48 bytes and
    /// the same deadline; no frame is sent. Returns the round's id when
    /// it is newly opened, `None` when `provider` is unknown or the
    /// round was opened before.
    pub fn issue(
        &mut self,
        provider: PeerId,
        beacon: &mut dyn Beacon,
        beacon_round: u64,
    ) -> Option<ChallengeId> {
        let node = self.providers.get_mut(&provider)?;
        let randomness = beacon.randomness(beacon_round);
        let deadline = self.now + self.auditor.ttl_ms();
        let id = self
            .auditor
            .open(self.now, provider, beacon_round, &randomness, deadline)?;
        node.open(self.now, self.auditor.peer(), beacon_round, &randomness, deadline);
        Some(id)
    }

    /// Runs the event loop until every opened round is closed on both
    /// sides — terminal at the auditor, settled or past its deadline at
    /// the provider — or the virtual clock passes `horizon`. Returns
    /// `true` when all rounds closed (the lifecycle invariant); `false`
    /// means the horizon was too short — callers treat that as a lost
    /// round.
    pub fn run_until_settled(&mut self, horizon: Millis) -> bool {
        // horizon is the outer deadline; each round's ttl is the inner
        // one, so termination needs horizon > max ttl deadline
        while self.auditor.pending() > 0 || self.providers.values().any(|p| p.open_rounds() > 0) {
            if self.now > horizon {
                return false;
            }
            // the cluster's virtual time drives obs timestamps, so a
            // trace of a deterministic run is itself reproducible
            dsaudit_obs::tick_virtual(self.now);
            self.auditor.step(self.now, &mut self.transport);
            for provider in self.providers.values_mut() {
                provider.step(self.now, &mut self.transport);
            }
            let mut next = self.transport.next_delivery();
            let mut merge = |t: Option<Millis>| {
                next = match (next, t) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            };
            merge(self.auditor.next_wakeup());
            for provider in self.providers.values() {
                merge(provider.next_wakeup());
            }
            self.now = match next {
                Some(t) if t > self.now => t,
                // an event is due now (e.g. a reordered frame landed at
                // this instant): re-step after a minimal advance
                _ => self.now + 1,
            };
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auditor::AuditorConfig;
    use crate::lifecycle::Outcome;
    use crate::provider::{ProviderConfig, ProviderNode};
    use crate::transport::{InProcTransport, NetFaultConfig, PartitionWindow};
    use dsaudit_chain::beacon::TrustedBeacon;
    use dsaudit_core::{AuditParams, DataOwner, StorageProvider, Verdict};
    use rand::SeedableRng;

    fn provider_handle(seed: u64, corrupt: bool) -> StorageProvider {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let params = AuditParams::new(4, 3).unwrap();
        let owner = DataOwner::generate(&mut rng, params);
        let bundle = owner.outsource(&mut rng, &[0x5au8; 700]);
        let mut provider = StorageProvider::ingest(&mut rng, bundle).unwrap();
        if corrupt {
            // zero every chunk so any sampled subset detects the loss
            for i in 0..provider.meta().num_chunks {
                provider.drop_chunk(i);
            }
        }
        provider
    }

    fn cluster(
        faults: NetFaultConfig,
        cfg: AuditorConfig,
    ) -> (Cluster<InProcTransport>, TrustedBeacon) {
        let transport = InProcTransport::new(0xc1u64, faults);
        let auditor = AuditorNode::new(0, cfg);
        (Cluster::new(transport, auditor), TrustedBeacon::new(b"harness"))
    }

    fn attach(cluster: &mut Cluster<InProcTransport>, peer: PeerId, corrupt: bool, cfg: ProviderConfig) {
        let handle = provider_handle(0x9000 + peer as u64, corrupt);
        cluster
            .auditor
            .register_target(peer, handle.public_key().clone(), handle.meta());
        cluster.add_provider(ProviderNode::new(peer, handle, cfg, 0x400 + peer as u64));
    }

    #[test]
    fn honest_provider_settles_accept_over_reliable_network() {
        let (mut cluster, mut beacon) = cluster(
            NetFaultConfig::reliable(5),
            AuditorConfig::default(),
        );
        attach(&mut cluster, 1, false, ProviderConfig::default());
        let id = cluster.issue(1, &mut beacon, 0).unwrap();
        assert!(cluster.run_until_settled(60_000));
        let track = &cluster.auditor.tracks()[&id];
        assert_eq!(track.outcome, Some(Outcome::Settled(Verdict::Accept)));
        assert!(cluster.auditor.audit_invariants().is_empty());
    }

    #[test]
    fn corrupted_data_settles_reject_not_expiry() {
        let (mut cluster, mut beacon) = cluster(
            NetFaultConfig::reliable(5),
            AuditorConfig::default(),
        );
        attach(&mut cluster, 1, true, ProviderConfig::default());
        let id = cluster.issue(1, &mut beacon, 0).unwrap();
        assert!(cluster.run_until_settled(60_000));
        assert!(matches!(
            cluster.auditor.tracks()[&id].outcome,
            Some(Outcome::Settled(Verdict::Reject(_)))
        ));
    }

    #[test]
    fn partitioned_provider_expires_into_the_penalty_path() {
        let faults = NetFaultConfig {
            partitions: vec![PartitionWindow {
                peer: 1,
                from: 0,
                until: u64::MAX,
            }],
            ..NetFaultConfig::reliable(5)
        };
        let (mut cluster, mut beacon) = cluster(faults, AuditorConfig::default());
        attach(&mut cluster, 1, false, ProviderConfig::default());
        let id = cluster.issue(1, &mut beacon, 0).unwrap();
        assert!(cluster.run_until_settled(60_000));
        assert_eq!(cluster.auditor.tracks()[&id].outcome, Some(Outcome::Expired));
        let provider = &cluster.providers[&1];
        assert!(provider.stats.retries > 0, "the provider retries its proof first");
        assert_eq!((provider.stats.expired, provider.open_rounds()), (1, 0));
        assert!(cluster.auditor.audit_invariants().is_empty());
    }

    #[test]
    fn proof_retries_outlast_a_partition_and_settle_accept() {
        // the proof goes out at prove_ms (40 ms), the first retry
        // 200–300 ms later and the second 400–600 ms after that: a cut
        // over [0, 400) eats the first two sends and lets the third in
        let faults = NetFaultConfig {
            partitions: vec![PartitionWindow {
                peer: 1,
                from: 0,
                until: 400,
            }],
            ..NetFaultConfig::reliable(5)
        };
        let (mut cluster, mut beacon) = cluster(faults, AuditorConfig::default());
        attach(&mut cluster, 1, false, ProviderConfig::default());
        let id = cluster.issue(1, &mut beacon, 0).unwrap();
        assert!(cluster.run_until_settled(60_000));
        let track = &cluster.auditor.tracks()[&id];
        assert_eq!(track.outcome, Some(Outcome::Settled(Verdict::Accept)));
        assert!(cluster.now < track.deadline, "settled before the TTL");
        let provider = &cluster.providers[&1];
        assert!(provider.stats.retries >= 2, "retries: {}", provider.stats.retries);
        assert_eq!(provider.stats.proofs_sent, 1, "proven once, resent verbatim");
        assert!(cluster.transport.stats.partitioned >= 2);
        assert!(cluster.auditor.audit_invariants().is_empty());
    }

    #[test]
    fn lost_settle_is_recovered_by_a_proof_retransmit() {
        // on a reliable 5 ms link the proof leaves at prove_ms and the
        // auditor settles it 5 ms later: a 1 ms cut at that instant
        // eats exactly the first Settle
        const LATENCY: u64 = 5;
        let settle_at = ProviderConfig::default().prove_ms + LATENCY;
        let faults = NetFaultConfig {
            partitions: vec![PartitionWindow {
                peer: 1,
                from: settle_at,
                until: settle_at + 1,
            }],
            ..NetFaultConfig::reliable(LATENCY)
        };
        let (mut cluster, mut beacon) = cluster(faults, AuditorConfig::default());
        attach(&mut cluster, 1, false, ProviderConfig::default());
        let id = cluster.issue(1, &mut beacon, 0).unwrap();
        assert!(cluster.run_until_settled(60_000));
        assert_eq!(cluster.transport.stats.partitioned, 1, "only the first Settle is lost");
        assert_eq!(
            cluster.auditor.tracks()[&id].outcome,
            Some(Outcome::Settled(Verdict::Accept))
        );
        let a = cluster.auditor.stats;
        assert_eq!((a.proofs_verified, a.late_proofs), (1, 1), "verified once, answered twice");
        let provider = &cluster.providers[&1];
        assert_eq!(provider.stats.retries, 1);
        assert_eq!((provider.stats.settled, provider.open_rounds()), (1, 0));
        assert!(cluster.auditor.audit_invariants().is_empty());
    }

    #[test]
    fn ten_opens_against_one_provider_settle_ten_accept() {
        let (mut cluster, mut beacon) = cluster(
            NetFaultConfig::reliable(2),
            AuditorConfig::default(),
        );
        attach(&mut cluster, 1, false, ProviderConfig::default());
        for round in 0..10u64 {
            cluster.issue(1, &mut beacon, round).unwrap();
        }
        assert_eq!(cluster.providers[&1].open_rounds(), 10);
        assert!(cluster.run_until_settled(60_000));
        assert_eq!(cluster.auditor.outcome_counts(), (10, 0, 0, 0));
        let provider = &cluster.providers[&1];
        assert_eq!((provider.stats.proofs_sent, provider.stats.retries), (10, 0));
        assert_eq!((provider.stats.settled, provider.open_rounds()), (10, 0));
        assert!(cluster.auditor.audit_invariants().is_empty());
    }

    #[test]
    fn reissuing_the_same_beacon_round_is_idempotent() {
        let (mut cluster, mut beacon) = cluster(
            NetFaultConfig::reliable(5),
            AuditorConfig::default(),
        );
        attach(&mut cluster, 1, false, ProviderConfig::default());
        let a = cluster.issue(1, &mut beacon, 0).unwrap();
        // a duplicate issue of the same beacon round is a no-op, even
        // while the round is still open
        assert_eq!(cluster.issue(1, &mut beacon, 0), None);
        assert_eq!(cluster.auditor.stats.opened, 1);
        assert!(cluster.run_until_settled(60_000));
        // ... and after settlement too: the terminal track is kept and
        // the provider does not prove the round again
        assert_eq!(cluster.issue(1, &mut beacon, 0), None);
        assert_eq!(cluster.auditor.stats.opened, 1);
        assert_eq!(cluster.providers[&1].open_rounds(), 0);
        // a new beacon round yields a fresh id
        let b = cluster.issue(1, &mut beacon, 1).unwrap();
        assert_ne!(a, b);
        assert!(cluster.run_until_settled(120_000));
        assert_eq!(cluster.auditor.stats.opened, 2);
        assert_eq!(cluster.providers[&1].stats.proofs_sent, 2);
        assert!(cluster.auditor.audit_invariants().is_empty());
    }
}
