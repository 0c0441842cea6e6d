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
        let id = self.auditor.open(provider, beacon_round, &randomness, deadline)?;
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
    use crate::frame::{Frame, ProofFrame};
    use crate::provider::{ProviderConfig, ProviderNode};
    use crate::transport::{InProcTransport, NetFaultConfig, PartitionWindow};
    use dsaudit_backend::{BackendId, BackendProof};
    use dsaudit_chain::beacon::TrustedBeacon;
    use dsaudit_core::codec::Codec;
    use dsaudit_core::{
        AuditParams, Auditor, DataOwner, DsAuditError, FileMeta, Outcome, StorageProvider,
    };
    use rand::SeedableRng;
    use std::collections::VecDeque;

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
        let seed = 0xc1u64;
        let transport = InProcTransport::new(seed, faults);
        let auditor = AuditorNode::new(0, cfg, seed ^ 0xa0d1);
        (Cluster::new(transport, auditor), TrustedBeacon::new(b"harness"))
    }

    fn attach(cluster: &mut Cluster<InProcTransport>, peer: PeerId, corrupt: bool, cfg: ProviderConfig) {
        let handle = provider_handle(0x9000 + peer as u64, corrupt);
        cluster
            .auditor
            .register_target(peer, handle.public_key().clone(), handle.meta())
            .unwrap();
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
        assert_eq!(track.outcome(), Some(Outcome::Accept));
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
            cluster.auditor.tracks()[&id].outcome(),
            Some(Outcome::Reject(_))
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
        assert_eq!(cluster.auditor.tracks()[&id].outcome(), Some(Outcome::Expired));
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
        assert_eq!(track.outcome(), Some(Outcome::Accept));
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
            cluster.auditor.tracks()[&id].outcome(),
            Some(Outcome::Accept)
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
        assert_eq!(cluster.auditor.tracks().len(), 1);
        assert!(cluster.run_until_settled(60_000));
        // ... and after settlement too: the terminal track is kept and
        // the provider does not prove the round again
        assert_eq!(cluster.issue(1, &mut beacon, 0), None);
        assert_eq!(cluster.auditor.tracks().len(), 1);
        assert_eq!(cluster.providers[&1].open_rounds(), 0);
        // a new beacon round yields a fresh id
        let b = cluster.issue(1, &mut beacon, 1).unwrap();
        assert_ne!(a, b);
        assert!(cluster.run_until_settled(120_000));
        assert_eq!(cluster.auditor.tracks().len(), 2);
        assert_eq!(cluster.providers[&1].stats.proofs_sent, 2);
        assert!(cluster.auditor.audit_invariants().is_empty());
    }

    #[test]
    fn unusable_targets_are_refused_at_registration() {
        let (mut cluster, mut beacon) = cluster(
            NetFaultConfig::reliable(5),
            AuditorConfig::default(),
        );
        let handle = provider_handle(0x9001, false);
        let zero_chunks = FileMeta {
            num_chunks: 0,
            ..handle.meta()
        };
        let refused = cluster
            .auditor
            .register_target(1, handle.public_key().clone(), zero_chunks);
        assert!(matches!(refused, Err(DsAuditError::BadMeta(_))), "{refused:?}");
        let mut no_generator = handle.public_key().clone();
        no_generator.alpha_powers_g1.clear();
        let refused = cluster.auditor.register_target(1, no_generator, handle.meta());
        assert!(matches!(refused, Err(DsAuditError::Malformed { .. })), "{refused:?}");
        // nothing was registered, so no round opens against the peer
        cluster.add_provider(ProviderNode::new(1, handle, ProviderConfig::default(), 0x401));
        assert_eq!(cluster.issue(1, &mut beacon, 0), None);
        assert_eq!(cluster.auditor.tracks().len(), 0);
    }

    /// Hands the auditor a scripted inbox in one step and records every
    /// frame it sends, in send order.
    #[derive(Default)]
    struct Mailbox {
        inbox: VecDeque<(PeerId, Vec<u8>)>,
        sent: Vec<(PeerId, Frame)>,
    }

    impl Transport for Mailbox {
        fn send(&mut self, _now: Millis, _from: PeerId, to: PeerId, wire: Vec<u8>) {
            self.sent.push((to, Frame::from_wire(&wire).unwrap()));
        }

        fn recv(&mut self, _now: Millis, _peer: PeerId) -> Option<(PeerId, Vec<u8>)> {
            self.inbox.pop_front()
        }

        fn next_delivery(&self) -> Option<Millis> {
            None
        }
    }

    #[test]
    fn one_step_batches_per_key_and_settles_in_arrival_order() {
        // peers 1 and 2 hold files under one owner key, peer 3 holds
        // corrupted data under another
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xba7c);
        let params = AuditParams::new(4, 3).unwrap();
        let owner = DataOwner::generate(&mut rng, params);
        let mut holdings = BTreeMap::new();
        for (peer, data) in [(1, [0x11u8; 500]), (2, [0x22u8; 500])] {
            let bundle = owner.outsource(&mut rng, &data);
            holdings.insert(peer, StorageProvider::ingest(&mut rng, bundle).unwrap());
        }
        holdings.insert(3, provider_handle(0x9003, true));

        let mut auditor = AuditorNode::new(0, AuditorConfig::default(), 0xa0d1);
        let mut beacon = TrustedBeacon::new(b"one step");
        let mut proofs = Vec::new();
        for (&peer, holding) in &holdings {
            let pk = holding.public_key().clone();
            auditor.register_target(peer, pk, holding.meta()).unwrap();
            for round in 0..3u64 {
                let beacon_round = 10 * u64::from(peer) + round;
                let randomness = beacon.randomness(beacon_round);
                let id = auditor.open(peer, beacon_round, &randomness, 10_000).unwrap();
                let rc = auditor.tracks()[&id].rc;
                let proof = holding.respond_round(&mut rng, &rc).proof;
                let wire = Frame::Proof(ProofFrame {
                    challenge_id: id,
                    round: rc.round,
                    proof: BackendProof {
                        backend: BackendId::Pairing,
                        bytes: proof.encode(),
                    },
                })
                .to_wire();
                proofs.push((peer, id, proof, wire));
            }
        }
        // what each proof settles with when verified alone
        let alone = Auditor::new();
        let expected: BTreeMap<_, _> = proofs
            .iter()
            .map(|(peer, id, proof, _)| {
                let (holding, rc) = (&holdings[peer], auditor.tracks()[id].rc);
                let verdict = alone
                    .verify_private(holding.public_key(), &holding.meta(), &rc.challenge, proof)
                    .unwrap();
                (*id, verdict)
            })
            .collect();

        // an earlier step settles peer 1's first round
        let mut net = Mailbox::default();
        let (settled_peer, settled_id, _, settled_wire) = &proofs[0];
        net.inbox.push_back((*settled_peer, settled_wire.clone()));
        auditor.step(1, &mut net);
        assert_eq!(auditor.stats.proofs_verified, 1);

        // then one instant brings both keys' proofs interleaved, a
        // duplicate of one of them and a retransmission for the round
        // settled above
        let order = [3, 6, 4, 7, 5, 4, 0, 8, 1, 2];
        net.sent.clear();
        for &i in &order {
            let (peer, _, _, wire) = &proofs[i];
            net.inbox.push_back((*peer, wire.clone()));
        }
        auditor.step(2, &mut net);

        for (id, verdict) in &expected {
            assert_eq!(auditor.tracks()[id].outcome(), Some(Outcome::from(*verdict)));
        }
        let rejected = expected.values().filter(|v| !v.accepted()).count();
        assert_eq!(rejected, 3, "exactly the corrupted peer's rounds reject");
        let a = auditor.stats;
        assert_eq!(a.proofs_verified, proofs.len() as u64, "each round verified once");
        assert_eq!(a.late_proofs, 2, "the duplicate and the retransmission");
        assert_eq!(
            auditor.outcome_counts(),
            (proofs.len() as u64 - 3, 3, 0, 0)
        );
        // every frame of the step is answered, in the order it arrived;
        // the late ones get their round's verdict again
        let sent: Vec<_> = net
            .sent
            .iter()
            .map(|(to, frame)| match frame {
                Frame::Settle(s) => (*to, s.challenge_id, s.accepted),
                Frame::Proof(_) => panic!("the auditor sends only Settle frames"),
            })
            .collect();
        let arrived: Vec<_> = order
            .iter()
            .map(|&i| {
                let (peer, id, _, _) = &proofs[i];
                (*peer, *id, expected[id].accepted())
            })
            .collect();
        assert_eq!(sent, arrived);
        assert!(sent.contains(&(*settled_peer, *settled_id, true)));
        assert!(auditor.audit_invariants().is_empty());
    }
}
