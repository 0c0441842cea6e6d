//! The provider daemon: opens each round from the beacon, proves it
//! once, and retransmits the proof until the auditor settles it.
//!
//! No challenge reaches the provider over the network. It derives the
//! round's challenge and id from the same beacon output the auditor
//! used ([`ProviderNode::open`]), proves after `prove_ms` of virtual
//! time, and keeps the proof's wire bytes. The proof is resent under the
//! [`RetryPolicy`] until a `Settle` notice arrives or the round's
//! deadline passes; either one closes the round and drops the proof.

#![deny(missing_docs)]

use std::collections::BTreeMap;

use dsaudit_backend::{BackendId, BackendProof};
use dsaudit_core::codec::Codec;
use dsaudit_core::{Challenge, RoundChallenge, StorageProvider};
use rand::{rngs::StdRng, SeedableRng};

use crate::frame::{derive_challenge_id, ChallengeId, Frame, ProofFrame};
use crate::lifecycle::RetryPolicy;
use crate::transport::{Millis, PeerId, Transport};

/// Tuning knobs of a [`ProviderNode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProviderConfig {
    /// Virtual time one proof takes to compute, ms.
    pub prove_ms: u64,
    /// Proof retransmission policy.
    pub retry: RetryPolicy,
}

impl Default for ProviderConfig {
    fn default() -> Self {
        Self {
            prove_ms: 40,
            retry: RetryPolicy::default(),
        }
    }
}

/// Counters over everything a provider daemon did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProviderStats {
    /// Frames that failed to decode (treated as loss; the proof
    /// retransmission recovers a lost `Settle`).
    pub corrupt_frames: u64,
    /// Proofs computed and sent, one per round that reached its prove
    /// time.
    pub proofs_sent: u64,
    /// Proof retransmissions.
    pub retries: u64,
    /// Rounds closed by a `Settle` notice.
    pub settled: u64,
    /// Rounds closed by their deadline without a `Settle` notice.
    pub expired: u64,
}

/// One open round on the provider side.
struct Job {
    auditor: PeerId,
    rc: RoundChallenge,
    deadline: Millis,
    /// The proof's wire bytes, once computed; resent verbatim.
    wire: Option<Vec<u8>>,
    /// Sends of the proof so far.
    sends: u32,
    /// When the job next needs work — its prove time, then each
    /// retransmission; `None` once the retry budget is spent.
    next_at: Option<Millis>,
}

/// A storage provider attached to the transport as a daemon.
pub struct ProviderNode {
    peer: PeerId,
    provider: StorageProvider,
    cfg: ProviderConfig,
    rng: StdRng,
    jobs: BTreeMap<ChallengeId, Job>,
    /// Daemon counters.
    pub stats: ProviderStats,
}

impl ProviderNode {
    /// Attaches `provider` to the transport as `peer`; `seed` fixes the
    /// proof-blinding randomness.
    pub fn new(peer: PeerId, provider: StorageProvider, cfg: ProviderConfig, seed: u64) -> Self {
        Self {
            peer,
            provider,
            cfg,
            rng: StdRng::seed_from_u64(seed),
            jobs: BTreeMap::new(),
            stats: ProviderStats::default(),
        }
    }

    /// This daemon's transport address.
    pub fn peer(&self) -> PeerId {
        self.peer
    }

    /// The underlying storage-provider role handle (for fault
    /// injection in tests: corrupting or dropping held data).
    pub fn provider_mut(&mut self) -> &mut StorageProvider {
        &mut self.provider
    }

    /// Opens the round `beacon_round` from the beacon's `randomness` for
    /// that round, to be answered to `auditor` by `deadline`, and queues
    /// one prove `prove_ms` from `now`. The id and the challenge are
    /// derived here, from the held file's name and the beacon output —
    /// the same derivation the auditor runs. Opening a round that is
    /// already open changes nothing.
    pub fn open(
        &mut self,
        now: Millis,
        auditor: PeerId,
        beacon_round: u64,
        randomness: &[u8; 48],
        deadline: Millis,
    ) -> ChallengeId {
        let id = derive_challenge_id(&self.provider.meta().name, beacon_round, beacon_round);
        self.jobs.entry(id).or_insert_with(|| Job {
            auditor,
            rc: RoundChallenge {
                round: beacon_round,
                challenge: Challenge::from_beacon(randomness),
            },
            deadline,
            wire: None,
            sends: 0,
            next_at: Some(now + self.cfg.prove_ms),
        });
        id
    }

    /// The challenge of an open round, if `id` is one.
    pub fn open_round(&self, id: &ChallengeId) -> Option<&RoundChallenge> {
        self.jobs.get(id).map(|job| &job.rc)
    }

    /// Rounds opened and not yet closed by a `Settle` or their deadline.
    pub fn open_rounds(&self) -> usize {
        self.jobs.len()
    }

    /// Earliest future instant a round needs work: a prove, a
    /// retransmission or a deadline.
    pub fn next_wakeup(&self) -> Option<Millis> {
        self.jobs
            .values()
            .map(|j| j.next_at.map_or(j.deadline, |t| t.min(j.deadline)))
            .min()
    }

    /// One scheduling step at virtual time `now`: ingest `Settle`
    /// notices, close rounds past their deadline, then prove or
    /// retransmit every round that is due.
    pub fn step<T: Transport>(&mut self, now: Millis, transport: &mut T) {
        // ingest; every frame closes at most one job, and jobs are
        // bounded by the deadline sweep below
        while let Some((from, wire)) = transport.recv(now, self.peer) {
            match Frame::from_wire(&wire) {
                Ok(Frame::Settle(s)) => {
                    // idempotent: a duplicated or re-sent notice finds
                    // the job already gone
                    if self.jobs.get(&s.challenge_id).is_some_and(|j| j.auditor == from) {
                        self.jobs.remove(&s.challenge_id);
                        self.stats.settled += 1;
                    }
                }
                // a provider-sent frame echoed back: ignore
                Ok(Frame::Proof(_)) => {}
                Err(_) => self.stats.corrupt_frames += 1,
            }
        }
        // past its deadline the auditor has expired the round: drop it
        let before = self.jobs.len();
        self.jobs.retain(|_, j| now < j.deadline);
        self.stats.expired += (before - self.jobs.len()) as u64;

        for (id, job) in &mut self.jobs {
            if !job.next_at.is_some_and(|t| now >= t) {
                continue;
            }
            let wire = match &job.wire {
                Some(wire) => {
                    self.stats.retries += 1;
                    dsaudit_obs::counter_inc("node.retries");
                    wire
                }
                None => {
                    let response = self.provider.respond_round(&mut self.rng, &job.rc);
                    // the daemon speaks the pairing scheme; the proof
                    // crosses the wire as an erased, backend-tagged body
                    let frame = Frame::Proof(ProofFrame {
                        challenge_id: *id,
                        round: response.round,
                        proof: BackendProof {
                            backend: BackendId::Pairing,
                            bytes: response.proof.encode(),
                        },
                    });
                    self.stats.proofs_sent += 1;
                    dsaudit_obs::counter_inc("node.provider.proofs_sent");
                    &*job.wire.insert(frame.to_wire())
                }
            };
            transport.send(now, self.peer, job.auditor, wire.clone());
            job.sends += 1;
            job.next_at = (job.sends <= self.cfg.retry.max_retries)
                .then(|| now + self.cfg.retry.backoff_ms(id, job.sends));
        }
    }
}
