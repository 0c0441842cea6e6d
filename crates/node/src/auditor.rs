//! The auditor daemon: opens beacon-derived rounds, verifies the proofs
//! that arrive for them, and settles each one exactly once.
//!
//! The auditor sends no challenge: the provider derives the same
//! challenge from the same beacon output, so the auditor only records
//! the round ([`AuditorNode::open`]) and waits. Each [`AuditorNode::step`]
//! drains every frame due at its instant, picks the first acceptable
//! proof of each open round, and verifies those proofs together: one
//! batch per owner key (§VII-D, [`Auditor::verify_private_each`]), keys
//! in the order their first proof arrived, a lone proof alone. The
//! verdicts are then settled in arrival order, so a verdict, a counter
//! or a `Settle` frame is what verifying each proof as it arrived would
//! give. A late or duplicated proof for a settled round gets the
//! `Settle` notice again (the first one may have been lost), and a round
//! still open at its deadline expires into the contract's penalty path
//! ([`Outcome::Expired`]).

#![deny(missing_docs)]

use std::collections::BTreeMap;

use dsaudit_backend::BackendId;
use dsaudit_core::batch::BatchItem;
use dsaudit_core::codec::Codec;
use dsaudit_core::{
    Auditor, Challenge, DsAuditError, FileMeta, Outcome, PrivateProof, PublicKey, RejectReason,
    RoundChallenge, Verdict,
};
use rand::{rngs::StdRng, SeedableRng};

use crate::frame::{derive_challenge_id, ChallengeId, Frame, ProofFrame, SettleFrame};
use crate::lifecycle::ChallengeTrack;
use crate::transport::{Millis, PeerId, Transport};

/// Tuning knobs of an [`AuditorNode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditorConfig {
    /// Round time-to-live: an unsettled round expires into the penalty
    /// path this many ms after it opens.
    pub ttl_ms: u64,
}

impl Default for AuditorConfig {
    fn default() -> Self {
        Self { ttl_ms: 10_000 }
    }
}

/// Counters over everything an auditor daemon did. A round's opening
/// and outcome are counted by its track ([`AuditorNode::tracks`],
/// [`AuditorNode::outcome_counts`]), not here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditorStats {
    /// Rounds whose proof was verified: one per round, counted when its
    /// verdict settles, whether the proof was checked alone or inside
    /// its owner key's batch.
    pub proofs_verified: u64,
    /// Frames that failed to decode (loss; the provider's proof
    /// retransmission recovers it).
    pub corrupt_frames: u64,
    /// Proofs for already-terminal rounds (refused: settlement is
    /// write-once, so these can never double-settle; a settled round's
    /// `Settle` notice is sent again).
    pub late_proofs: u64,
}

struct Target {
    pk: PublicKey,
    meta: FileMeta,
}

/// What one received proof frame asks of the auditor, decided against
/// the tracks as the step found them.
enum Ingest {
    /// An unknown id, a proof for someone else's round, a body tagged
    /// for another backend or a payload that does not decode under it:
    /// refused, and the round stays open for the provider's
    /// retransmission.
    Refused,
    /// The round is terminal, or an earlier frame of this step carries
    /// its proof.
    Late(ChallengeId),
    /// A proof answering another session round.
    RoundMismatch,
    /// The round's first acceptable proof: settles with its verdict.
    Verify(ChallengeId),
}

/// An auditor attached to the transport as a daemon.
pub struct AuditorNode {
    peer: PeerId,
    auditor: Auditor,
    cfg: AuditorConfig,
    /// Draws the batch weights; seeded by the operator, so a provider
    /// cannot predict them.
    rng: StdRng,
    targets: BTreeMap<PeerId, Target>,
    tracks: BTreeMap<ChallengeId, ChallengeTrack>,
    /// Daemon counters.
    pub stats: AuditorStats,
}

impl AuditorNode {
    /// An auditor daemon at transport address `peer`, drawing its batch
    /// weights from an RNG seeded with `seed`.
    pub fn new(peer: PeerId, cfg: AuditorConfig, seed: u64) -> Self {
        Self {
            peer,
            auditor: Auditor::new(),
            cfg,
            rng: StdRng::seed_from_u64(seed),
            targets: BTreeMap::new(),
            tracks: BTreeMap::new(),
            stats: AuditorStats::default(),
        }
    }

    /// This daemon's transport address.
    pub fn peer(&self) -> PeerId {
        self.peer
    }

    /// Registers a provider to audit: its public key and the audited
    /// file's metadata. Both are checked here, once, so that a proof can
    /// only fail verification by not convincing the auditor.
    ///
    /// # Errors
    /// [`DsAuditError::BadMeta`] on metadata no audit can run against,
    /// [`DsAuditError::Malformed`] on an inconsistent public key; the
    /// target is not registered.
    pub fn register_target(
        &mut self,
        provider: PeerId,
        pk: PublicKey,
        meta: FileMeta,
    ) -> Result<(), DsAuditError> {
        meta.validate()?;
        pk.validate()?;
        self.targets.insert(provider, Target { pk, meta });
        Ok(())
    }

    /// The TTL this auditor gives each round.
    pub fn ttl_ms(&self) -> u64 {
        self.cfg.ttl_ms
    }

    /// Opens the round `beacon_round` against `provider`, from the
    /// beacon's `randomness` for that round, settling by `deadline`.
    /// The audit session round *is* the beacon round. Nothing is sent:
    /// the provider opens the same round from the same beacon output.
    ///
    /// The id is a deterministic function of the file name and the
    /// beacon round. Returns it for a newly opened round, and `None`
    /// when `provider` is not a registered target or the round is
    /// already tracked (opening is idempotent, whatever state the
    /// existing track is in).
    pub fn open(
        &mut self,
        provider: PeerId,
        beacon_round: u64,
        randomness: &[u8; 48],
        deadline: Millis,
    ) -> Option<ChallengeId> {
        let target = self.targets.get(&provider)?;
        let id = derive_challenge_id(&target.meta.name, beacon_round, beacon_round);
        if self.tracks.contains_key(&id) {
            return None;
        }
        let rc = RoundChallenge {
            round: beacon_round,
            challenge: Challenge::from_beacon(randomness),
        };
        self.tracks.insert(id, ChallengeTrack::new(provider, rc, deadline));
        dsaudit_obs::counter_inc("node.session.issued");
        Some(id)
    }

    /// One scheduling step at virtual time `now`, in three passes:
    /// drain the frames due and sort each against the tracks as the
    /// step found them; verify the selected proofs, one batch per owner
    /// key; settle in arrival order. Then expire every open round whose
    /// deadline has passed.
    pub fn step<T: Transport>(&mut self, now: Millis, transport: &mut T) {
        let mut ingests = Vec::new();
        let mut selected = Vec::new();
        // ingest; every frame belongs to a track bounded by its
        // deadline below, so this loop cannot outlive the ttl horizon
        while let Some((from, wire)) = transport.recv(now, self.peer) {
            match Frame::from_wire(&wire) {
                Ok(Frame::Proof(p)) => ingests.push(self.sort_proof(from, p, &mut selected)),
                // the auditor's own frame echoed back: ignore
                Ok(Frame::Settle(_)) => {}
                Err(_) => {
                    self.stats.corrupt_frames += 1;
                    dsaudit_obs::counter_inc("node.corrupt_frames");
                }
            }
        }
        let verdicts = self.verify_selected(selected);
        for ingest in ingests {
            self.settle_proof(now, ingest, &verdicts, transport);
        }
        for track in self.tracks.values_mut() {
            // deadline elapsed: the round expires into the penalty
            // path, exactly once
            if now >= track.deadline && track.settle(Outcome::Expired) {
                dsaudit_obs::counter_inc("node.session.expired");
            }
        }
    }

    /// Sorts one proof frame. The first acceptable proof of an open
    /// round joins `selected`; a later frame for that round is late, as
    /// it would be once the round settled.
    fn sort_proof(
        &self,
        from: PeerId,
        p: ProofFrame,
        selected: &mut Vec<(ChallengeId, PrivateProof)>,
    ) -> Ingest {
        let id = p.challenge_id;
        let Some(track) = self.tracks.get(&id).filter(|t| t.provider == from) else {
            return Ingest::Refused;
        };
        if track.is_terminal() || selected.iter().any(|(s, _)| *s == id) {
            return Ingest::Late(id);
        }
        if p.round != track.rc.round {
            return Ingest::RoundMismatch;
        }
        // the erased body must be tagged for the scheme this auditor
        // verifies, and its payload must decode under it — wire-level
        // problems refuse the proof (retransmission recovers), never
        // settle
        if p.proof.backend != BackendId::Pairing {
            return Ingest::Refused;
        }
        let Ok(proof) = PrivateProof::decode(&p.proof.bytes) else {
            return Ingest::Refused;
        };
        selected.push((id, proof));
        Ingest::Verify(id)
    }

    /// Verdicts for the `selected` proofs: one
    /// [`Auditor::verify_private_each`] batch per owner key, keys in the
    /// order their first proof arrived; a key with one proof verifies
    /// it alone. Each verdict is the one [`Auditor::verify_private`]
    /// gives that proof alone: it rejects only on Eq. (2), so a false
    /// batch flag is that, and the registered metadata cannot make it
    /// fail (an error is rejected, as a batch rejects it).
    fn verify_selected(
        &mut self,
        selected: Vec<(ChallengeId, PrivateProof)>,
    ) -> BTreeMap<ChallengeId, Verdict> {
        let mut groups: Vec<(&PublicKey, Vec<ChallengeId>, Vec<BatchItem<'_>>)> = Vec::new();
        for (id, proof) in selected {
            let Some(track) = self.tracks.get(&id) else {
                continue;
            };
            let Some(target) = self.targets.get(&track.provider) else {
                continue;
            };
            let item = BatchItem {
                pk: &target.pk,
                meta: target.meta,
                challenge: track.rc.challenge,
                proof,
            };
            match groups.iter_mut().find(|(pk, ..)| **pk == target.pk) {
                Some((_, ids, items)) => {
                    ids.push(id);
                    items.push(item);
                }
                None => groups.push((&target.pk, vec![id], vec![item])),
            }
        }
        let mut verdicts = BTreeMap::new();
        for (_, ids, items) in groups {
            let reject = Verdict::Reject(RejectReason::Equation2);
            let group: Vec<Verdict> = match items.as_slice() {
                [item] => vec![self
                    .auditor
                    .verify_private(item.pk, &item.meta, &item.challenge, &item.proof)
                    .unwrap_or(reject)],
                _ => self
                    .auditor
                    .verify_private_each(&mut self.rng, &items)
                    .into_iter()
                    .map(|ok| if ok { Verdict::Accept } else { reject })
                    .collect(),
            };
            verdicts.extend(ids.into_iter().zip(group));
        }
        verdicts
    }

    /// Applies one sorted frame, in arrival order: counts a refusal, or
    /// settles a selected proof with its verdict. The round's `Settle`
    /// notice then goes out, again for a late proof (the first notice
    /// may have been lost); an expired round has none.
    fn settle_proof<T: Transport>(
        &mut self,
        now: Millis,
        ingest: Ingest,
        verdicts: &BTreeMap<ChallengeId, Verdict>,
        transport: &mut T,
    ) {
        let id = match ingest {
            Ingest::Verify(id) => {
                let (Some(&verdict), Some(track)) = (verdicts.get(&id), self.tracks.get_mut(&id))
                else {
                    return;
                };
                self.stats.proofs_verified += 1;
                dsaudit_obs::counter_inc("node.proofs_verified");
                if track.settle(verdict.into()) {
                    dsaudit_obs::counter_inc(if verdict.accepted() {
                        "node.session.settled_accept"
                    } else {
                        "node.session.settled_reject"
                    });
                }
                id
            }
            Ingest::Late(id) => {
                // write-once settlement: a proof racing the deadline, a
                // duplicated frame or a retransmission whose `Settle` was
                // lost cannot settle a second time
                self.stats.late_proofs += 1;
                dsaudit_obs::counter_inc("node.late_proofs");
                id
            }
            Ingest::Refused => return,
            Ingest::RoundMismatch => {
                // wrong session round: refuse, keep the round open
                dsaudit_obs::counter_inc("node.round_mismatches");
                return;
            }
        };
        let Some(track) = self.tracks.get(&id) else {
            return;
        };
        if let Some(outcome) = track.outcome().filter(|o| *o != Outcome::Expired) {
            let frame = Frame::Settle(SettleFrame {
                challenge_id: id,
                accepted: outcome.accepted(),
            });
            transport.send(now, self.peer, track.provider, frame.to_wire());
        }
    }

    /// Rounds not yet terminal.
    pub fn pending(&self) -> usize {
        self.tracks.values().filter(|t| !t.is_terminal()).count()
    }

    /// Earliest future instant any track needs attention.
    pub fn next_wakeup(&self) -> Option<Millis> {
        self.tracks.values().filter_map(|t| t.next_wakeup()).min()
    }

    /// All tracks, keyed by challenge id (terminal and pending).
    pub fn tracks(&self) -> &BTreeMap<ChallengeId, ChallengeTrack> {
        &self.tracks
    }

    /// `(accept, reject, expired, pending)` counts over all tracks.
    pub fn outcome_counts(&self) -> (u64, u64, u64, u64) {
        let mut counts = (0, 0, 0, 0);
        for track in self.tracks.values() {
            match track.outcome() {
                Some(Outcome::Accept) => counts.0 += 1,
                Some(Outcome::Reject(_)) => counts.1 += 1,
                Some(Outcome::Expired) => counts.2 += 1,
                None => counts.3 += 1,
            }
        }
        counts
    }

    /// Checks the terminal-state invariant over all tracks: every
    /// round reached a terminal outcome (a track's outcome is written
    /// once, by [`ChallengeTrack::settle`], so none has two). Returns
    /// human-readable violations (empty = invariant holds).
    pub fn audit_invariants(&self) -> Vec<String> {
        let (.., pending) = self.outcome_counts();
        let mut violations = Vec::new();
        if pending > 0 {
            violations.push(format!("{pending} challenge(s) never reached a terminal state"));
        }
        violations
    }
}
