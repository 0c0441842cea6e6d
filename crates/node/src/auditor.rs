//! The auditor daemon: opens beacon-derived rounds, verifies the proofs
//! that arrive for them, and settles each one exactly once.
//!
//! The auditor sends no challenge: the provider derives the same
//! challenge from the same beacon output, so the auditor only records
//! the round ([`AuditorNode::open`]) and waits. A proof is verified
//! once; a late or duplicated proof for a settled round gets the
//! `Settle` notice again (the first one may have been lost), and a round
//! still open at its deadline expires into the contract's penalty path
//! ([`Outcome::Expired`]).

#![deny(missing_docs)]

use std::collections::BTreeMap;

use dsaudit_backend::BackendId;
use dsaudit_core::codec::Codec;
use dsaudit_core::{
    Auditor, Challenge, FileMeta, PrivateProof, PublicKey, RoundChallenge, Verdict,
};

use crate::frame::{derive_challenge_id, ChallengeId, Frame, ProofFrame, SettleFrame};
use crate::lifecycle::{ChallengeTrack, Outcome};
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

/// Counters over everything an auditor daemon did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditorStats {
    /// Rounds opened (unique ids).
    pub opened: u64,
    /// Proofs verified (pairing check run).
    pub proofs_verified: u64,
    /// Terminal `Settled(Accept)` outcomes.
    pub settled_accept: u64,
    /// Terminal `Settled(Reject)` outcomes.
    pub settled_reject: u64,
    /// Terminal `Expired` outcomes.
    pub expired: u64,
    /// Frames that failed to decode (loss; the provider's proof
    /// retransmission recovers it).
    pub corrupt_frames: u64,
    /// Proofs for already-terminal rounds (refused: settlement is
    /// write-once, so these can never double-settle; a settled round's
    /// `Settle` notice is sent again).
    pub late_proofs: u64,
    /// Proofs answering the wrong session round (refused).
    pub round_mismatches: u64,
    /// Proofs for unknown challenge ids or for another provider's round.
    pub unknown_ids: u64,
    /// Proof bodies tagged for a backend this auditor cannot verify,
    /// or whose payload failed its backend decode (refused; the
    /// round stays open and the provider's retransmission recovers).
    pub backend_mismatches: u64,
}

struct Target {
    pk: PublicKey,
    meta: FileMeta,
}

/// An auditor attached to the transport as a daemon.
pub struct AuditorNode {
    peer: PeerId,
    auditor: Auditor,
    cfg: AuditorConfig,
    targets: BTreeMap<PeerId, Target>,
    tracks: BTreeMap<ChallengeId, ChallengeTrack>,
    /// Daemon counters.
    pub stats: AuditorStats,
}

impl AuditorNode {
    /// An auditor daemon at transport address `peer`.
    pub fn new(peer: PeerId, cfg: AuditorConfig) -> Self {
        Self {
            peer,
            auditor: Auditor::new(),
            cfg,
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
    /// file's metadata.
    pub fn register_target(&mut self, provider: PeerId, pk: PublicKey, meta: FileMeta) {
        self.targets.insert(provider, Target { pk, meta });
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
        now: Millis,
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
        let track = ChallengeTrack {
            provider,
            rc: RoundChallenge {
                round: beacon_round,
                challenge: Challenge::from_beacon(randomness),
            },
            opened_at: now,
            deadline,
            outcome: None,
        };
        self.tracks.insert(id, track);
        self.stats.opened += 1;
        dsaudit_obs::counter_inc("node.session.issued");
        Some(id)
    }

    /// One scheduling step at virtual time `now`: ingest frames, then
    /// expire every open round whose deadline has passed.
    pub fn step<T: Transport>(&mut self, now: Millis, transport: &mut T) {
        // ingest; every frame belongs to a track bounded by its
        // deadline below, so this loop cannot outlive the ttl horizon
        while let Some((from, wire)) = transport.recv(now, self.peer) {
            match Frame::from_wire(&wire) {
                Ok(Frame::Proof(p)) => self.handle_proof(now, from, p, transport),
                // the auditor's own frame echoed back: ignore
                Ok(Frame::Settle(_)) => {}
                Err(_) => {
                    self.stats.corrupt_frames += 1;
                    dsaudit_obs::counter_inc("node.corrupt_frames");
                }
            }
        }
        for track in self.tracks.values_mut() {
            // deadline elapsed: the round expires into the penalty
            // path, exactly once
            if now >= track.deadline && track.settle(Outcome::Expired) {
                self.stats.expired += 1;
                dsaudit_obs::counter_inc("node.session.expired");
            }
        }
    }

    fn handle_proof<T: Transport>(
        &mut self,
        now: Millis,
        from: PeerId,
        p: ProofFrame,
        transport: &mut T,
    ) {
        let id = p.challenge_id;
        let Some(track) = self.tracks.get(&id).filter(|t| t.provider == from) else {
            // an unknown id, or a proof for someone else's round
            self.stats.unknown_ids += 1;
            return;
        };
        if track.is_terminal() {
            // write-once settlement: a proof racing the deadline, a
            // duplicated frame or a retransmission whose `Settle` was
            // lost cannot settle a second time, but the settle notice
            // is sent again when one exists
            self.stats.late_proofs += 1;
            dsaudit_obs::counter_inc("node.late_proofs");
            if let Some(Outcome::Settled(v)) = track.outcome {
                let frame = Frame::Settle(SettleFrame {
                    challenge_id: id,
                    accepted: v.accepted(),
                });
                transport.send(now, self.peer, track.provider, frame.to_wire());
            }
            return;
        }
        if p.round != track.rc.round {
            // wrong session round: refuse, keep the round open
            self.stats.round_mismatches += 1;
            dsaudit_obs::counter_inc("node.round_mismatches");
            return;
        }
        // the erased body must be tagged for the scheme this auditor
        // verifies, and its payload must decode under it — wire-level
        // problems refuse the proof (retransmission recovers), never
        // settle
        if p.proof.backend != BackendId::Pairing {
            self.stats.backend_mismatches += 1;
            return;
        }
        let Ok(proof) = PrivateProof::decode(&p.proof.bytes) else {
            self.stats.backend_mismatches += 1;
            return;
        };
        let Some(target) = self.targets.get(&track.provider) else {
            return;
        };
        let verdict = self
            .auditor
            .verify_private(&target.pk, &target.meta, &track.rc.challenge, &proof);
        self.stats.proofs_verified += 1;
        dsaudit_obs::counter_inc("node.proofs_verified");
        let verdict = match verdict {
            Ok(v) => v,
            // metadata was validated at registration; an input error
            // here means the proof did not convince the auditor
            Err(_) => Verdict::Reject(dsaudit_core::RejectReason::Equation2),
        };
        let provider = track.provider;
        let Some(track) = self.tracks.get_mut(&id) else {
            return;
        };
        if track.settle(Outcome::Settled(verdict)) {
            match verdict {
                Verdict::Accept => self.stats.settled_accept += 1,
                Verdict::Reject(_) => self.stats.settled_reject += 1,
            }
            dsaudit_obs::counter_inc(if verdict.accepted() {
                "node.session.settled_accept"
            } else {
                "node.session.settled_reject"
            });
            let frame = Frame::Settle(SettleFrame {
                challenge_id: id,
                accepted: verdict.accepted(),
            });
            transport.send(now, self.peer, provider, frame.to_wire());
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
            match track.outcome {
                Some(Outcome::Settled(Verdict::Accept)) => counts.0 += 1,
                Some(Outcome::Settled(Verdict::Reject(_))) => counts.1 += 1,
                Some(Outcome::Expired) => counts.2 += 1,
                None => counts.3 += 1,
            }
        }
        counts
    }

    /// Checks the terminal-state invariant over all tracks: every
    /// round has exactly one terminal outcome and the stats agree.
    /// Returns human-readable violations (empty = invariant holds).
    pub fn audit_invariants(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let (accept, reject, expired, pending) = self.outcome_counts();
        if pending > 0 {
            violations.push(format!("{pending} challenge(s) never reached a terminal state"));
        }
        if accept + reject + expired + pending != self.stats.opened {
            violations.push(format!(
                "opened {} but tracked {} outcomes",
                self.stats.opened,
                accept + reject + expired + pending
            ));
        }
        if (accept, reject, expired)
            != (
                self.stats.settled_accept,
                self.stats.settled_reject,
                self.stats.expired,
            )
        {
            violations.push(format!(
                "settlement counters ({}, {}, {}) disagree with track outcomes ({accept}, {reject}, {expired}) — a challenge settled more than once",
                self.stats.settled_accept, self.stats.settled_reject, self.stats.expired
            ));
        }
        violations
    }
}
