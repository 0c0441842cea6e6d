//! The challenge lifecycle.
//!
//! An epoch's beacon output opens a round on both sides at once; the
//! proof is the only message that has to cross the network:
//!
//! ```text
//!          proof judged (write-once)
//! Open ---------------------------------> Accept
//!   |   \-------------------------------> Reject(reason)
//!   |
//!   +------------ deadline elapsed -----> Expired (penalty)
//! ```
//!
//! Every opened round terminates in **exactly one**
//! [`Outcome`] — `Accept`, `Reject(reason)` or `Expired`, the contract's
//! own — written once and never overwritten, so a late proof racing the
//! deadline cannot double-settle, and the deadline guarantees no round
//! is ever lost.

#![deny(missing_docs)]

use dsaudit_core::{Outcome, RoundChallenge};
use dsaudit_crypto::sha256::sha256;

use crate::frame::ChallengeId;
use crate::transport::{Millis, PeerId};

/// Bounded proof retransmission with exponential backoff and
/// deterministic jitter.
///
/// The jitter is derived from the challenge id and the attempt number,
/// not from an RNG: two runs of the same schedule retry at identical
/// times, and two challenges never synchronize their retry storms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First retransmission delay, ms.
    pub base_ms: u64,
    /// Backoff cap, ms.
    pub max_backoff_ms: u64,
    /// Retransmissions after the first send (0 = never retransmit).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base_ms: 200,
            max_backoff_ms: 5_000,
            max_retries: 6,
        }
    }
}

impl RetryPolicy {
    /// Delay before retransmission number `attempt` (1-based): the
    /// doubled base, capped, plus up to 50% deterministic jitter.
    pub fn backoff_ms(&self, id: &ChallengeId, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(20);
        let exp = self
            .base_ms
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_ms.max(1));
        let mut buf = Vec::with_capacity(36);
        buf.extend_from_slice(id);
        buf.extend_from_slice(&attempt.to_le_bytes());
        let h = sha256(&buf);
        let word = u64::from_le_bytes([h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]]);
        exp + word % (exp / 2 + 1)
    }
}

/// Auditor-side bookkeeping for one open round.
#[derive(Clone, Copy, Debug)]
pub struct ChallengeTrack {
    /// The provider under audit.
    pub provider: PeerId,
    /// The round-stamped challenge.
    pub rc: RoundChallenge,
    /// Hard settlement deadline: at this instant an unsettled round
    /// expires into the penalty path.
    pub deadline: Millis,
    /// Terminal outcome; [`settle`](Self::settle) is its only writer.
    outcome: Option<Outcome>,
}

impl ChallengeTrack {
    /// A round against `provider`, settling by `deadline`.
    pub fn new(provider: PeerId, rc: RoundChallenge, deadline: Millis) -> Self {
        Self {
            provider,
            rc,
            deadline,
            outcome: None,
        }
    }

    /// The terminal outcome; `None` while the round is open.
    pub fn outcome(&self) -> Option<Outcome> {
        self.outcome
    }

    /// Whether the round has reached its single terminal state.
    pub fn is_terminal(&self) -> bool {
        self.outcome.is_some()
    }

    /// Records the terminal outcome. Returns `false` (and changes
    /// nothing) when an outcome was already recorded — the caller
    /// counts that as an attempted double settlement.
    pub fn settle(&mut self, outcome: Outcome) -> bool {
        if self.outcome.is_some() {
            return false;
        }
        self.outcome = Some(outcome);
        true
    }

    /// The instant this track next needs attention: its deadline while
    /// open, never once terminal.
    pub fn next_wakeup(&self) -> Option<Millis> {
        (!self.is_terminal()).then_some(self.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsaudit_core::Challenge;
    use rand::SeedableRng;

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let p = RetryPolicy {
            base_ms: 100,
            max_backoff_ms: 1_000,
            max_retries: 8,
        };
        let id = [3u8; 32];
        let mut prev = 0;
        for attempt in 1..=8 {
            let d = p.backoff_ms(&id, attempt);
            assert_eq!(d, p.backoff_ms(&id, attempt), "deterministic");
            let exp = (100u64 << (attempt - 1)).min(1_000);
            assert!(d >= exp && d <= exp + exp / 2, "attempt {attempt}: {d}");
            assert!(d + exp >= prev, "monotone up to jitter");
            prev = d;
        }
        // different challenges desynchronize
        assert_ne!(p.backoff_ms(&[3u8; 32], 3), p.backoff_ms(&[4u8; 32], 3));
    }

    #[test]
    fn settle_is_write_once() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let rc = RoundChallenge {
            round: 0,
            challenge: Challenge::random(&mut rng),
        };
        let mut track = ChallengeTrack::new(2, rc, 1_000);
        assert_eq!((track.outcome(), track.next_wakeup()), (None, Some(1_000)));
        assert!(track.settle(Outcome::Accept));
        assert!(!track.settle(Outcome::Expired), "second settle refused");
        assert_eq!(track.outcome(), Some(Outcome::Accept));
        assert_eq!(track.next_wakeup(), None);
    }

    #[test]
    fn wakeup_falls_back_to_the_deadline() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let rc = RoundChallenge {
            round: 2,
            challenge: Challenge::random(&mut rng),
        };
        let track = ChallengeTrack::new(1, rc, 5_000);
        assert_eq!(track.next_wakeup(), Some(5_000));
    }
}
