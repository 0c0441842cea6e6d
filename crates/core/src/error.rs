//! The crate-wide error and verdict types of the role-oriented API.
//!
//! Every fallible operation on the public surface of `dsaudit-core`
//! returns [`DsAuditError`] instead of `bool`/`Option`/panicking, so
//! callers (and the `contract` layer above) can tell *bad proof* from
//! *bad input* from *protocol misuse*:
//!
//! * a proof that decodes but fails the pairing equations is **not** an
//!   error — verification returns [`Verdict::Reject`] with a
//!   [`RejectReason`];
//! * malformed external bytes (truncated wire data, non-curve points,
//!   out-of-range scalars) are [`DsAuditError::Truncated`] /
//!   [`DsAuditError::Malformed`];
//! * calling the protocol out of order (submitting a response for the
//!   wrong round, mismatched tag counts) is a typed protocol error.

#![deny(missing_docs)]

use crate::params::ParamError;

/// Unified error type for the audit protocol's public API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DsAuditError {
    /// Wire input ended before the field being decoded was complete.
    Truncated {
        /// Type being decoded (e.g. `"PrivateProof"`).
        ty: &'static str,
        /// The field whose bytes ran out.
        field: &'static str,
        /// Bytes the field needed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// A decoded field failed validation: a point off the curve, a
    /// scalar at or above the group order, an inconsistent length
    /// prefix, or trailing garbage after a complete value.
    Malformed {
        /// Type being decoded.
        ty: &'static str,
        /// The offending field.
        field: &'static str,
    },
    /// Audit parameters were rejected (see [`ParamError`]).
    Params(ParamError),
    /// Two protocol objects that must agree in size did not.
    DimensionMismatch {
        /// What was being matched (e.g. `"tags per chunk"`).
        what: &'static str,
        /// Expected count.
        expected: usize,
        /// Actual count.
        got: usize,
    },
    /// A response was submitted for a different audit round than the
    /// one in flight.
    RoundMismatch {
        /// The round the session is waiting on.
        expected: u64,
        /// The round the response claims.
        got: u64,
    },
    /// File metadata is unusable for auditing (zero chunks or a zero
    /// challenge count).
    BadMeta(&'static str),
    /// The authenticators shipped with an outsourcing bundle failed the
    /// provider's batch validation — the owner (or the transport)
    /// supplied forged or mismatched tags.
    TagsRejected,
    /// An I/O failure while streaming data through
    /// [`crate::file::EncodedFile::encode_reader`].
    Io {
        /// The failing operation's [`std::io::ErrorKind`].
        kind: std::io::ErrorKind,
        /// Human-readable detail from the underlying error.
        detail: String,
    },
    /// A storage-layer failure surfaced through the audit pipeline —
    /// share reconstruction or provider placement failed underneath an
    /// audit operation. Raised via the `dsaudit-storage` crate's
    /// `From<StorageError>` conversion (reconstruction shortfalls map to
    /// [`DsAuditError::DimensionMismatch`] instead, which carries the
    /// exact share counts).
    Storage {
        /// Human-readable detail from the storage layer.
        detail: String,
    },
}

impl std::fmt::Display for DsAuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DsAuditError::Truncated {
                ty,
                field,
                expected,
                got,
            } => write!(
                f,
                "{ty}: truncated input at field `{field}` (needed {expected} bytes, {got} available)"
            ),
            DsAuditError::Malformed { ty, field } => {
                write!(f, "{ty}: malformed field `{field}`")
            }
            DsAuditError::Params(e) => write!(f, "invalid audit parameters: {e}"),
            DsAuditError::DimensionMismatch {
                what,
                expected,
                got,
            } => write!(f, "dimension mismatch for {what}: expected {expected}, got {got}"),
            DsAuditError::RoundMismatch { expected, got } => {
                write!(f, "response is for round {got}, but round {expected} is in flight")
            }
            DsAuditError::BadMeta(why) => write!(f, "unusable file metadata: {why}"),
            DsAuditError::TagsRejected => {
                write!(f, "authenticator batch validation failed: tags are forged or mismatched")
            }
            DsAuditError::Io { kind, detail } => {
                write!(f, "i/o error while streaming ({kind:?}): {detail}")
            }
            DsAuditError::Storage { detail } => {
                write!(f, "storage layer failure: {detail}")
            }
        }
    }
}

impl std::error::Error for DsAuditError {}

impl From<ParamError> for DsAuditError {
    fn from(e: ParamError) -> Self {
        DsAuditError::Params(e)
    }
}

impl From<std::io::Error> for DsAuditError {
    fn from(e: std::io::Error) -> Self {
        DsAuditError::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

/// Why a well-formed proof was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The non-private verification equation (Eq. 1) did not hold.
    Equation1,
    /// The privacy-assured verification equation (Eq. 2) did not hold.
    Equation2,
    /// The random-linear-combination batch check did not hold (at least
    /// one proof in the batch is invalid).
    BatchCombination,
    /// A single authenticator failed its pairing validation.
    TagEquation,
    /// A Merkle-path audit response did not recompute the committed
    /// root, claimed the wrong leaf index, or had a path length that
    /// disagrees with the committed tree depth.
    MerklePath,
    /// A zk-SNARK possession proof failed pairing verification against
    /// the committed verifying key and public inputs.
    SnarkProof,
    /// The proof's payload does not decode under the agreement's
    /// backend.
    Undecodable,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Equation1 => write!(f, "verification equation (1) failed"),
            RejectReason::Equation2 => write!(f, "verification equation (2) failed"),
            RejectReason::BatchCombination => write!(f, "batched combination check failed"),
            RejectReason::TagEquation => write!(f, "authenticator equation failed"),
            RejectReason::MerklePath => write!(f, "merkle path check failed"),
            RejectReason::SnarkProof => write!(f, "snark proof verification failed"),
            RejectReason::Undecodable => write!(f, "proof payload does not decode"),
        }
    }
}

/// Outcome of verifying a structurally valid proof.
///
/// Distinct from [`DsAuditError`]: an `Err` means the *inputs* were
/// unusable (malformed bytes, bad metadata); a `Reject` means the check
/// ran and the proof is wrong — the signal a contract settles on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "a rejected verdict settles a round differently than an accepted one"]
pub enum Verdict {
    /// The proof satisfies the verification equation.
    Accept,
    /// The proof is well-formed but does not verify.
    Reject(RejectReason),
}

impl Verdict {
    /// `true` when the proof was accepted.
    pub fn accepted(&self) -> bool {
        matches!(self, Verdict::Accept)
    }

    /// Folds a boolean equation result into a verdict with `reason`.
    pub(crate) fn from_equation(holds: bool, reason: RejectReason) -> Self {
        if holds {
            Verdict::Accept
        } else {
            Verdict::Reject(reason)
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        Outcome::from(*self).fmt(f)
    }
}

/// How an audit round ended: the one terminal state the contract
/// settles, its `pass`/`fail` event carries, and the node and the
/// simulator record. A round is open until it reaches exactly one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A proof arrived in time and verified.
    Accept,
    /// A proof arrived in time and did not verify.
    Reject(RejectReason),
    /// The deadline passed without a proof.
    Expired,
}

impl Outcome {
    /// `true` when the round passed.
    pub fn accepted(&self) -> bool {
        matches!(self, Outcome::Accept)
    }

    /// The outcome as one byte: `0` accept, `1 + reason` reject (reasons
    /// in declaration order), `0xff` expired.
    pub fn to_byte(self) -> u8 {
        match self {
            Outcome::Accept => 0,
            Outcome::Reject(reason) => 1 + reason as u8,
            Outcome::Expired => 0xff,
        }
    }

    /// Decodes [`to_byte`](Self::to_byte)'s byte; `None` on any byte
    /// that encodes no outcome.
    pub fn from_byte(byte: u8) -> Option<Self> {
        let reason = match byte {
            0 => return Some(Outcome::Accept),
            0xff => return Some(Outcome::Expired),
            1 => RejectReason::Equation1,
            2 => RejectReason::Equation2,
            3 => RejectReason::BatchCombination,
            4 => RejectReason::TagEquation,
            5 => RejectReason::MerklePath,
            6 => RejectReason::SnarkProof,
            7 => RejectReason::Undecodable,
            _ => return None,
        };
        Some(Outcome::Reject(reason))
    }
}

impl From<Verdict> for Outcome {
    fn from(verdict: Verdict) -> Self {
        match verdict {
            Verdict::Accept => Outcome::Accept,
            Verdict::Reject(reason) => Outcome::Reject(reason),
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Outcome::Accept => write!(f, "accept"),
            Outcome::Reject(r) => write!(f, "reject ({r})"),
            Outcome::Expired => write!(f, "expired"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_accepted_flag() {
        assert!(Verdict::Accept.accepted());
        assert!(!Verdict::Reject(RejectReason::Equation2).accepted());
        assert!(Verdict::from_equation(true, RejectReason::Equation1).accepted());
        assert!(!Verdict::from_equation(false, RejectReason::Equation1).accepted());
    }

    #[test]
    fn outcome_bytes_round_trip_and_refuse_the_rest() {
        let mut decoded = 0;
        for byte in 0..=u8::MAX {
            if let Some(outcome) = Outcome::from_byte(byte) {
                assert_eq!(outcome.to_byte(), byte, "{outcome}");
                decoded += 1;
            }
        }
        use RejectReason::*;
        let reasons = [
            Equation1,
            Equation2,
            BatchCombination,
            TagEquation,
            MerklePath,
            SnarkProof,
            Undecodable,
        ];
        // exhaustive, so a new reason stops this test from compiling
        // until it is listed above
        for reason in reasons {
            match reason {
                Equation1 | Equation2 | BatchCombination | TagEquation | MerklePath
                | SnarkProof | Undecodable => {}
            }
        }
        let outcomes: Vec<Outcome> = [Outcome::Accept, Outcome::Expired]
            .into_iter()
            .chain(reasons.map(Outcome::Reject))
            .collect();
        assert_eq!(decoded, outcomes.len());
        for outcome in outcomes {
            assert_eq!(Outcome::from_byte(outcome.to_byte()), Some(outcome));
        }
        assert_eq!(
            Outcome::from(Verdict::Reject(RejectReason::MerklePath)),
            Outcome::Reject(RejectReason::MerklePath)
        );
        assert!(Outcome::from(Verdict::Accept).accepted() && !Outcome::Expired.accepted());
    }

    #[test]
    fn errors_render_their_context() {
        let e = DsAuditError::Truncated {
            ty: "PrivateProof",
            field: "sigma",
            expected: 32,
            got: 7,
        };
        let s = e.to_string();
        assert!(s.contains("PrivateProof") && s.contains("sigma") && s.contains("32"));
        let e = DsAuditError::RoundMismatch {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains("round 2"));
        let e: DsAuditError = ParamError::Zero.into();
        assert!(matches!(e, DsAuditError::Params(ParamError::Zero)));
    }
}
