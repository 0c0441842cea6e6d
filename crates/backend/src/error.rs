//! The backend subsystem's error type.

use dsaudit_core::DsAuditError;
use dsaudit_snark::SnarkError;

use crate::BackendId;

/// Why a backend operation failed (as opposed to a proof *rejecting* —
/// see the verdict contract on [`crate::AuditBackend`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// A wire object named a different backend than the one invoked.
    WrongBackend {
        /// The backend doing the work.
        expected: BackendId,
        /// The backend the object claims.
        got: BackendId,
    },
    /// A codec or protocol error from the core layer: malformed wire
    /// bytes, dimension mismatches, rejected parameters.
    Audit(DsAuditError),
    /// A SNARK pipeline error (circuit too large, unsatisfied witness).
    Snark(SnarkError),
    /// A shape that cannot be audited. From `setup`: a backend
    /// configured with a zero size. From `prove`: stored bytes that no
    /// longer have the shape the kit was built for — the honest
    /// response is a timeout, not a forged submission.
    Shape(&'static str),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::WrongBackend { expected, got } => {
                write!(f, "wire object is for backend `{got}`, expected `{expected}`")
            }
            BackendError::Audit(e) => write!(f, "audit layer error: {e}"),
            BackendError::Snark(e) => write!(f, "snark error: {e}"),
            BackendError::Shape(what) => write!(f, "unauditable shape: {what}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<DsAuditError> for BackendError {
    fn from(e: DsAuditError) -> Self {
        BackendError::Audit(e)
    }
}

impl From<SnarkError> for BackendError {
    fn from(e: SnarkError) -> Self {
        BackendError::Snark(e)
    }
}

impl From<dsaudit_core::params::ParamError> for BackendError {
    fn from(e: dsaudit_core::params::ParamError) -> Self {
        BackendError::Audit(DsAuditError::Params(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let e = BackendError::WrongBackend {
            expected: BackendId::Pairing,
            got: BackendId::Merkle,
        };
        assert!(e.to_string().contains("merkle") && e.to_string().contains("pairing"));
        let e: BackendError = DsAuditError::TagsRejected.into();
        assert!(matches!(e, BackendError::Audit(_)));
        let e: BackendError = SnarkError::Unsatisfied.into();
        assert!(e.to_string().contains("witness"));
    }
}
