//! Erased wire objects: backend-tagged byte payloads.
//!
//! The trait layer cannot name per-backend types (object safety), so
//! commitments and proofs cross boundaries as
//! `backend id (1 B) || payload len (4 B LE) || payload`. The id byte
//! makes mixed-backend chains safe: a contract or daemon handed bytes
//! for a backend it does not speak fails with a typed decode error
//! before any verdict logic runs. Payload layouts are each backend's
//! own business, documented and decoded in its module.
//!
//! The two types are spelled out rather than macro-generated so the
//! in-tree static analyzer sees every decode path in its call graph
//! (macro bodies are opaque to it).

use dsaudit_core::codec::{ByteReader, Codec};
use dsaudit_core::DsAuditError;

use crate::{BackendError, BackendId};

/// What the audit contract stores: everything verification needs,
/// tagged with the backend that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Commitment {
    /// The scheme this payload belongs to.
    pub backend: BackendId,
    /// Backend-specific payload bytes.
    pub bytes: Vec<u8>,
}

/// One round's possession proof, tagged with the backend that produced
/// it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendProof {
    /// The scheme this payload belongs to.
    pub backend: BackendId,
    /// Backend-specific payload bytes.
    pub bytes: Vec<u8>,
}

/// Shared tag check behind every `expect_backend`.
fn check_backend(got: BackendId, expected: BackendId) -> Result<(), BackendError> {
    if got != expected {
        return Err(BackendError::WrongBackend { expected, got });
    }
    Ok(())
}

/// Shared length of the erased encoding.
fn erased_len(bytes: &[u8]) -> usize {
    1 + 4 + bytes.len()
}

/// Shared encoder: `id (1 B) || len (4 B LE) || payload`.
fn encode_erased(backend: BackendId, bytes: &[u8], out: &mut Vec<u8>) {
    out.push(backend.as_u8());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Shared decoder; `ty`/`field` name the concrete wire type in errors.
fn decode_erased(
    r: &mut ByteReader<'_>,
    ty: &'static str,
    field: &'static str,
) -> Result<(BackendId, Vec<u8>), DsAuditError> {
    let id = u8::from_le_bytes(r.array::<1>("backend id")?);
    let backend = BackendId::from_u8(id).ok_or_else(|| r.malformed("backend id"))?;
    let len = r.u32_le("payload length")? as usize;
    // the length prefix must be consistent with the bytes present, so a
    // forged prefix cannot allocate
    if r.remaining() < len {
        return Err(DsAuditError::Truncated {
            ty,
            field,
            expected: len,
            got: r.remaining(),
        });
    }
    let bytes = r.take(len, field)?.to_vec();
    Ok((backend, bytes))
}

impl Commitment {
    /// Asserts the object belongs to `expected`.
    ///
    /// # Errors
    /// [`BackendError::WrongBackend`] on a mismatch.
    pub fn expect_backend(&self, expected: BackendId) -> Result<(), BackendError> {
        check_backend(self.backend, expected)
    }
}

impl Codec for Commitment {
    const TYPE_NAME: &'static str = "Commitment";

    fn encoded_len(&self) -> usize {
        erased_len(&self.bytes)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        encode_erased(self.backend, &self.bytes, out);
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, DsAuditError> {
        let (backend, bytes) = decode_erased(r, Self::TYPE_NAME, "commitment payload")?;
        Ok(Self { backend, bytes })
    }
}

impl BackendProof {
    /// Asserts the object belongs to `expected`.
    ///
    /// # Errors
    /// [`BackendError::WrongBackend`] on a mismatch.
    pub fn expect_backend(&self, expected: BackendId) -> Result<(), BackendError> {
        check_backend(self.backend, expected)
    }
}

impl Codec for BackendProof {
    const TYPE_NAME: &'static str = "BackendProof";

    fn encoded_len(&self) -> usize {
        erased_len(&self.bytes)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        encode_erased(self.backend, &self.bytes, out);
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, DsAuditError> {
        let (backend, bytes) = decode_erased(r, Self::TYPE_NAME, "proof payload")?;
        Ok(Self { backend, bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erased_objects_roundtrip() {
        let c = Commitment {
            backend: BackendId::Merkle,
            bytes: vec![1, 2, 3, 4, 5],
        };
        let bytes = c.encode();
        assert_eq!(bytes.len(), 1 + 4 + 5);
        assert_eq!(Commitment::decode(&bytes).unwrap(), c);
        let p = BackendProof {
            backend: BackendId::Groth16Merkle,
            bytes: Vec::new(),
        };
        assert_eq!(BackendProof::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn unknown_backend_id_is_a_typed_decode_error() {
        let mut bytes = Commitment {
            backend: BackendId::Pairing,
            bytes: vec![9; 8],
        }
        .encode();
        bytes[0] = 0x7f;
        assert_eq!(
            Commitment::decode(&bytes),
            Err(DsAuditError::Malformed {
                ty: "Commitment",
                field: "backend id"
            })
        );
    }

    #[test]
    fn forged_length_prefix_is_bounded() {
        let mut bytes = Commitment {
            backend: BackendId::Merkle,
            bytes: vec![0; 16],
        }
        .encode();
        bytes[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Commitment::decode(&bytes),
            Err(DsAuditError::Truncated { field: "commitment payload", got: 16, .. })
        ));
        assert!(matches!(
            BackendProof::decode(&bytes),
            Err(DsAuditError::Truncated { field: "proof payload", got: 16, .. })
        ));
    }

    #[test]
    fn wrong_backend_is_typed() {
        let p = BackendProof {
            backend: BackendId::Merkle,
            bytes: Vec::new(),
        };
        assert!(p.expect_backend(BackendId::Merkle).is_ok());
        assert!(matches!(
            p.expect_backend(BackendId::Pairing),
            Err(crate::BackendError::WrongBackend {
                expected: BackendId::Pairing,
                got: BackendId::Merkle,
            })
        ));
    }
}
