//! The node wire protocol: length-prefixed [`Codec`] frames.
//!
//! Every message between an auditor daemon and a provider daemon is one
//! [`Frame`], carried on the wire as `len (4 B LE) || tag (1 B) ||
//! payload || checksum (4 B)`. The length prefix covers tag + payload,
//! so a receiver can delimit frames on a byte stream; the checksum (a
//! truncated SHA-256 of tag + payload) catches accidental corruption
//! anywhere in the frame. [`Frame::from_wire`] rejects any prefix that
//! disagrees with the bytes actually present, and every malformed byte
//! surfaces as a typed [`DsAuditError`] — a corrupted frame is data
//! loss to be retried, never a panic and never a verdict.
//!
//! There is no challenge message: both daemons derive each round's
//! challenge from the beacon, so the proof is the only frame a round
//! needs and the settle notice the only reply. Tags 1, 2 and 4 (the
//! retired challenge, ack and overload frames) decode as unknown tags.

#![deny(missing_docs)]

use dsaudit_algebra::Fr;
use dsaudit_backend::BackendProof;
use dsaudit_core::codec::{ByteReader, Codec};
use dsaudit_core::DsAuditError;
use dsaudit_crypto::sha256::sha256;

/// A challenge's globally unique, deterministic identifier.
///
/// Derived by [`derive_challenge_id`] from the audited file's on-chain
/// name and the beacon/session round counters, so every retransmission
/// of the same proof carries the same id — receivers dedup on it, which
/// is what makes retries idempotent.
pub type ChallengeId = [u8; 32];

/// Derives the idempotent id of one challenge.
///
/// Any party holding the file name and the round counters derives the
/// same id, so the auditor and the provider agree on it without sending
/// it to each other first.
pub fn derive_challenge_id(file_name: &Fr, beacon_round: u64, session_round: u64) -> ChallengeId {
    let mut buf = Vec::with_capacity(25 + 32 + 16);
    buf.extend_from_slice(b"dsaudit/node/challenge-id");
    buf.extend_from_slice(&file_name.to_bytes_be());
    buf.extend_from_slice(&beacon_round.to_le_bytes());
    buf.extend_from_slice(&session_round.to_le_bytes());
    sha256(&buf)
}

/// Proof of storage: provider → auditor. The erased, backend-tagged
/// proof body (288 B for the pairing scheme, variable for others),
/// echoing the session round so the auditor can match response to
/// round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProofFrame {
    /// The challenge being answered.
    pub challenge_id: ChallengeId,
    /// The session round the proof answers.
    pub round: u64,
    /// The backend-tagged proof body. The frame layer treats the
    /// payload as opaque bytes — only the daemon holding the matching
    /// commitment interprets them.
    pub proof: BackendProof,
}

/// Settlement notice: auditor → provider. Closes the provider's round:
/// it stops retransmitting the proof and drops it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SettleFrame {
    /// The settled challenge.
    pub challenge_id: ChallengeId,
    /// Whether the proof was accepted.
    pub accepted: bool,
}

/// One message of the node protocol.
///
/// `Frame` is `Clone`, not `Copy`: a `Proof` body is variable-length
/// per backend (288 B pairing, `O(k · depth)` Merkle paths, 128 B
/// Groth16), so the proof payload lives in a heap buffer. A provider
/// keeps the *wire bytes* of its proof for retransmission, not the
/// frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Provider → auditor: proof of storage.
    Proof(ProofFrame),
    /// Auditor → provider: challenge settled.
    Settle(SettleFrame),
}

const TAG_PROOF: u8 = 3;
const TAG_SETTLE: u8 = 5;

impl Frame {
    /// Bytes of the integrity checksum trailing every wire frame.
    pub const CHECKSUM_BYTES: usize = 4;

    /// Serializes as wire bytes:
    /// `len (4 B LE) || tag || payload || checksum (4 B)`.
    ///
    /// The checksum is the truncated SHA-256 of `tag || payload`. It is
    /// not authentication — a deliberate forger just recomputes it —
    /// but it guarantees *accidental* corruption anywhere in the frame
    /// is caught at decode and treated as loss (retried), so a flipped
    /// bit in a proof body can never masquerade as a failed audit.
    pub fn to_wire(&self) -> Vec<u8> {
        let body_len = self.encoded_len();
        let mut out = Vec::with_capacity(4 + body_len + Self::CHECKSUM_BYTES);
        out.extend_from_slice(&(body_len as u32).to_le_bytes());
        self.encode_into(&mut out);
        let digest = sha256(&out[4..]);
        out.extend_from_slice(&digest[..Self::CHECKSUM_BYTES]);
        out
    }

    /// Parses wire bytes produced by [`Frame::to_wire`].
    ///
    /// # Errors
    /// Typed [`DsAuditError`] when the length prefix disagrees with the
    /// bytes present, the checksum does not match, the tag is unknown,
    /// or any payload field is malformed — including single flipped
    /// bits anywhere in the frame.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, DsAuditError> {
        let mut r = ByteReader::new(bytes, Self::TYPE_NAME);
        let len = r.u32_le("length prefix")? as usize;
        if len + Self::CHECKSUM_BYTES != r.remaining() {
            return Err(r.malformed("length prefix"));
        }
        let body = r.take(len, "body")?;
        let digest = sha256(body);
        let checksum = r.array::<{ Self::CHECKSUM_BYTES }>("checksum")?;
        if digest[..Self::CHECKSUM_BYTES] != checksum {
            return Err(r.malformed("checksum"));
        }
        let mut body_reader = ByteReader::new(body, Self::TYPE_NAME);
        let frame = Self::decode_from(&mut body_reader)?;
        body_reader.finish()?;
        r.finish()?;
        Ok(frame)
    }
}

impl Codec for Frame {
    const TYPE_NAME: &'static str = "Frame";

    fn encoded_len(&self) -> usize {
        1 + match self {
            Frame::Proof(f) => 32 + 8 + f.proof.encoded_len(),
            Frame::Settle(_) => 32 + 1,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Proof(f) => {
                out.push(TAG_PROOF);
                out.extend_from_slice(&f.challenge_id);
                out.extend_from_slice(&f.round.to_le_bytes());
                f.proof.encode_into(out);
            }
            Frame::Settle(f) => {
                out.push(TAG_SETTLE);
                out.extend_from_slice(&f.challenge_id);
                out.push(u8::from(f.accepted));
            }
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, DsAuditError> {
        let tag = u8::from_le_bytes(r.array::<1>("tag")?);
        match tag {
            TAG_PROOF => {
                let challenge_id = r.array::<32>("challenge_id")?;
                let round = u64::from_le_bytes(r.array::<8>("round")?);
                let proof = BackendProof::decode_from(r)?;
                Ok(Frame::Proof(ProofFrame {
                    challenge_id,
                    round,
                    proof,
                }))
            }
            TAG_SETTLE => {
                let challenge_id = r.array::<32>("challenge_id")?;
                let flag = u8::from_le_bytes(r.array::<1>("accepted")?);
                if flag > 1 {
                    return Err(r.malformed("accepted"));
                }
                Ok(Frame::Settle(SettleFrame {
                    challenge_id,
                    accepted: flag == 1,
                }))
            }
            _ => Err(r.malformed("tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsaudit_algebra::field::Field;
    use dsaudit_backend::BackendId;
    use rand::{RngCore, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xf2a8e)
    }

    fn sample_frames(rng: &mut rand::rngs::StdRng) -> Vec<Frame> {
        let mut id = [0u8; 32];
        rng.fill_bytes(&mut id);
        let mut pairing_body = vec![0u8; 288];
        rng.fill_bytes(&mut pairing_body);
        vec![
            Frame::Proof(ProofFrame {
                challenge_id: id,
                round: 3,
                proof: BackendProof {
                    backend: BackendId::Pairing,
                    bytes: pairing_body,
                },
            }),
            Frame::Proof(ProofFrame {
                challenge_id: id,
                round: 3,
                // the frame layer is backend-agnostic: any tagged
                // payload rides in a Proof frame
                proof: BackendProof {
                    backend: BackendId::Merkle,
                    bytes: vec![0xaa; 37],
                },
            }),
            Frame::Settle(SettleFrame {
                challenge_id: id,
                accepted: true,
            }),
            Frame::Settle(SettleFrame {
                challenge_id: id,
                accepted: false,
            }),
        ]
    }

    #[test]
    fn frames_roundtrip_on_the_wire() {
        let mut rng = rng();
        for frame in sample_frames(&mut rng) {
            let wire = frame.to_wire();
            assert_eq!(Frame::from_wire(&wire).unwrap(), frame);
            assert_eq!(wire.len(), 4 + frame.encoded_len() + Frame::CHECKSUM_BYTES);
        }
    }

    #[test]
    fn inconsistent_length_prefix_rejected() {
        let mut rng = rng();
        let frame = sample_frames(&mut rng).remove(1);
        let mut wire = frame.to_wire();
        wire[0] ^= 1;
        assert!(matches!(
            Frame::from_wire(&wire),
            Err(DsAuditError::Malformed { ty: "Frame", .. } | DsAuditError::Truncated { .. })
        ));
    }

    #[test]
    fn unknown_tag_rejected() {
        // hand-frame a body with an unknown tag and a *valid* checksum,
        // so the failure is attributed to the tag, not the checksum;
        // 1, 2 and 4 are the retired challenge, ack and overload tags
        for tag in [0u8, 1, 2, 4, 6, 255] {
            let mut body = vec![tag];
            body.extend_from_slice(&[9u8; 32]);
            let mut wire = (body.len() as u32).to_le_bytes().to_vec();
            wire.extend_from_slice(&body);
            wire.extend_from_slice(&crate::frame::sha256(&body)[..Frame::CHECKSUM_BYTES]);
            assert_eq!(
                Frame::from_wire(&wire),
                Err(DsAuditError::Malformed {
                    ty: "Frame",
                    field: "tag"
                }),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_a_typed_error() {
        // the checksum makes corruption anywhere in the frame — length
        // prefix, tag, payload or the checksum itself — fail decode with
        // a typed error: it can never panic, and it can never surface as
        // a different (or worse, the same) well-formed frame, so a
        // flipped bit is always a retry and never a verdict
        let mut rng = rng();
        for frame in sample_frames(&mut rng) {
            let wire = frame.to_wire();
            for i in 0..wire.len() {
                let mut bad = wire.clone();
                bad[i] ^= 0x40;
                assert!(
                    Frame::from_wire(&bad).is_err(),
                    "flip at byte {i} slipped through the checksum"
                );
            }
        }
    }

    #[test]
    fn unknown_backend_id_is_a_typed_decode_error_not_a_verdict() {
        let mut rng = rng();
        for frame_idx in [0usize, 1] {
            // the BackendProof's own id byte follows the id and round
            let frame = sample_frames(&mut rng).remove(frame_idx);
            let mut body = frame.encode();
            body[1 + 32 + 8] = 0x7f;
            let mut wire = (body.len() as u32).to_le_bytes().to_vec();
            wire.extend_from_slice(&body);
            wire.extend_from_slice(&crate::frame::sha256(&body)[..Frame::CHECKSUM_BYTES]);
            assert_eq!(
                Frame::from_wire(&wire),
                Err(DsAuditError::Malformed {
                    ty: "Frame",
                    field: "backend id"
                })
            );
        }
    }

    #[test]
    fn challenge_id_is_deterministic_and_round_scoped() {
        let name = Fr::from_u64(42);
        let a = derive_challenge_id(&name, 5, 0);
        assert_eq!(a, derive_challenge_id(&name, 5, 0));
        assert_ne!(a, derive_challenge_id(&name, 6, 0));
        assert_ne!(a, derive_challenge_id(&name, 5, 1));
        assert_ne!(a, derive_challenge_id(&Fr::from_u64(43), 5, 0));
    }
}
