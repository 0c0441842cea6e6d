//! Homomorphic authenticator generation and validation (§V-B).
//!
//! For chunk `i` with polynomial `M_i(x)`, the data owner computes
//! `sigma_i = (g1^{M_i(alpha)} * H(name || i))^x`. The storage provider
//! re-validates received authenticators against the public key before
//! acknowledging the contract (the paper notes the chance of a forged
//! authenticator passing this check is negligible).

use dsaudit_algebra::curve::Projective;
use dsaudit_algebra::endo::{msm_g1, mul_each_g1};
use dsaudit_algebra::field::Field;
use dsaudit_algebra::g1::{G1Affine, G1Projective};
use dsaudit_algebra::msm::{msm, msm_u128};
use dsaudit_algebra::pairing::{multi_pairing_prepared, G2Prepared};
use dsaudit_algebra::par::par_map;
use dsaudit_algebra::Fr;
use dsaudit_crypto::prf::index_oracle;

use crate::error::{DsAuditError, RejectReason, Verdict};
use crate::file::EncodedFile;
use crate::keys::{PublicKey, SecretKey};

/// Generates all chunk authenticators for a file: the batch of one of
/// [`generate_tags_batch`].
pub fn generate_tags(sk: &SecretKey, file: &EncodedFile) -> Vec<G1Affine> {
    generate_tags_batch(sk, &[file]).pop().unwrap_or_default()
}

/// Generates the chunk authenticators of several files under one key,
/// as one batch over all their chunks; returns one tag vector per file,
/// in order. Each tag is a function of the key, its file's name, its
/// index and its chunk alone, so a file tags the same in any batch.
///
/// The per-chunk work `(g1^{M_i(alpha)} * t_i)^x` splits into
/// `g1^{M_i(alpha) x} * t_i^x`, and both factors are batch-friendly:
///
/// * the `g1` factor is a **fixed-base** multiplication, served from the
///   process-wide generator table ([`G1Projective::generator_table`]) at
///   ~32 batched affine additions per chunk instead of a full ladder;
/// * the `t_i^x` factor raises every chunk hash to the **same** secret
///   exponent, which [`mul_each_g1`] handles with one shared GLV/wNAF
///   digit schedule and batch-affine accumulators across all chunks.
///
/// Hash-to-curve and the `M_i(alpha)` Horner evaluations fan out over
/// `algebra::par`'s scoped threads, and every pass runs once over the
/// batch's chunks, so the files of an erasure-coded upload share one
/// fan-out and one `mul_each_g1` pass instead of paying the small-batch
/// rate per file. This path is the dominant cost of the data owner's
/// pre-processing phase (Fig. 7) and the target of the MSM overhaul
/// (~3x over the per-chunk double-and-add baseline on one core).
pub fn generate_tags_batch(sk: &SecretKey, files: &[&EncodedFile]) -> Vec<Vec<G1Affine>> {
    let _span = dsaudit_obs::span("core.tag_gen");
    // the batch's chunks run file by file; `starts[f]` is the batch
    // index of file f's chunk 0
    let mut total = 0;
    let starts: Vec<usize> = files
        .iter()
        .map(|file| {
            let start = total;
            total += file.num_chunks();
            start
        })
        .collect();
    dsaudit_obs::counter_add("core.tags_generated", total as u64);
    // batch index -> (file, chunk index): the last file starting at or
    // before it (an empty file starts where the next one does)
    let locate = |at: usize| {
        let f = starts.partition_point(|&start| start <= at) - 1;
        (files[f], at - starts[f])
    };
    // field part: M_i(alpha) * x via Horner, parallel over chunks
    let evals: Vec<Fr> = par_map(total, |at| {
        let (file, i) = locate(at);
        let mut eval = Fr::zero();
        for m in file.chunk(i).iter().rev() {
            eval = eval * sk.alpha + *m;
        }
        eval * sk.x
    });
    // t_i = H(name || i), parallel (dominated by square-root candidates)
    let hashes: Vec<G1Affine> = par_map(total, |at| {
        let (file, i) = locate(at);
        index_oracle(file.name, i as u64)
    });
    // g1^{M_i(alpha) x} from the shared fixed-base table
    let mut tags = G1Projective::generator_table().mul_many_affine(&evals);
    // t_i^x: one fixed scalar, many points -> GLV batch kernel
    let hash_parts = mul_each_g1(&hashes, sk.x);
    // sigma_i = g1^{M_i(alpha) x} * t_i^x, one more shared-inversion pass
    Projective::batch_add_affine(&mut tags, &hash_parts);
    let mut tags = tags.into_iter();
    files
        .iter()
        .map(|file| tags.by_ref().take(file.num_chunks()).collect())
        .collect()
}

/// Validates a single authenticator against the public key:
/// `e(sigma_i, g2) == e(g1^{M_i(alpha)} * t_i, eps)`.
///
/// One-shot: prepares `eps` fresh each call. To validate many chunks of
/// the same key — e.g. pinpointing the forged tag after
/// [`verify_tags_batch`] rejects — use [`verify_tags_each`], which
/// shares one preparation across the whole file.
///
/// # Errors
/// [`DsAuditError::DimensionMismatch`] when the chunk holds more blocks
/// than the commitment key supports; a forged tag is
/// `Ok(Verdict::Reject(TagEquation))`.
pub fn verify_tag(
    pk: &PublicKey,
    name: Fr,
    chunk_index: u64,
    blocks: &[Fr],
    tag: &G1Affine,
) -> Result<Verdict, DsAuditError> {
    let eps_p = G2Prepared::from_affine(&pk.eps);
    verify_tag_prepared(pk, &eps_p, name, chunk_index, blocks, tag)
}

/// [`verify_tag`] against an already-prepared `eps` (one Miller-loop
/// preparation shared across calls).
fn verify_tag_prepared(
    pk: &PublicKey,
    eps_p: &G2Prepared,
    name: Fr,
    chunk_index: u64,
    blocks: &[Fr],
    tag: &G1Affine,
) -> Result<Verdict, DsAuditError> {
    let s = pk.s();
    if blocks.len() > s {
        return Err(DsAuditError::DimensionMismatch {
            what: "blocks vs. commitment key",
            expected: s,
            got: blocks.len(),
        });
    }
    let commit = msm(&pk.alpha_powers_g1[..blocks.len()], blocks);
    let base = commit.add_affine(&index_oracle(name, chunk_index)).to_affine();
    let tag_neg = tag.neg();
    // e(sigma, g2) * e(-base, eps) == 1
    let check = multi_pairing_prepared(&[
        (&tag_neg, G2Prepared::generator()),
        (&base, eps_p),
    ]);
    Ok(Verdict::from_equation(
        check.is_identity(),
        RejectReason::TagEquation,
    ))
}

/// Validates every authenticator of a file individually, sharing one
/// `eps` preparation across all chunks — the blame-assignment path
/// after a batch rejection (per-chunk verdicts instead of one combined
/// answer).
///
/// # Errors
/// [`DsAuditError::DimensionMismatch`] when the tag count does not
/// match the chunk count or a chunk exceeds the commitment key.
pub fn verify_tags_each(
    pk: &PublicKey,
    file: &EncodedFile,
    tags: &[G1Affine],
) -> Result<Vec<Verdict>, DsAuditError> {
    let d = file.num_chunks();
    if tags.len() != d {
        return Err(DsAuditError::DimensionMismatch {
            what: "authenticators per chunk",
            expected: d,
            got: tags.len(),
        });
    }
    let eps_p = G2Prepared::from_affine(&pk.eps);
    (0..d)
        .map(|i| verify_tag_prepared(pk, &eps_p, file.name, i as u64, file.chunk(i), &tags[i]))
        .collect()
}

/// Batch-validates all authenticators of a file with a random linear
/// combination (one pairing product instead of `d`): for random weights
/// `w_i`, checks `e(prod sigma_i^{w_i}, g2) == e(prod base_i^{w_i}, eps)`.
///
/// The weights are 128 bits wide (the small-exponents test of Bellare,
/// Garay and Rabin): a tag vector with any forged entry passes with
/// probability at most `2^-128`, already past BN254's own security
/// level, and both aggregations run as `d`-point 128-bit MSMs instead
/// of `2d`-point GLV-split ones.
///
/// # Errors
/// [`DsAuditError::DimensionMismatch`] when the tag count does not
/// match the chunk count; forged tags are
/// `Ok(Verdict::Reject(TagEquation))`.
pub fn verify_tags_batch<R: rand::RngCore + ?Sized>(
    rng: &mut R,
    pk: &PublicKey,
    file: &EncodedFile,
    tags: &[G1Affine],
) -> Result<Verdict, DsAuditError> {
    let d = file.num_chunks();
    if tags.len() != d {
        return Err(DsAuditError::DimensionMismatch {
            what: "authenticators per chunk",
            expected: d,
            got: tags.len(),
        });
    }
    let weights: Vec<u128> = (0..d)
        .map(|_| {
            let mut bytes = [0u8; 16];
            rng.fill_bytes(&mut bytes);
            u128::from_le_bytes(bytes)
        })
        .collect();
    // left: prod sigma_i^{w_i}
    let sigma_agg = msm_u128(tags, &weights);
    // right: prod (g1^{M_i(alpha)} t_i)^{w_i}
    //      = g1^{sum_i w_i M_i(alpha)} * prod t_i^{w_i}
    // sum_i w_i M_i(alpha) has coefficient vector sum_i w_i m_{i,*}
    let s = pk.s();
    let mut combined = vec![Fr::zero(); s];
    for (i, w) in weights.iter().enumerate() {
        let w = Fr::from_limbs([*w as u64, (*w >> 64) as u64, 0, 0]);
        for (j, m) in file.chunk(i).iter().enumerate() {
            combined[j] += w * *m;
        }
    }
    let commit = msm_g1(&pk.alpha_powers_g1, &combined);
    let hashes: Vec<G1Affine> = par_map(d, |i| index_oracle(file.name, i as u64));
    let hash_agg = msm_u128(&hashes, &weights);
    let base = commit.add(&hash_agg).to_affine();
    let sigma_neg = sigma_agg.to_affine().neg();
    let eps_p = G2Prepared::from_affine(&pk.eps);
    let holds = multi_pairing_prepared(&[
        (&sigma_neg, G2Prepared::generator()),
        (&base, &eps_p),
    ])
    .is_identity();
    Ok(Verdict::from_equation(holds, RejectReason::TagEquation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::keygen;
    use crate::params::AuditParams;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x7a6)
    }

    fn setup() -> (crate::keys::SecretKey, PublicKey, EncodedFile, Vec<G1Affine>) {
        let mut rng = rng();
        let params = AuditParams::new(4, 3).unwrap();
        let (sk, pk) = keygen(&mut rng, &params);
        let data: Vec<u8> = (0..700).map(|i| (i % 251) as u8).collect();
        let file = EncodedFile::encode(&mut rng, &data, params);
        let tags = generate_tags(&sk, &file);
        (sk, pk, file, tags)
    }

    #[test]
    fn tags_verify_individually() {
        let (_, pk, file, tags) = setup();
        assert_eq!(tags.len(), file.num_chunks());
        for (i, tag) in tags.iter().enumerate() {
            assert!(
                verify_tag(&pk, file.name, i as u64, file.chunk(i), tag)
                    .unwrap()
                    .accepted(),
                "tag {i} failed"
            );
        }
    }

    #[test]
    fn wrong_block_fails_validation() {
        let (_, pk, mut file, tags) = setup();
        file.corrupt_block(0, 1);
        assert_eq!(
            verify_tag(&pk, file.name, 0, file.chunk(0), &tags[0]).unwrap(),
            Verdict::Reject(RejectReason::TagEquation)
        );
    }

    #[test]
    fn wrong_index_fails_validation() {
        let (_, pk, file, tags) = setup();
        assert!(!verify_tag(&pk, file.name, 1, file.chunk(0), &tags[0])
            .unwrap()
            .accepted());
    }

    #[test]
    fn oversized_chunk_is_a_typed_error() {
        let (_, pk, file, tags) = setup();
        let blocks = vec![Fr::from_u64(1); pk.s() + 1];
        assert!(matches!(
            verify_tag(&pk, file.name, 0, &blocks, &tags[0]),
            Err(DsAuditError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn per_chunk_validation_pinpoints_the_forgery() {
        let (_, pk, file, mut tags) = setup();
        let mut rng = rng();
        tags[2] = G1Projective::random(&mut rng).to_affine();
        // the batch check only says "something is wrong"...
        assert!(!verify_tags_batch(&mut rng, &pk, &file, &tags)
            .unwrap()
            .accepted());
        // ...the per-chunk pass names the culprit, with one shared
        // eps preparation
        let verdicts = verify_tags_each(&pk, &file, &tags).unwrap();
        for (i, v) in verdicts.iter().enumerate() {
            assert_eq!(v.accepted(), i != 2, "only chunk 2 is forged");
        }
        let mut short = tags.clone();
        short.pop();
        assert!(matches!(
            verify_tags_each(&pk, &file, &short),
            Err(DsAuditError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn batch_validation_accepts_honest() {
        let (_, pk, file, tags) = setup();
        let mut rng = rng();
        assert!(verify_tags_batch(&mut rng, &pk, &file, &tags)
            .unwrap()
            .accepted());
    }

    #[test]
    fn batch_validation_rejects_forgery() {
        let (_, pk, file, mut tags) = setup();
        let mut rng = rng();
        tags[2] = G1Projective::random(&mut rng).to_affine();
        assert_eq!(
            verify_tags_batch(&mut rng, &pk, &file, &tags).unwrap(),
            Verdict::Reject(RejectReason::TagEquation)
        );
    }

    /// `sigma_a + D`, `sigma_b - D`: the errors cancel in the plain
    /// sum of the tags, so a check whose weights were equal (or shared
    /// their low bits) would pass it. Independent 128-bit weights leave
    /// `(w_a - w_b) * D`, nonzero except with probability `2^-128`.
    #[test]
    fn batch_validation_rejects_cancelling_forgery() {
        let (_, pk, file, mut tags) = setup();
        let mut rng = rng();
        let honest_sum = G1Projective::sum(tags.iter().map(G1Affine::to_projective));
        let delta = G1Projective::random(&mut rng);
        tags[0] = tags[0].to_projective().add(&delta).to_affine();
        tags[3] = tags[3].to_projective().add(&delta.neg()).to_affine();
        assert_eq!(
            G1Projective::sum(tags.iter().map(G1Affine::to_projective)),
            honest_sum
        );
        for _ in 0..4 {
            assert_eq!(
                verify_tags_batch(&mut rng, &pk, &file, &tags).unwrap(),
                Verdict::Reject(RejectReason::TagEquation)
            );
        }
    }

    #[test]
    fn batch_validation_wrong_count_is_a_typed_error() {
        let (_, pk, file, mut tags) = setup();
        let mut rng = rng();
        tags.pop();
        assert!(matches!(
            verify_tags_batch(&mut rng, &pk, &file, &tags),
            Err(DsAuditError::DimensionMismatch { .. })
        ));
    }

    /// A batch tags each file as the file alone does: an empty file, a
    /// 31-byte one, exactly one chunk, and two files past 128 chunks
    /// between them, so every pass of the batch splits into two ranges.
    #[test]
    fn a_batch_tags_what_single_files_tag() {
        let mut rng = rng();
        let params = AuditParams::new(4, 3).unwrap();
        let (sk, _) = keygen(&mut rng, &params);
        let chunk_bytes = params.s * crate::params::BLOCK_BYTES;
        let lens = [0, 31, chunk_bytes, 130 * chunk_bytes, 150 * chunk_bytes + 5];
        let files: Vec<EncodedFile> = lens
            .map(|len| {
                let data: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
                EncodedFile::encode(&mut rng, &data, params)
            })
            .into();
        assert!(files[3].num_chunks() > 128 && files[4].num_chunks() > 128);
        let batch = generate_tags_batch(&sk, &files.iter().collect::<Vec<_>>());
        let single: Vec<Vec<G1Affine>> =
            files.iter().map(|file| generate_tags(&sk, file)).collect();
        assert_eq!(batch, single);
        assert!(generate_tags_batch(&sk, &[]).is_empty());
    }

    #[test]
    fn tags_deterministic() {
        let (sk, _, file, tags) = setup();
        assert_eq!(generate_tags(&sk, &file), tags);
    }
}
