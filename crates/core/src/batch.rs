//! Batch auditing across users (§VII-D).
//!
//! When one storage provider serves dozens of data owners (the paper
//! measures ~30 per provider on Siacoin/Storj), the contract can verify
//! all posted proofs of one round together. Each user contributes three
//! pairs to **one** shared Miller loop (the accumulator squarings are
//! amortized over every pair, and each user's fixed G2 points come
//! prepared from the [`Auditor`]'s cache), all users share a *single*
//! final exponentiation, and random weights `rho_u` keep soundness (a
//! forged proof slips through with probability `1/r`).

use std::sync::Arc;

use dsaudit_algebra::field::Field;
use dsaudit_algebra::g1::{G1Affine, G1Projective};
use dsaudit_algebra::pairing::{multi_pairing_prepared, G2Prepared, Gt};
use dsaudit_algebra::Fr;
use dsaudit_crypto::prf::h_prime;

use crate::auditor::Auditor;
use crate::challenge::Challenge;
use crate::error::{DsAuditError, RejectReason, Verdict};
use crate::keys::PublicKey;
use crate::proof::PrivateProof;
use crate::verify::{eps_side, FileMeta};

/// One user's audit instance inside a batch.
#[derive(Clone, Debug)]
pub struct BatchItem<'a> {
    /// The user's public key.
    pub pk: &'a PublicKey,
    /// The audited file's metadata.
    pub meta: FileMeta,
    /// This round's challenge for the user.
    pub challenge: Challenge,
    /// The posted proof.
    pub proof: PrivateProof,
}

/// The batched check against the caches of `auditor`.
pub(crate) fn verify_private_batch_with<R: rand::RngCore + ?Sized>(
    auditor: &Auditor,
    rng: &mut R,
    items: &[BatchItem<'_>],
) -> Result<Verdict, DsAuditError> {
    if items.is_empty() {
        return Ok(Verdict::Accept);
    }
    for item in items {
        item.meta.validate()?;
    }
    // Per item: (sigma^{zeta rho}, g2), (g1^{-y' rho} chi^{-zeta rho}
    // psi^{zeta rho r}, eps), (psi^{-zeta rho}, delta) — same equation
    // shape as single verification, weighted by rho.
    let mut g1_points: Vec<G1Projective> = Vec::with_capacity(3 * items.len());
    let mut g2_points: Vec<Arc<G2Prepared>> = Vec::with_capacity(2 * items.len());
    let mut rhs_terms: Vec<(Gt, Fr)> = Vec::with_capacity(items.len());
    for item in items {
        let rho = Fr::random(rng);
        let zr = h_prime(&item.proof.r_commit) * rho;
        g1_points.push(item.proof.sigma.mul(zr));
        g1_points.push(eps_side(
            auditor.chi_cache(),
            &item.meta,
            &item.challenge,
            item.proof.y_prime * rho,
            zr,
            &item.proof.psi,
        ));
        g1_points.push(item.proof.psi.mul(-zr));
        g2_points.push(auditor.g2_cache().prepared(&item.pk.eps));
        g2_points.push(auditor.g2_cache().prepared(&item.pk.delta));
        rhs_terms.push((item.proof.r_commit.invert(), rho));
    }
    // one shared inversion for every affine conversion of the batch
    let g1_points = G1Projective::batch_to_affine(&g1_points);
    // prod_u R_u^{-rho_u} through one shared cyclotomic squaring chain
    let rhs = Gt::multi_pow(&rhs_terms);
    let pairs: Vec<(&G1Affine, &G2Prepared)> = items
        .iter()
        .enumerate()
        .flat_map(|(i, _)| {
            [
                (&g1_points[3 * i], G2Prepared::generator()),
                (&g1_points[3 * i + 1], g2_points[2 * i].as_ref()),
                (&g1_points[3 * i + 2], g2_points[2 * i + 1].as_ref()),
            ]
        })
        .collect();
    let holds = multi_pairing_prepared(&pairs) == rhs;
    Ok(Verdict::from_equation(holds, RejectReason::BatchCombination))
}

/// One-shot batched verification with cold caches. Prefer
/// [`Auditor::verify_private_batch`] for repeated rounds.
///
/// # Errors
/// [`DsAuditError::BadMeta`] when any item's metadata is unusable; a
/// failing batch is `Ok(Verdict::Reject(BatchCombination))`.
pub fn verify_private_batch<R: rand::RngCore + ?Sized>(
    rng: &mut R,
    items: &[BatchItem<'_>],
) -> Result<Verdict, DsAuditError> {
    Auditor::ephemeral().verify_private_batch(rng, items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::EncodedFile;
    use crate::keys::keygen;
    use crate::params::AuditParams;
    use crate::prove::Prover;
    use crate::tag::generate_tags;
    use dsaudit_algebra::g1::G1Affine;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xba7c4)
    }

    struct User {
        pk: PublicKey,
        file: EncodedFile,
        tags: Vec<G1Affine>,
        meta: FileMeta,
    }

    fn make_users(n: usize) -> Vec<User> {
        let mut rng = rng();
        (0..n)
            .map(|u| {
                let params = AuditParams::new(4, 3).unwrap();
                let (sk, pk) = keygen(&mut rng, &params);
                let data: Vec<u8> = (0..600).map(|i| ((i + u * 37) % 251) as u8).collect();
                let file = EncodedFile::encode(&mut rng, &data, params);
                let tags = generate_tags(&sk, &file);
                let meta = FileMeta {
                    name: file.name,
                    num_chunks: file.num_chunks(),
                    k: params.k,
                };
                User {
                    pk,
                    file,
                    tags,
                    meta,
                }
            })
            .collect()
    }

    #[test]
    fn honest_batch_verifies() {
        let users = make_users(4);
        let mut rng = rng();
        let mut items = Vec::new();
        for u in &users {
            let prover = Prover::new(&u.pk, &u.file, &u.tags).unwrap();
            let ch = Challenge::random(&mut rng);
            let proof = prover.prove_private(&mut rng, &ch);
            items.push(BatchItem {
                pk: &u.pk,
                meta: u.meta,
                challenge: ch,
                proof,
            });
        }
        let auditor = Auditor::new();
        assert!(auditor
            .verify_private_batch(&mut rng, &items)
            .unwrap()
            .accepted());
    }

    #[test]
    fn one_bad_apple_fails_the_batch() {
        let users = make_users(3);
        let mut rng = rng();
        let mut items = Vec::new();
        for (idx, u) in users.iter().enumerate() {
            let mut file = u.file.clone();
            if idx == 1 {
                file.corrupt_block(0, 0); // cheating provider for user 1
            }
            let prover = Prover::new(&u.pk, &file, &u.tags).unwrap();
            let ch = Challenge::from_beacon(&[idx as u8; 48]);
            // ensure chunk 0 is challenged: k=3 of d=5, loop beacons
            let mut beacon = [idx as u8; 48];
            let mut chosen = ch;
            for b in 0u8..=255 {
                beacon[1] = b;
                let cand = Challenge::from_beacon(&beacon);
                if cand
                    .expand(u.meta.num_chunks, u.meta.k)
                    .iter()
                    .any(|(i, _)| *i == 0)
                {
                    chosen = cand;
                    break;
                }
            }
            let proof = prover.prove_private(&mut rng, &chosen);
            items.push(BatchItem {
                pk: &u.pk,
                meta: u.meta,
                challenge: chosen,
                proof,
            });
        }
        assert_eq!(
            verify_private_batch(&mut rng, &items).unwrap(),
            Verdict::Reject(RejectReason::BatchCombination)
        );
    }

    #[test]
    fn empty_batch_is_trivially_valid() {
        let mut rng = rng();
        assert!(verify_private_batch(&mut rng, &[]).unwrap().accepted());
    }
}
