//! Batch auditing across users (§VII-D).
//!
//! When one storage provider serves dozens of data owners (the paper
//! measures ~30 per provider on Siacoin/Storj), the contract can verify
//! all posted proofs of one round together. Item `u` is weighted by a
//! fresh 254-bit `rho_u`, drawn one per item in item order, and the batch
//! accepts iff the `rho`-weighted product of the items' Eq. (2) holds:
//!
//! `prod_u [e(sigma_u^{zeta_u}, g2) e(g1^{-y'_u} chi_u^{-zeta_u} psi_u^{zeta_u r_u}, eps_u) e(psi_u^{-zeta_u}, delta_u)]^{rho_u} == prod_u R_u^{-rho_u}`
//!
//! A batch holding a failing item passes for at most one `rho_u` of the
//! `r` it is drawn from, so soundness is `1/r`. The left side is
//! evaluated regrouped by bilinearity, which changes how it is computed
//! and not what it is — this is the same test, not a new one:
//!
//! * every `sigma_u` pairs with the fixed `g2`, so one MSM over the
//!   `sigma_u` with scalars `zeta_u rho_u` gives **one** pair;
//! * items under one owner key `(eps, delta)` share both G2 points, so
//!   each distinct key gives **two** pairs: on its `eps` side one
//!   fixed-base `g1^{-sum y'_u rho_u}` plus one MSM over the `k`
//!   gathered `H(name || i)` of each of its items and its `psi_u`, on
//!   its `delta` side one MSM over its `psi_u`.
//!
//! So `1 + 2 * (distinct keys)` pairs go into one Miller loop, whatever
//! the item count. The `R_u^{-rho_u}` product (`Gt::multi_pow`: each
//! `rho_u` split along the Frobenius map, so ~66 cyclotomic squarings
//! shared by `4n` bases) runs in the side closure of [`join`] beside
//! the MSMs and the Miller loop, and one final exponentiation closes the
//! check.
//! The G2 points come prepared from the [`Auditor`]'s cache.

use std::iter::once;
use std::sync::Arc;

use dsaudit_algebra::endo::msm_g1;
use dsaudit_algebra::field::Field;
use dsaudit_algebra::g1::{G1Affine, G1Projective};
use dsaudit_algebra::g2::G2Affine;
use dsaudit_algebra::pairing::{final_exponentiation, multi_miller_loop, G2Prepared, Gt};
use dsaudit_algebra::par::join;
use dsaudit_algebra::Fr;
use dsaudit_crypto::prf::h_prime;

use crate::auditor::Auditor;
use crate::cache::ChiCache;
use crate::challenge::Challenge;
use crate::error::{DsAuditError, RejectReason, Verdict};
use crate::keys::PublicKey;
use crate::proof::PrivateProof;
use crate::verify::FileMeta;

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

/// What the items under one owner key pair with its `eps` and `delta`.
struct KeyTerms<'a> {
    eps: &'a G2Affine,
    delta: &'a G2Affine,
    /// `sum_u y'_u rho_u`.
    y: Fr,
    /// Every item's challenged `H(name || i)`, with coefficient
    /// `-zeta_u rho_u c_i`.
    hashes: Vec<G1Affine>,
    hash_scalars: Vec<Fr>,
    /// The items' `psi_u`, with `zeta_u rho_u r_u` on the eps side and
    /// `-zeta_u rho_u` on the delta side.
    psis: Vec<G1Affine>,
    psi_eps: Vec<Fr>,
    psi_delta: Vec<Fr>,
}

impl<'a> KeyTerms<'a> {
    fn new(pk: &'a PublicKey) -> Self {
        Self {
            eps: &pk.eps,
            delta: &pk.delta,
            y: Fr::zero(),
            hashes: Vec::new(),
            hash_scalars: Vec::new(),
            psis: Vec::new(),
            psi_eps: Vec::new(),
            psi_delta: Vec::new(),
        }
    }

    fn is_for(&self, pk: &PublicKey) -> bool {
        *self.eps == pk.eps && *self.delta == pk.delta
    }

    /// Adds one item, weighted `rho` and `w = zeta rho`: expands its
    /// challenge and gathers its `k` cached `H(name || i)`.
    fn add_item(&mut self, cache: &ChiCache, item: &BatchItem<'_>, rho: Fr, w: Fr) {
        self.y += item.proof.y_prime * rho;
        let set = {
            let _expand = dsaudit_obs::span("core.challenge_expand");
            item.challenge.expand(item.meta.num_chunks, item.meta.k)
        };
        dsaudit_obs::observe("core.challenge_set", set.len() as u64);
        let indices: Vec<u64> = set.iter().map(|&(i, _)| i).collect();
        self.hashes.extend(cache.index_oracles(item.meta.name, &indices));
        self.hash_scalars.extend(set.iter().map(|&(_, c)| -(w * c)));
        self.psis.push(item.proof.psi);
        self.psi_eps.push(w * item.challenge.r);
        self.psi_delta.push(-w);
    }

    /// The key's two G1 points: `g1^{-y} prod H^{..} prod psi_u^{zeta_u
    /// rho_u r_u}` for `eps` and `prod psi_u^{-zeta_u rho_u}` for `delta`.
    fn points(mut self) -> [G1Projective; 2] {
        let delta_side = msm_g1(&self.psis, &self.psi_delta);
        self.hashes.append(&mut self.psis);
        self.hash_scalars.append(&mut self.psi_eps);
        let eps_side = G1Projective::generator_table()
            .mul(-self.y)
            .add(&msm_g1(&self.hashes, &self.hash_scalars));
        [eps_side, delta_side]
    }
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
    let _span = dsaudit_obs::span("core.verify_batch");
    let rhos: Vec<Fr> = items.iter().map(|_| Fr::random(rng)).collect();
    let r_terms: Vec<(Gt, Fr)> = items
        .iter()
        .zip(&rhos)
        .map(|(item, rho)| (item.proof.r_commit.invert(), *rho))
        .collect();
    let (rhs, f) = join(
        || Gt::multi_pow(&r_terms),
        || {
            let mut sigmas = Vec::with_capacity(items.len());
            let mut sigma_scalars = Vec::with_capacity(items.len());
            let mut keys: Vec<KeyTerms<'_>> = Vec::new();
            for (item, rho) in items.iter().zip(&rhos) {
                let w = h_prime(&item.proof.r_commit) * *rho;
                sigmas.push(item.proof.sigma);
                sigma_scalars.push(w);
                let at = keys
                    .iter()
                    .position(|key| key.is_for(item.pk))
                    .unwrap_or_else(|| {
                        keys.push(KeyTerms::new(item.pk));
                        keys.len() - 1
                    });
                keys[at].add_item(auditor.chi_cache(), item, *rho, w);
            }
            let mut points = vec![msm_g1(&sigmas, &sigma_scalars)];
            let mut g2: Vec<Arc<G2Prepared>> = Vec::with_capacity(2 * keys.len());
            for key in keys {
                g2.push(auditor.g2_cache().prepared(key.eps));
                g2.push(auditor.g2_cache().prepared(key.delta));
                points.extend(key.points());
            }
            // one shared inversion for every affine conversion of the batch
            let points = G1Projective::batch_to_affine(&points);
            let g2 = once(G2Prepared::generator()).chain(g2.iter().map(Arc::as_ref));
            let pairs: Vec<(&G1Affine, &G2Prepared)> = points.iter().zip(g2).collect();
            dsaudit_obs::observe("core.batch_items", items.len() as u64);
            dsaudit_obs::observe("core.batch_pairs", pairs.len() as u64);
            let _miller = dsaudit_obs::span("algebra.miller_loop");
            multi_miller_loop(&pairs)
        },
    );
    let holds = final_exponentiation(&f) == rhs;
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

    /// One owner key and its files, at `(s, k) = (4, 3)`.
    struct Owner {
        pk: PublicKey,
        files: Vec<(EncodedFile, Vec<G1Affine>, FileMeta)>,
    }

    fn make_owner(rng: &mut rand::rngs::StdRng, files: usize) -> Owner {
        let params = AuditParams::new(4, 3).unwrap();
        let (sk, pk) = keygen(rng, &params);
        let files = (0..files)
            .map(|f| {
                let data: Vec<u8> = (0..600).map(|i| ((i * 7 + f * 53) % 251) as u8).collect();
                let file = EncodedFile::encode(rng, &data, params);
                let tags = generate_tags(&sk, &file);
                let meta = FileMeta {
                    name: file.name,
                    num_chunks: file.num_chunks(),
                    k: params.k,
                };
                (file, tags, meta)
            })
            .collect();
        Owner { pk, files }
    }

    /// `(owner, file, challenge, proof)` per item.
    type Round = Vec<(usize, usize, Challenge, PrivateProof)>;

    /// An honest round over three keys holding 1, 3 and 5 items (items
    /// 0; 1-3; 4-8). Within a key the items alternate between two files,
    /// so items of one file are challenged on overlapping chunk sets.
    fn mixed_key_round() -> (Vec<Owner>, Round) {
        let mut rng = rng();
        let owners: Vec<Owner> = (0..3).map(|_| make_owner(&mut rng, 2)).collect();
        let mut round = Vec::new();
        for (o, count) in [(0, 1), (1, 3), (2, 5)] {
            for j in 0..count {
                let (file, tags, _) = &owners[o].files[j % 2];
                let prover = Prover::new(&owners[o].pk, file, tags).unwrap();
                let ch = Challenge::random(&mut rng);
                round.push((o, j % 2, ch, prover.prove_private(&mut rng, &ch)));
            }
        }
        (owners, round)
    }

    fn batch_items<'a>(owners: &'a [Owner], round: &Round) -> Vec<BatchItem<'a>> {
        round
            .iter()
            .map(|&(o, f, challenge, proof)| BatchItem {
                pk: &owners[o].pk,
                meta: owners[o].files[f].2,
                challenge,
                proof,
            })
            .collect()
    }

    /// Each item through single verification.
    fn singles(items: &[BatchItem<'_>]) -> Vec<bool> {
        let auditor = Auditor::new();
        items
            .iter()
            .map(|it| {
                auditor
                    .verify_private(it.pk, &it.meta, &it.challenge, &it.proof)
                    .unwrap()
                    .accepted()
            })
            .collect()
    }

    /// `proof` with one field (0 `sigma`, 1 `y'`, 2 `psi`, 3 `R`) moved
    /// to another well-formed value.
    fn tamper(proof: &PrivateProof, field: usize) -> PrivateProof {
        let shift = |p: &G1Affine| {
            p.to_projective()
                .add(&G1Projective::generator())
                .to_affine()
        };
        let mut bad = *proof;
        match field {
            0 => bad.sigma = shift(&bad.sigma),
            1 => bad.y_prime += Fr::one(),
            2 => bad.psi = shift(&bad.psi),
            _ => bad.r_commit = bad.r_commit.mul(&Gt::generator()),
        }
        bad
    }

    #[test]
    fn mixed_key_batch_is_the_and_of_single_verifications() {
        let (owners, round) = mixed_key_round();
        let items = batch_items(&owners, &round);
        let challenged: Vec<(Fr, u64)> = items
            .iter()
            .flat_map(|it| {
                let set = it.challenge.expand(it.meta.num_chunks, it.meta.k);
                set.into_iter().map(move |(i, _)| (it.meta.name, i))
            })
            .collect();
        let distinct: std::collections::HashSet<_> = challenged.iter().collect();
        assert!(
            distinct.len() < challenged.len(),
            "premise: a (name, i) repeats"
        );
        let mut rng = rng();
        assert!(singles(&items).iter().all(|&ok| ok));
        assert!(verify_private_batch(&mut rng, &items).unwrap().accepted());
        // one item under each key, each field in turn
        for at in [0, 2, 7] {
            for field in 0..4 {
                let mut bad = items.clone();
                bad[at].proof = tamper(&bad[at].proof, field);
                let want = singles(&bad).iter().all(|&ok| ok);
                assert!(!want, "premise: item {at} field {field} fails alone");
                let got = verify_private_batch(&mut rng, &bad).unwrap().accepted();
                assert_eq!(got, want, "item {at} field {field}");
            }
        }
    }

    /// Two forged proofs under one key whose `sigma` errors cancel once
    /// weighted by `zeta`: `sigma_a + D / zeta_a` and `sigma_b - D /
    /// zeta_b`. The batch raises each `sigma_u` to `zeta_u rho_u`, so with
    /// `rho = 1` the pair would pass; the drawn `rho` must catch it.
    #[test]
    fn errors_that_cancel_at_unit_weights_still_reject() {
        let mut rng = rng();
        let owner = make_owner(&mut rng, 1);
        let (file, tags, meta) = &owner.files[0];
        let prover = Prover::new(&owner.pk, file, tags).unwrap();
        let mut items: Vec<BatchItem<'_>> = (0..2)
            .map(|_| {
                let challenge = Challenge::random(&mut rng);
                let proof = prover.prove_private(&mut rng, &challenge);
                BatchItem {
                    pk: &owner.pk,
                    meta: *meta,
                    challenge,
                    proof,
                }
            })
            .collect();
        let zetas: Vec<Fr> = items.iter().map(|it| h_prime(&it.proof.r_commit)).collect();
        let weighted = |items: &[BatchItem<'_>]| {
            items
                .iter()
                .zip(&zetas)
                .fold(G1Projective::identity(), |acc, (it, z)| {
                    acc.add(&it.proof.sigma.mul(*z))
                })
        };
        let honest = weighted(&items);
        let d = G1Projective::random(&mut rng);
        for ((item, zeta), sign) in items.iter_mut().zip(&zetas).zip([Fr::one(), -Fr::one()]) {
            let err = d.mul(sign * zeta.inverse().unwrap());
            item.proof.sigma = item.proof.sigma.to_projective().add(&err).to_affine();
        }
        assert_eq!(
            weighted(&items),
            honest,
            "premise: the errors cancel at rho = 1"
        );
        assert_eq!(singles(&items), [false, false]);
        for _ in 0..3 {
            assert_eq!(
                verify_private_batch(&mut rng, &items).unwrap(),
                Verdict::Reject(RejectReason::BatchCombination)
            );
        }
    }

    #[test]
    fn permuting_items_leaves_the_verdict_unchanged() {
        let (owners, round) = mixed_key_round();
        let honest = batch_items(&owners, &round);
        let mut bad = honest.clone();
        bad[4].proof = tamper(&bad[4].proof, 0);
        let mut rng = rng();
        for (items, want) in [(honest, true), (bad, false)] {
            let mut perm = items;
            for step in 0..4 {
                match step {
                    0 => perm.reverse(),
                    1 => perm.rotate_left(4),
                    2 => perm.swap(0, 8),
                    _ => perm.rotate_right(3),
                }
                let got = verify_private_batch(&mut rng, &perm).unwrap().accepted();
                assert_eq!(got, want, "permutation {step}");
            }
        }
    }

    #[test]
    fn verify_private_each_flags_equal_single_verification() {
        let (owners, round) = mixed_key_round();
        let honest = batch_items(&owners, &round);
        let auditor = Auditor::new();
        let mut rng = rng();
        // no bad item, one, and two under different keys
        let cases: [&[usize]; 3] = [&[], &[5], &[0, 3]];
        for bad_at in cases {
            let mut items = honest.clone();
            for (field, &at) in bad_at.iter().enumerate() {
                items[at].proof = tamper(&items[at].proof, field + 1);
            }
            let flags = auditor.verify_private_each(&mut rng, &items);
            assert_eq!(flags, singles(&items), "bad items {bad_at:?}");
            assert_eq!(flags.iter().filter(|&&ok| !ok).count(), bad_at.len());
        }
    }
}
