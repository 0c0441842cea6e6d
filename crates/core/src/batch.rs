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
//!
//! Blame for a rejected batch ([`Auditor::verify_private_each`]) reuses
//! the batch's weights. Both sides are products of per-item factors in
//! `GT` (final exponentiation is a homomorphism, and the key-regrouped
//! pairs split by bilinearity), so for a sub-batch `L` of a parent `P`
//! the rest `P \ L` has sides `E_P / E_L` and `rhs_P / rhs_L` exactly:
//! one sub-batch check per level, the sibling by division, inversion
//! being a conjugation. No weight is drawn beyond the top level's.

use std::iter::once;
use std::sync::Arc;

use dsaudit_algebra::endo::msm_g1;
use dsaudit_algebra::field::Field;
use dsaudit_algebra::g1::{G1Affine, G1Projective};
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
    pk: &'a PublicKey,
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
            pk,
            y: Fr::zero(),
            hashes: Vec::new(),
            hash_scalars: Vec::new(),
            psis: Vec::new(),
            psi_eps: Vec::new(),
            psi_delta: Vec::new(),
        }
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

/// Sub-batches of at most this many items are settled by verifying each
/// item alone instead of bisecting further. Swept at `(s, k) = (8, 4)`
/// (the sim's sizes) on 12- and 37-item batches under 1-3 keys with one
/// or two bad items, medians of 30 interleaved runs on a 2-CPU Xeon. A
/// 12-item batch with one bad item settled in 24.0 / 23.2 / 21.6 / 21.3
/// / 27.0 ms at leaf 1 / 2 / 3 / 4 / 6, against 39.6 ms for a single
/// verification of every item. At 37 items leaves 1-4 are within 5 %
/// (38-40 ms with one bad item, 55-59 ms with two) and 6 is slower.
const BISECT_LEAF: usize = 3;

/// The two `GT` sides of the batched check over `weighted` items:
/// `final_exp` of the regrouped pairs and `prod_u R_u^{-rho_u}`. The
/// batch holds iff they are equal. Both are products of per-item
/// factors, so a sub-batch's sides divide out of its parent's.
fn sides(auditor: &Auditor, weighted: &[(&BatchItem<'_>, Fr)]) -> (Gt, Gt) {
    let _span = dsaudit_obs::span("core.verify_batch");
    let r_terms: Vec<(Gt, Fr)> = weighted
        .iter()
        .map(|(item, rho)| (item.proof.r_commit.invert(), *rho))
        .collect();
    let (rhs, f) = join(
        || Gt::multi_pow(&r_terms),
        || {
            let mut sigmas = Vec::with_capacity(weighted.len());
            let mut sigma_scalars = Vec::with_capacity(weighted.len());
            let mut keys: Vec<KeyTerms<'_>> = Vec::new();
            for &(item, rho) in weighted {
                let w = h_prime(&item.proof.r_commit) * rho;
                sigmas.push(item.proof.sigma);
                sigma_scalars.push(w);
                let at = keys
                    .iter()
                    .position(|key| same_key(key.pk, item.pk))
                    .unwrap_or_else(|| {
                        keys.push(KeyTerms::new(item.pk));
                        keys.len() - 1
                    });
                keys[at].add_item(auditor.chi_cache(), item, rho, w);
            }
            let mut points = vec![msm_g1(&sigmas, &sigma_scalars)];
            let mut g2: Vec<Arc<G2Prepared>> = Vec::with_capacity(2 * keys.len());
            for key in keys {
                g2.push(auditor.g2_cache().prepared(&key.pk.eps));
                g2.push(auditor.g2_cache().prepared(&key.pk.delta));
                points.extend(key.points());
            }
            // one shared inversion for every affine conversion of the batch
            let points = G1Projective::batch_to_affine(&points);
            let g2 = once(G2Prepared::generator()).chain(g2.iter().map(Arc::as_ref));
            let pairs: Vec<(&G1Affine, &G2Prepared)> = points.iter().zip(g2).collect();
            dsaudit_obs::observe("core.batch_items", weighted.len() as u64);
            dsaudit_obs::observe("core.batch_pairs", pairs.len() as u64);
            let _miller = dsaudit_obs::span("algebra.miller_loop");
            multi_miller_loop(&pairs)
        },
    );
    (final_exponentiation(&f), rhs)
}

/// Checks every item's metadata, then draws one `rho_u` per item in
/// item order. Nothing is drawn when an item is unusable.
fn weights<R: rand::RngCore + ?Sized>(
    rng: &mut R,
    items: &[BatchItem<'_>],
) -> Result<Vec<Fr>, DsAuditError> {
    for item in items {
        item.meta.validate()?;
    }
    Ok(items.iter().map(|_| Fr::random(rng)).collect())
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
    let rhos = weights(rng, items)?;
    let weighted: Vec<(&BatchItem<'_>, Fr)> = items.iter().zip(rhos).collect();
    let (lhs, rhs) = sides(auditor, &weighted);
    Ok(Verdict::from_equation(
        lhs == rhs,
        RejectReason::BatchCombination,
    ))
}

/// Per-item flags against the caches of `auditor`: the batched check,
/// then, on a reject, bisection over the same weights. The items are
/// stably sorted by owner key so that each half spans few keys. Only
/// the left half of a failing sub-batch is checked; the right half's
/// sides are the parent's divided by the left's. Halves that hold
/// recurse no further, and a sub-batch of at most [`BISECT_LEAF`] items
/// verifies each item alone, so a flag is `false` exactly when
/// [`Auditor::verify_private`] rejects the item.
pub(crate) fn verify_private_each_with<R: rand::RngCore + ?Sized>(
    auditor: &Auditor,
    rng: &mut R,
    items: &[BatchItem<'_>],
) -> Vec<bool> {
    if items.is_empty() {
        return Vec::new();
    }
    let Ok(rhos) = weights(rng, items) else {
        // an unusable item: no weights were drawn
        return items
            .iter()
            .map(|item| verify_alone(auditor, item))
            .collect();
    };
    let weighted: Vec<(&BatchItem<'_>, Fr)> = items.iter().zip(rhos).collect();
    let (lhs, rhs) = sides(auditor, &weighted);
    if lhs == rhs {
        return vec![true; items.len()];
    }
    // keys in order of first appearance; the sort is stable
    let mut sorted: Vec<(usize, (&BatchItem<'_>, Fr))> = weighted.into_iter().enumerate().collect();
    sorted.sort_by_key(|(_, (item, _))| items.iter().position(|it| same_key(it.pk, item.pk)));
    let (at, weighted): (Vec<usize>, Vec<(&BatchItem<'_>, Fr)>) = sorted.into_iter().unzip();
    let mut blamed = Vec::new();
    bisect(auditor, &weighted, &at, (lhs, rhs), &mut blamed);
    (0..items.len()).map(|i| !blamed.contains(&i)).collect()
}

/// Collects into `blamed` the positions (`at`, parallel to `weighted`)
/// of the bad items of a sub-batch whose sides `failing` differ.
fn bisect(
    auditor: &Auditor,
    weighted: &[(&BatchItem<'_>, Fr)],
    at: &[usize],
    failing: (Gt, Gt),
    blamed: &mut Vec<usize>,
) {
    if weighted.len() <= BISECT_LEAF {
        let bad = weighted
            .iter()
            .zip(at)
            .filter(|((item, _), _)| !verify_alone(auditor, item));
        blamed.extend(bad.map(|(_, &i)| i));
        return;
    }
    let (left, right) = weighted.split_at(weighted.len() / 2);
    let (at_left, at_right) = at.split_at(left.len());
    let left_sides = sides(auditor, left);
    let right_sides = (
        failing.0.mul(&left_sides.0.invert()),
        failing.1.mul(&left_sides.1.invert()),
    );
    for (half, at, (lhs, rhs)) in [(left, at_left, left_sides), (right, at_right, right_sides)] {
        if lhs != rhs {
            bisect(auditor, half, at, (lhs, rhs), blamed);
        }
    }
}

fn verify_alone(auditor: &Auditor, item: &BatchItem<'_>) -> bool {
    auditor
        .verify_private(item.pk, &item.meta, &item.challenge, &item.proof)
        .is_ok_and(|v| v.accepted())
}

fn same_key(a: &PublicKey, b: &PublicKey) -> bool {
    a.eps == b.eps && a.delta == b.delta
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
    use rand::{RngCore, SeedableRng};

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

    /// Each item through single verification; an unusable item fails.
    fn singles(items: &[BatchItem<'_>]) -> Vec<bool> {
        let auditor = Auditor::new();
        items
            .iter()
            .map(|it| {
                auditor
                    .verify_private(it.pk, &it.meta, &it.challenge, &it.proof)
                    .is_ok_and(|v| v.accepted())
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

    /// `n` honest items: under one key, alternating between its two
    /// files, or under three keys in turn (item `i` under key `i % 3`).
    fn round_of(owners: &[Owner], n: usize, keys: usize) -> Round {
        let mut rng = rng();
        (0..n)
            .map(|i| {
                let (o, f) = (i % keys, (i / keys) % 2);
                let (file, tags, _) = &owners[o].files[f];
                let prover = Prover::new(&owners[o].pk, file, tags).unwrap();
                let ch = Challenge::random(&mut rng);
                (o, f, ch, prover.prove_private(&mut rng, &ch))
            })
            .collect()
    }

    /// The bad-item sets for a round: none, first, last, all, two under
    /// one key and two under different keys (the last two when the
    /// round has such a pair).
    fn bad_sets(round: &Round) -> Vec<Vec<usize>> {
        let n = round.len();
        let pair = |same: bool| {
            (0..n)
                .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                .find(|&(i, j)| (round[i].0 == round[j].0) == same)
                .map(|(i, j)| vec![i, j])
        };
        [
            Some(vec![]),
            Some(vec![0]),
            Some(vec![n - 1]),
            Some((0..n).collect()),
        ]
        .into_iter()
        .chain([pair(true), pair(false)])
        .flatten()
        .collect()
    }

    #[test]
    fn verify_private_each_flags_equal_single_verification() {
        let mut rng = rng();
        let owners: Vec<Owner> = (0..3).map(|_| make_owner(&mut rng, 2)).collect();
        let auditor = Auditor::new();
        for keys in [1, 3] {
            let full = round_of(&owners, 37, keys);
            for n in [1, 2, 3, 12, 37] {
                let round = full[..n].to_vec();
                let honest = batch_items(&owners, &round);
                for bad_at in bad_sets(&round) {
                    let mut items = honest.clone();
                    for &at in &bad_at {
                        items[at].proof = tamper(&items[at].proof, at % 4);
                    }
                    let flags = auditor.verify_private_each(&mut rng, &items);
                    let case = format!("{keys} keys, n = {n}, bad items {bad_at:?}");
                    assert_eq!(flags, singles(&items), "{case}");
                    let blamed = flags.iter().filter(|&&ok| !ok).count();
                    assert_eq!(blamed, bad_at.len(), "{case}");
                }
            }
        }
    }

    /// Blame reuses the batch's weights: after `verify_private_each` the
    /// RNG stands where `verify_private_batch` leaves it, whether the
    /// batch holds, bisects, or cannot be checked at all.
    #[test]
    fn verify_private_each_draws_what_the_batch_draws() {
        let (owners, round) = mixed_key_round();
        let honest = batch_items(&owners, &round);
        let mut bad = honest.clone();
        bad[2].proof = tamper(&bad[2].proof, 1);
        bad[7].proof = tamper(&bad[7].proof, 2);
        let mut unusable = bad.clone();
        unusable[4].meta.k = 0;
        let auditor = Auditor::new();
        for items in [honest, bad, unusable] {
            let (mut each, mut batch) = (rng(), rng());
            let flags = auditor.verify_private_each(&mut each, &items);
            let _ = auditor.verify_private_batch(&mut batch, &items);
            assert_eq!(each.next_u64(), batch.next_u64());
            assert_eq!(flags, singles(&items));
        }
    }
}
