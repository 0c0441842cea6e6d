//! Proof verification (§V-B Audit, §V-D step 2) and batch auditing
//! across users (§VII-D): one check, of which a single proof is a batch
//! of one.
//!
//! Both verification equations are a product of three pairings under one
//! final exponentiation. The paper writes the KZG term as
//! `e(psi^{-1}, delta * eps^{-r})`, but `eps^{-r}` would force a fresh G2
//! scalar multiplication *and* a fresh Miller-loop preparation every
//! round; moving the challenge exponent to the G1 side
//! (`e(psi^{-1}, eps^{-r}) = e(psi^{r}, eps)`) folds it into the `eps`
//! term, so every G2 point in the product is fixed across audits and
//! served prepared from the [`Auditor`]'s bounded
//! [`PreparedG2Cache`](crate::cache::PreparedG2Cache):
//!
//! * Eq. (2): `e(sigma^zeta, g2) * e(g1^{-y'} * chi^{-zeta} * psi^{zeta r}, eps) * e(psi^{-zeta}, delta) == R^{-1}`
//! * Eq. (1) is Eq. (2) at `zeta = 1`, `R = 1`.
//!
//! with `chi = prod H(name || i)^{c_i}` recomputed from public data.
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
//! `r` it is drawn from, so soundness is `1/r`. A single proof is the
//! same check over one term at unit weight: nothing is drawn and the
//! right side is `R^{-1}` itself, with no `GT` power. The left side is
//! evaluated regrouped by bilinearity, which changes how it is computed
//! and not what it is:
//!
//! * every `sigma_u` pairs with the fixed `g2`, so one MSM over the
//!   `sigma_u` with scalars `w_u = zeta_u rho_u` gives **one** pair;
//! * terms under one owner key `(eps, delta)` share both G2 points, so
//!   each distinct key gives **two** pairs: on its `eps` side one
//!   fixed-base `g1^{-sum y'_u rho_u}` plus one MSM over the `k`
//!   gathered `H(name || i)` of each of its terms and its `psi_u`, on
//!   its `delta` side one MSM over its `psi_u`. The eps-side point is
//!   never assembled from `chi`: `zeta` and `rho` are folded into the
//!   MSM's scalars and `psi` rides along as its `k+1`-th point.
//!
//! So `1 + 2 * (distinct keys)` pairs, whatever the item count, run as
//! two closures under [`join`]. What does not depend on the challenge
//! sets — the `sigma` MSM, each key's `delta`-side MSM, their Miller
//! loop against `g2` and the `delta`s, and the right side (the batch's
//! `prod_u R_u^{-rho_u}` is one `Gt::multi_pow`: each `rho_u` split along
//! the Frobenius map, so ~66 cyclotomic squarings shared by `4n` bases)
//! — goes on the second CPU while the caller expands each challenge,
//! gathers the hashes, runs each key's eps-side MSM and the Miller loop
//! against the `eps`s; the two `Fq12` values are multiplied and
//! exponentiated once. The Miller loop is multiplicative in its pairs,
//! so this is the one-loop product to the bit. With one CPU the same two
//! closures run in order.
//!
//! Blame for a rejected batch ([`Auditor::verify_private_each`]) reuses
//! the batch's weights. Both sides are products of per-item factors in
//! `GT` (final exponentiation is a homomorphism, and the key-regrouped
//! pairs split by bilinearity), so for a sub-batch `L` of a parent `P`
//! the rest `P \ L` has sides `E_P / E_L` and `rhs_P / rhs_L` exactly:
//! one sub-batch check per level, the sibling by division, inversion
//! being a conjugation. No weight is drawn beyond the top level's.

use std::iter::once;

use dsaudit_algebra::endo::msm_g1;
use dsaudit_algebra::field::Field;
use dsaudit_algebra::g1::{G1Affine, G1Projective};
use dsaudit_algebra::g2::G2Affine;
use dsaudit_algebra::pairing::{final_exponentiation, multi_miller_loop, G2Prepared, Gt};
use dsaudit_algebra::par::join;
use dsaudit_algebra::Fr;
use dsaudit_crypto::prf::h_prime;

use crate::auditor::Auditor;
use crate::cache::{ChiCache, ChiPoints};
use crate::challenge::Challenge;
use crate::error::{DsAuditError, RejectReason, Verdict};
use crate::keys::PublicKey;
use crate::proof::{PlainProof, PrivateProof};
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

/// One proof's left-side factor at weight `rho`: Eq. (2)'s
/// `(sigma, y', psi)` with `w = zeta rho`, or Eq. (1)'s `(sigma, y, psi)`
/// with `w = 1`.
struct Term<'a> {
    pk: &'a PublicKey,
    meta: &'a FileMeta,
    challenge: &'a Challenge,
    sigma: G1Affine,
    psi: G1Affine,
    /// `y rho`.
    y: Fr,
    /// `zeta rho`.
    w: Fr,
}

impl<'a> Term<'a> {
    /// `item`'s Eq. (2) term at weight `rho`.
    fn of(item: &'a BatchItem<'a>, rho: Fr) -> Self {
        Self {
            pk: item.pk,
            meta: &item.meta,
            challenge: &item.challenge,
            sigma: item.proof.sigma,
            psi: item.proof.psi,
            y: item.proof.y_prime * rho,
            w: h_prime(&item.proof.r_commit) * rho,
        }
    }
}

/// The terms under one owner key, which share its `eps` and `delta`.
struct KeyTerms<'t, 'a> {
    pk: &'a PublicKey,
    terms: Vec<&'t Term<'a>>,
}

impl KeyTerms<'_, '_> {
    /// `prod_u psi_u^{-w_u}`, paired with `delta`.
    fn delta_point(&self) -> G1Projective {
        let (psis, scalars): (Vec<G1Affine>, Vec<Fr>) =
            self.terms.iter().map(|term| (term.psi, -term.w)).unzip();
        msm_g1(&psis, &scalars)
    }

    /// `g1^{-sum y_u} prod_u prod_i H(name_u || i)^{-w_u c_i}
    /// psi_u^{w_u r_u}`, paired with `eps`: expands each term's challenge,
    /// gathers its `k` cached `H(name || i)` (with their slice rows while
    /// every gather has them) and runs one MSM over them and the `psi_u`.
    fn eps_point(&self, cache: &ChiCache) -> G1Projective {
        let mut hashes = ChiPoints::default();
        let mut scalars = Vec::new();
        for term in &self.terms {
            let set = {
                let _expand = dsaudit_obs::span("core.challenge_expand");
                term.challenge.expand(term.meta.num_chunks, term.meta.k)
            };
            dsaudit_obs::observe("core.challenge_set", set.len() as u64);
            let indices: Vec<u64> = set.iter().map(|&(i, _)| i).collect();
            hashes.append(cache.index_oracle_rows(term.meta.name, &indices));
            scalars.extend(set.iter().map(|&(_, c)| -(term.w * c)));
        }
        let y = self.terms.iter().fold(Fr::zero(), |y, term| y + term.y);
        let (psis, psi_scalars): (Vec<G1Affine>, Vec<Fr>) = self
            .terms
            .iter()
            .map(|term| (term.psi, term.w * term.challenge.r))
            .unzip();
        G1Projective::generator_table()
            .mul(-y)
            .add(&hashes.msm(&scalars, &psis, &psi_scalars))
    }
}

/// `terms` grouped by owner key, keys in order of first appearance.
fn by_key<'t, 'a>(terms: &'t [Term<'a>]) -> Vec<KeyTerms<'t, 'a>> {
    let mut keys: Vec<KeyTerms<'t, 'a>> = Vec::new();
    for term in terms {
        match keys.iter_mut().find(|key| same_key(key.pk, term.pk)) {
            Some(key) => key.terms.push(term),
            None => keys.push(KeyTerms {
                pk: term.pk,
                terms: vec![term],
            }),
        }
    }
    keys
}

/// The two `GT` sides of the check over `keys`: `final_exp` of the
/// regrouped pairs, and `rhs`, which runs in the side closure. The
/// check holds iff they are equal.
fn sides(
    auditor: &Auditor,
    keys: &[KeyTerms<'_, '_>],
    rhs: impl FnOnce() -> Gt + Send,
) -> (Gt, Gt) {
    // one lookup: each key's eps then delta, in key order, which the
    // two closures pick apart by position
    let g2_points: Vec<G2Affine> = keys.iter().flat_map(|key| [key.pk.eps, key.pk.delta]).collect();
    let g2 = auditor.g2_cache().prepared(&g2_points);
    let ((fixed, rhs), challenged) = join(
        || {
            let rhs = rhs();
            let (sigmas, scalars): (Vec<G1Affine>, Vec<Fr>) = keys
                .iter()
                .flat_map(|key| key.terms.iter().map(|term| (term.sigma, term.w)))
                .unzip();
            let mut points = vec![msm_g1(&sigmas, &scalars)];
            points.extend(keys.iter().map(KeyTerms::delta_point));
            // one shared inversion for every affine conversion
            let points = G1Projective::batch_to_affine(&points);
            let g2 =
                once(G2Prepared::generator()).chain(g2.iter().skip(1).step_by(2).map(AsRef::as_ref));
            let pairs: Vec<(&G1Affine, &G2Prepared)> = points.iter().zip(g2).collect();
            let _miller = dsaudit_obs::span("algebra.miller_loop");
            (multi_miller_loop(&pairs), rhs)
        },
        || {
            let points: Vec<G1Projective> = keys
                .iter()
                .map(|key| key.eps_point(auditor.chi_cache()))
                .collect();
            let points = G1Projective::batch_to_affine(&points);
            let g2 = g2.iter().step_by(2).map(AsRef::as_ref);
            let pairs: Vec<(&G1Affine, &G2Prepared)> = points.iter().zip(g2).collect();
            let _miller = dsaudit_obs::span("algebra.miller_loop");
            multi_miller_loop(&pairs)
        },
    );
    (final_exponentiation(&(fixed * challenged)), rhs)
}

/// One proof's check: its term at unit weight against `rhs`, with the
/// verdict counted.
fn holds_alone(auditor: &Auditor, term: Term<'_>, rhs: Gt) -> bool {
    let (lhs, rhs) = sides(auditor, &by_key(&[term]), || rhs);
    let holds = lhs == rhs;
    dsaudit_obs::counter_inc(if holds {
        "core.verdict.accept"
    } else {
        "core.verdict.reject"
    });
    holds
}

/// Eq. (1) for one proof: Eq. (2) at `zeta = 1`, `R = 1`.
pub(crate) fn plain_holds(
    auditor: &Auditor,
    pk: &PublicKey,
    meta: &FileMeta,
    challenge: &Challenge,
    proof: &PlainProof,
) -> bool {
    let _span = dsaudit_obs::span("core.verify_plain");
    let term = Term {
        pk,
        meta,
        challenge,
        sigma: proof.sigma,
        psi: proof.psi,
        y: proof.y,
        w: Fr::one(),
    };
    holds_alone(auditor, term, Gt::identity())
}

/// Eq. (2) for one item: its term at unit weight, so nothing is drawn
/// and the right side is `R^{-1}`. Single verification, and each item
/// of a bisection leaf.
pub(crate) fn private_holds(auditor: &Auditor, item: &BatchItem<'_>) -> bool {
    let _span = dsaudit_obs::span("core.verify_private");
    holds_alone(
        auditor,
        Term::of(item, Fr::one()),
        item.proof.r_commit.invert(),
    )
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

/// The two `GT` sides of the batched check over `weighted` items; the
/// right one is `prod_u R_u^{-rho_u}`. Both are products of per-item
/// factors, so a sub-batch's sides divide out of its parent's.
fn batch_sides(auditor: &Auditor, weighted: &[(&BatchItem<'_>, Fr)]) -> (Gt, Gt) {
    let _span = dsaudit_obs::span("core.verify_batch");
    let terms: Vec<Term<'_>> = weighted
        .iter()
        .map(|&(item, rho)| Term::of(item, rho))
        .collect();
    let keys = by_key(&terms);
    dsaudit_obs::observe("core.batch_items", weighted.len() as u64);
    dsaudit_obs::observe("core.batch_pairs", 1 + 2 * keys.len() as u64);
    sides(auditor, &keys, || {
        let r_terms: Vec<(Gt, Fr)> = weighted
            .iter()
            .map(|(item, rho)| (item.proof.r_commit.invert(), *rho))
            .collect();
        Gt::multi_pow(&r_terms)
    })
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
    let (lhs, rhs) = batch_sides(auditor, &weighted);
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
            .map(|item| item.meta.validate().is_ok() && private_holds(auditor, item))
            .collect();
    };
    let weighted: Vec<(&BatchItem<'_>, Fr)> = items.iter().zip(rhos).collect();
    let (lhs, rhs) = batch_sides(auditor, &weighted);
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
            .filter(|((item, _), _)| !private_holds(auditor, item));
        blamed.extend(bad.map(|(_, &i)| i));
        return;
    }
    let (left, right) = weighted.split_at(weighted.len() / 2);
    let (at_left, at_right) = at.split_at(left.len());
    let left_sides = batch_sides(auditor, left);
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

    /// Items on one file at `k` above the slice cutoff, once the
    /// auditor has promoted the file's chi rows: the key's eps-side MSM
    /// walks the rows, over indices that repeat across the items, and
    /// the flags still equal single verification.
    #[test]
    fn batch_over_promoted_rows_flags_what_singles_flag() {
        use dsaudit_algebra::msm::SLICE_MSM_CUTOFF;
        let mut rng = rng();
        let params = AuditParams::new(3, SLICE_MSM_CUTOFF + 2).unwrap();
        let (sk, pk) = keygen(&mut rng, &params);
        let data: Vec<u8> = (0..4000).map(|i| (i * 11 % 251) as u8).collect();
        let file = EncodedFile::encode(&mut rng, &data, params);
        let tags = generate_tags(&sk, &file);
        let meta = FileMeta {
            name: file.name,
            num_chunks: file.num_chunks(),
            k: params.k,
        };
        let prover = Prover::new(&pk, &file, &tags).unwrap();
        let auditor = Auditor::new();
        // every chunk challenged twice over: all rows promoted
        let all: Vec<u64> = (0..meta.num_chunks as u64).collect();
        for _ in 0..2 {
            let _ = auditor.chi_cache().index_oracle_rows(meta.name, &all);
        }
        assert_eq!(auditor.chi_cache().rows_len(), meta.num_chunks);
        let mut items: Vec<BatchItem<'_>> = (0..6)
            .map(|_| {
                let challenge = Challenge::random(&mut rng);
                let proof = prover.prove_private(&mut rng, &challenge);
                BatchItem {
                    pk: &pk,
                    meta,
                    challenge,
                    proof,
                }
            })
            .collect();
        assert!(auditor.verify_private_batch(&mut rng, &items).unwrap().accepted());
        items[4].proof.y_prime += Fr::one();
        let singles: Vec<bool> = items.iter().map(|item| verify_alone(&auditor, item)).collect();
        assert_eq!(singles, [true, true, true, true, false, true]);
        assert_eq!(auditor.verify_private_each(&mut rng, &items), singles);
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

    /// One item through the unit-weight check, against `auditor`'s caches.
    fn verify_alone(auditor: &Auditor, item: &BatchItem<'_>) -> bool {
        private_holds(auditor, item)
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
