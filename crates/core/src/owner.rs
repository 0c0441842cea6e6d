//! The data-owner role handle: key generation, (streaming) encoding,
//! authenticator generation, and the outsourcing bundle.
//!
//! A [`DataOwner`] holds the secret key `(x, alpha)` and the derived
//! public key, and turns raw archives into [`Outsourcing`] bundles — the
//! exact payload shipped to a storage provider (encoded file + tag
//! vector + the public metadata the contract registers).

#![deny(missing_docs)]

use dsaudit_algebra::g1::G1Affine;
use dsaudit_algebra::Fr;
use dsaudit_crypto::prf::prf_fr;

use crate::error::DsAuditError;
use crate::file::EncodedFile;
use crate::keys::{keygen, public_key_for, PublicKey, SecretKey};
use crate::params::AuditParams;
use crate::tag::generate_tags;
use crate::verify::FileMeta;

/// Everything a storage provider receives for one file: the encoded
/// data, one authenticator per chunk, and the public audit metadata.
///
/// The bundle's `pk` is the owner's registration key — the provider
/// validates the tag vector against it before acknowledging the
/// contract (see [`crate::StorageProvider::ingest`]).
#[derive(Clone, Debug)]
pub struct Outsourcing {
    /// The owner's public key, as registered on chain.
    pub pk: PublicKey,
    /// The encoded file.
    pub file: EncodedFile,
    /// One homomorphic authenticator per chunk.
    pub tags: Vec<G1Affine>,
}

impl Outsourcing {
    /// The public metadata the contract stores about this file.
    pub fn meta(&self) -> FileMeta {
        FileMeta {
            name: self.file.name,
            num_chunks: self.file.num_chunks(),
            k: self.file.params.k,
        }
    }
}

/// Data-owner handle: secret key material plus the agreed parameters.
pub struct DataOwner {
    sk: SecretKey,
    pk: PublicKey,
    params: AuditParams,
}

impl DataOwner {
    /// Generates a fresh owner: samples `(x, alpha)` and derives the
    /// public key for `params.s`.
    pub fn generate<R: rand::RngCore + ?Sized>(rng: &mut R, params: AuditParams) -> Self {
        let (sk, pk) = keygen(rng, &params);
        Self { sk, pk, params }
    }

    /// Rebuilds an owner from stored secret-key material (the public
    /// key is re-derived deterministically).
    pub fn from_secret(sk: SecretKey, params: AuditParams) -> Self {
        let pk = public_key_for(&sk, params.s);
        Self { sk, pk, params }
    }

    /// The public key to register on chain.
    pub fn public_key(&self) -> &PublicKey {
        &self.pk
    }

    /// The owner's secret key (for vault storage via
    /// [`SecretKey::to_bytes`]).
    pub fn secret_key(&self) -> &SecretKey {
        &self.sk
    }

    /// The agreed audit parameters.
    pub fn params(&self) -> AuditParams {
        self.params
    }

    /// Encodes an in-memory archive (already encrypted by the storage
    /// layer — the paper mandates owner-side encryption).
    pub fn encode<R: rand::RngCore + ?Sized>(&self, rng: &mut R, data: &[u8]) -> EncodedFile {
        EncodedFile::encode(rng, data, self.params)
    }

    /// Streaming encode: reads the archive chunk by chunk, so GiB-scale
    /// preprocessing never buffers the raw bytes in full (see
    /// [`EncodedFile::encode_reader_with_name`]).
    ///
    /// # Errors
    /// Propagates reader failures as [`DsAuditError::Io`].
    pub fn encode_reader<R, T>(&self, rng: &mut R, reader: &mut T) -> Result<EncodedFile, DsAuditError>
    where
        R: rand::RngCore + ?Sized,
        T: std::io::Read + ?Sized,
    {
        EncodedFile::encode_reader(rng, reader, self.params)
    }

    /// Computes one homomorphic authenticator per chunk (the dominant
    /// pre-processing cost, Fig. 7).
    pub fn tag(&self, file: &EncodedFile) -> Vec<G1Affine> {
        generate_tags(&self.sk, file)
    }

    /// Encodes and tags an in-memory archive into the bundle shipped to
    /// a provider.
    pub fn outsource<R: rand::RngCore + ?Sized>(&self, rng: &mut R, data: &[u8]) -> Outsourcing {
        let file = self.encode(rng, data);
        let tags = self.tag(&file);
        Outsourcing {
            pk: self.pk.clone(),
            file,
            tags,
        }
    }

    /// Outsources with a caller-chosen on-chain `name` (deterministic:
    /// same name + same bytes reproduce the same bundle). This is the
    /// building block of per-share outsourcing, where the name must be
    /// re-derivable after an erasure share is reconstructed.
    pub fn outsource_with_name(&self, name: Fr, data: &[u8]) -> Outsourcing {
        let file = EncodedFile::encode_with_name(name, data, self.params);
        let tags = self.tag(&file);
        Outsourcing {
            pk: self.pk.clone(),
            file,
            tags,
        }
    }

    /// Per-share outsourcing for erasure-coded placement (§III-A meets
    /// §V-B): one share of a `k`-of-`n` coded file becomes its own
    /// auditable unit — its own `name`, encoded chunks, and tag vector —
    /// so each share-holding provider can be challenged and settled
    /// independently. The name is derived from the file's 32-byte
    /// content address and the share index via [`share_name`], so a
    /// share reconstructed during repair re-tags to the **same**
    /// registered name and the audit contract survives the migration.
    pub fn outsource_share(
        &self,
        content_address: &[u8; 32],
        index: u64,
        data: &[u8],
    ) -> Outsourcing {
        self.outsource_with_name(share_name(content_address, index), data)
    }

    /// [`DataOwner::outsource_share`] over a whole share vector, in
    /// index order (index `i` is position `i`).
    pub fn outsource_shares<'a, I>(&self, content_address: &[u8; 32], shares: I) -> Vec<Outsourcing>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        shares
            .into_iter()
            .enumerate()
            .map(|(i, data)| self.outsource_share(content_address, i as u64, data))
            .collect()
    }

    /// Streaming variant of [`DataOwner::outsource`]: encode from a
    /// reader, then tag chunk by chunk.
    ///
    /// # Errors
    /// Propagates reader failures as [`DsAuditError::Io`].
    pub fn outsource_reader<R, T>(&self, rng: &mut R, reader: &mut T) -> Result<Outsourcing, DsAuditError>
    where
        R: rand::RngCore + ?Sized,
        T: std::io::Read + ?Sized,
    {
        let file = self.encode_reader(rng, reader)?;
        let tags = self.tag(&file);
        Ok(Outsourcing {
            pk: self.pk.clone(),
            file,
            tags,
        })
    }
}

/// The deterministic on-chain name of erasure share `index` of the file
/// at `content_address`: a domain-separated PRF into `Z_p`. Owner,
/// repair agent, and contract all re-derive the same name from public
/// data, which is what lets an audit contract follow a share across
/// provider migrations.
pub fn share_name(content_address: &[u8; 32], index: u64) -> Fr {
    let mut seed = Vec::with_capacity(32 + 19);
    seed.extend_from_slice(b"dsaudit/share-name/");
    seed.extend_from_slice(content_address);
    prf_fr(&seed, index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x0114e4)
    }

    #[test]
    fn outsource_bundle_is_consistent() {
        let mut rng = rng();
        let params = AuditParams::new(4, 3).unwrap();
        let owner = DataOwner::generate(&mut rng, params);
        let bundle = owner.outsource(&mut rng, &[7u8; 500]);
        assert_eq!(bundle.tags.len(), bundle.file.num_chunks());
        assert_eq!(bundle.meta().num_chunks, bundle.file.num_chunks());
        assert_eq!(bundle.meta().k, params.k);
        assert_eq!(bundle.pk, *owner.public_key());
    }

    #[test]
    fn streaming_outsource_matches_in_memory() {
        let mut rng = rng();
        let params = AuditParams::new(4, 3).unwrap();
        let owner = DataOwner::generate(&mut rng, params);
        let data: Vec<u8> = (0..700).map(|i| (i % 251) as u8).collect();
        let in_memory = owner.encode(&mut rng, &data);
        let streamed = owner
            .encode_reader(&mut rng, &mut &data[..])
            .expect("in-memory reader");
        // names differ (fresh randomness); content must be identical
        assert_eq!(streamed.byte_len, in_memory.byte_len);
        assert_eq!(streamed.num_chunks(), in_memory.num_chunks());
        for i in 0..streamed.num_chunks() {
            assert_eq!(streamed.chunk(i), in_memory.chunk(i));
        }
        // and the owner's tags over equal content with equal names agree
        let renamed = EncodedFile::encode_with_name(streamed.name, &data, params);
        assert_eq!(owner.tag(&streamed), owner.tag(&renamed));
    }

    #[test]
    fn per_share_outsourcing_is_deterministic_and_independent() {
        let mut rng = rng();
        let params = AuditParams::new(4, 3).unwrap();
        let owner = DataOwner::generate(&mut rng, params);
        let content = [0xabu8; 32];
        let shares: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 200]).collect();
        let bundles = owner.outsource_shares(&content, shares.iter().map(Vec::as_slice));
        assert_eq!(bundles.len(), 3);
        // distinct names per share, all re-derivable from public data
        for (i, b) in bundles.iter().enumerate() {
            assert_eq!(b.file.name, share_name(&content, i as u64));
            assert_eq!(b.tags.len(), b.file.num_chunks());
        }
        assert_ne!(bundles[0].file.name, bundles[1].file.name);
        // a reconstructed share re-tags to the identical bundle
        let again = owner.outsource_share(&content, 1, &shares[1]);
        assert_eq!(again.file, bundles[1].file);
        assert_eq!(again.tags, bundles[1].tags);
        // a different file's share 1 gets a different name
        assert_ne!(share_name(&[0xcd; 32], 1), share_name(&content, 1));
    }

    /// Known answer for the tag vector of one erasure share: fixed key
    /// seed, content address, index and bytes. Captured before the
    /// write-path algebra changed (windowed `pow`, Euclid inverse,
    /// Jacobi-filtered `H`); the authenticators are a function of the
    /// inputs alone, so none of that may move the digest.
    #[test]
    fn outsource_share_tags_known_answer() {
        use crate::codec::Codec;
        let params = AuditParams::new(8, 5).unwrap();
        let owner = DataOwner::generate(&mut rng(), params);
        let data: Vec<u8> = (0..4000).map(|i| (i * 29 % 253) as u8).collect();
        let bundle = owner.outsource_share(&[0x5c; 32], 3, &data);
        assert_eq!(bundle.tags.len(), 17);
        let hex: String = dsaudit_crypto::sha256::sha256(&bundle.tags.encode())
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, "5f552adcc228be9bbe3eecc0071f6971283e33d12f03746db8a7b17862f981b1");
    }

    #[test]
    fn owner_rebuilds_from_secret_deterministically() {
        let mut rng = rng();
        let params = AuditParams::new(6, 4).unwrap();
        let owner = DataOwner::generate(&mut rng, params);
        let rebuilt = DataOwner::from_secret(owner.secret_key().clone(), params);
        assert_eq!(owner.public_key(), rebuilt.public_key());
    }
}
