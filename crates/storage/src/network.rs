//! The DSN storage pipeline (§III-A): owner-side encryption, erasure
//! coding, DHT-routed placement on provider nodes, retrieval and repair.
//!
//! The stack mirrors Tahoe-LAFS (the paper's testbed): data is encrypted
//! *before* leaving the owner (mandatory in the paper's private-storage
//! setting), erasure-coded `k`-of-`n`, and each share is placed on the
//! provider whose DHT id is closest to the share's content address.

use std::collections::BTreeMap;

use dsaudit_core::par::join;
use dsaudit_crypto::chacha20::{ChaCha20, PAR_MIN_BYTES};
use dsaudit_crypto::sha256::sha256;

use crate::dht::{DhtNetwork, NodeId};
use crate::erasure::{ErasureCode, ErasureError, Share};

/// A storage provider node: DHT member plus a share store.
#[derive(Debug, Default)]
pub struct ProviderNode {
    shares: BTreeMap<[u8; 32], Vec<u8>>,
}

impl ProviderNode {
    /// Stores a share blob under its key.
    pub fn put(&mut self, key: [u8; 32], data: Vec<u8>) {
        self.shares.insert(key, data);
    }

    /// Retrieves a share blob.
    pub fn get(&self, key: &[u8; 32]) -> Option<&Vec<u8>> {
        self.shares.get(key)
    }

    /// Deletes a share (models data loss / reclamation).
    pub fn drop_share(&mut self, key: &[u8; 32]) -> bool {
        self.shares.remove(key).is_some()
    }

    /// Bytes currently stored.
    pub fn stored_bytes(&self) -> usize {
        self.shares.values().map(Vec::len).sum()
    }
}

/// Placement record for one uploaded file.
#[derive(Clone, Debug)]
pub struct FileManifest {
    /// Content address of the (encrypted) file.
    pub content_id: NodeId,
    /// Original plaintext length.
    pub plaintext_len: usize,
    /// Ciphertext length (= plaintext; stream cipher).
    pub ciphertext_len: usize,
    /// Where each share went: `(share_index, provider, share_key)`.
    pub placements: Vec<(usize, NodeId, [u8; 32])>,
    /// Erasure parameters `(k, n)`.
    pub code: (usize, usize),
    /// ChaCha20 nonce used for this file.
    pub nonce: [u8; 12],
}

/// Errors from the storage network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// Too few live shares to reconstruct.
    Erasure(ErasureError),
    /// Repair could not find any eligible provider for a restored share
    /// (every live node already holds one of the file's shares).
    NoEligibleProvider {
        /// The share index that could not be re-placed.
        share: usize,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Erasure(e) => write!(f, "erasure decode failed: {e}"),
            StorageError::NoEligibleProvider { share } => {
                write!(f, "no eligible provider to re-place share {share}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<ErasureError> for StorageError {
    fn from(e: ErasureError) -> Self {
        StorageError::Erasure(e)
    }
}

/// The whole simulated DSN: DHT routing plus provider stores.
pub struct StorageNetwork {
    /// DHT routing layer.
    pub dht: DhtNetwork,
    providers: BTreeMap<NodeId, ProviderNode>,
    code: ErasureCode,
}

impl StorageNetwork {
    /// Builds a network of `n_providers` nodes with a `(k, n)` erasure
    /// code (paper example: 3-of-10).
    pub fn new(n_providers: usize, k: usize, n: usize) -> Self {
        let mut dht = DhtNetwork::new();
        let mut providers = BTreeMap::new();
        for i in 0..n_providers {
            let id = NodeId::from_label(&format!("provider-{i}"));
            dht.join(id);
            providers.insert(id, ProviderNode::default());
        }
        Self {
            dht,
            providers,
            code: ErasureCode::new(k, n),
        }
    }

    /// Access a provider node (e.g. to simulate data loss).
    pub fn provider_mut(&mut self, id: &NodeId) -> Option<&mut ProviderNode> {
        self.providers.get_mut(id)
    }

    /// Read access to a provider node's share store.
    pub fn provider(&self, id: &NodeId) -> Option<&ProviderNode> {
        self.providers.get(id)
    }

    /// The erasure code in force.
    pub fn code(&self) -> &ErasureCode {
        &self.code
    }

    /// Churn hook: a fresh provider joins the DHT with an empty store.
    /// Returns `false` (and changes nothing) when the id is taken.
    pub fn add_provider(&mut self, id: NodeId) -> bool {
        if self.providers.contains_key(&id) {
            return false;
        }
        self.dht.join(id);
        self.providers.insert(id, ProviderNode::default());
        true
    }

    /// Churn hook: a provider departs. `graceful` announces the
    /// departure (routing tables are scrubbed — [`DhtNetwork::leave`]);
    /// otherwise the node crashes abruptly ([`DhtNetwork::fail`]).
    /// Returns the departing node's share store so a graceful caller can
    /// migrate the blobs elsewhere; a crash loses them.
    pub fn remove_provider(&mut self, id: &NodeId, graceful: bool) -> Option<ProviderNode> {
        let node = self.providers.remove(id)?;
        if graceful {
            self.dht.leave(id);
        } else {
            self.dht.fail(id);
        }
        Some(node)
    }

    /// Owner-side upload: encrypt, erasure-code, place shares on the
    /// `n` providers closest to the content id.
    ///
    /// The content id (SHA-256 of the ciphertext) and the erasure
    /// encoding read the same ciphertext and nothing of each other, so
    /// from [`PAR_MIN_BYTES`] up they run side by side under
    /// [`join`]; below it, and on one CPU, in order. The keystream
    /// itself splits the same way ([`ChaCha20::apply_keystream`]).
    ///
    /// # Errors
    /// [`StorageError::NoEligibleProvider`] when the network has no live
    /// provider to place a share on (e.g. an empty DHT).
    pub fn upload(
        &mut self,
        key: [u8; 32],
        nonce: [u8; 12],
        plaintext: &[u8],
    ) -> Result<FileManifest, StorageError> {
        let mut ciphertext = plaintext.to_vec();
        ChaCha20::new(key, nonce).encrypt(&mut ciphertext);
        let content_id = || NodeId::from_content(&ciphertext);
        let shares = || self.code.encode(&ciphertext);
        let (content_id, shares) = if ciphertext.len() < PAR_MIN_BYTES {
            (content_id(), shares())
        } else {
            join(content_id, shares)
        };
        let candidates = self.dht.providers_for(&content_id, self.code.n());
        let mut placements = Vec::with_capacity(self.code.n());
        for share in shares {
            let provider = candidates
                .get(share.index % candidates.len().max(1))
                .copied()
                .ok_or(StorageError::NoEligibleProvider { share: share.index })?;
            let share_key = share_key(&content_id, share.index);
            self.providers
                .get_mut(&provider)
                .ok_or(StorageError::NoEligibleProvider { share: share.index })?
                .put(share_key, share.data);
            placements.push((share.index, provider, share_key));
        }
        Ok(FileManifest {
            content_id,
            plaintext_len: plaintext.len(),
            ciphertext_len: ciphertext.len(),
            placements,
            code: (self.code.k(), self.code.n()),
            nonce,
        })
    }

    /// Gathers up to `k` live, trusted shares of a manifest, skipping
    /// providers that departed, blobs that were dropped, and any share
    /// index the caller knows to be bad (the audit layer's verdicts).
    fn gather_shares(&self, manifest: &FileManifest, known_bad: &[usize]) -> Vec<Share> {
        let mut shares = Vec::new();
        for (index, provider, share_key) in &manifest.placements {
            if known_bad.contains(index) {
                continue;
            }
            let Some(node) = self.providers.get(provider) else {
                continue; // provider churned away; its share is lost
            };
            if let Some(data) = node.get(share_key) {
                shares.push(Share {
                    index: *index,
                    data: data.clone(),
                });
                if shares.len() == manifest.code.0 {
                    break;
                }
            }
        }
        shares
    }

    /// Owner-side download: gather any `k` live shares, decode, decrypt.
    /// Shares on departed providers are treated as lost, not as errors.
    ///
    /// # Errors
    /// Fails when fewer than `k` shares survive.
    pub fn download(&self, manifest: &FileManifest, key: [u8; 32]) -> Result<Vec<u8>, StorageError> {
        let shares = self.gather_shares(manifest, &[]);
        let mut ciphertext = self.code.decode(&shares, manifest.ciphertext_len)?;
        ChaCha20::new(key, manifest.nonce).decrypt(&mut ciphertext);
        Ok(ciphertext)
    }

    /// Repair: reconstruct every lost share — a blob that is missing,
    /// sits on a departed provider, or is in `known_bad` (shares the
    /// audit layer proved corrupt; erasure coding alone cannot tell) —
    /// straight from `k` survivors ([`ErasureCode::reconstruct`]: only
    /// the lost rows are computed, the file is never decoded), and
    /// re-place each on the live provider *closest to the content id
    /// by DHT distance* that does not already hold one of the file's
    /// shares ([`DhtNetwork::providers_for`]), never back on the slot
    /// that lost it. The manifest is updated in place.
    ///
    /// Returns the new placements as `(share_index, provider)` pairs so
    /// the audit layer can migrate the corresponding contracts. Repair
    /// operates entirely on ciphertext shares — no decryption key is
    /// required, so any party holding the manifest can run it.
    ///
    /// # Errors
    /// [`StorageError::Erasure`] when fewer than `k` trusted shares
    /// survive, [`StorageError::NoEligibleProvider`] when the network
    /// has no free node left for a restored share.
    pub fn repair(
        &mut self,
        manifest: &mut FileManifest,
        known_bad: &[usize],
    ) -> Result<Vec<(usize, NodeId)>, StorageError> {
        // which placements are lost, and who currently holds a healthy share
        let mut lost: Vec<usize> = Vec::new(); // positions in manifest.placements
        let mut holders: Vec<NodeId> = Vec::new();
        for (pos, (index, provider, share_key)) in manifest.placements.iter().enumerate() {
            let healthy = !known_bad.contains(index)
                && self
                    .providers
                    .get(provider)
                    .is_some_and(|node| node.get(share_key).is_some());
            if healthy {
                holders.push(*provider);
            } else {
                lost.push(pos);
            }
        }

        let survivors = self.gather_shares(manifest, known_bad);
        let lost_indices: Vec<usize> = lost.iter().map(|&pos| manifest.placements[pos].0).collect();
        let rebuilt = self.code.reconstruct(&survivors, &lost_indices)?;

        let mut repaired = Vec::with_capacity(lost.len());
        for (pos, share) in lost.into_iter().zip(rebuilt) {
            let (index, old_provider, share_key) = manifest.placements[pos];
            let mut unavailable = holders.clone();
            unavailable.push(old_provider);
            let target = self
                .eligible_provider(&manifest.content_id, &unavailable)
                .ok_or(StorageError::NoEligibleProvider { share: index })?;
            // reclaim whatever the failed slot still stores (a corrupt
            // blob must not resurface as a "live" share)
            if let Some(node) = self.providers.get_mut(&old_provider) {
                node.drop_share(&share_key);
            }
            self.providers
                .get_mut(&target)
                .ok_or(StorageError::NoEligibleProvider { share: index })?
                .put(share_key, share.data);
            manifest.placements[pos] = (index, target, share_key);
            holders.push(target);
            repaired.push((index, target));
        }
        Ok(repaired)
    }

    /// The single placement policy of the network: the live provider
    /// closest to `content_id` by DHT distance that is not in
    /// `unavailable` (current share holders, failed slots, departing
    /// nodes). Used by [`StorageNetwork::repair`] and by any layer that
    /// migrates shares proactively, so re-placement decisions never
    /// diverge between repair paths.
    pub fn eligible_provider(
        &self,
        content_id: &NodeId,
        unavailable: &[NodeId],
    ) -> Option<NodeId> {
        self.dht
            .providers_for(content_id, self.dht.len())
            .into_iter()
            .find(|c| !unavailable.contains(c))
    }

    /// How many of the manifest's shares are currently retrievable.
    pub fn live_shares(&self, manifest: &FileManifest) -> usize {
        manifest
            .placements
            .iter()
            .filter(|(_, provider, share_key)| {
                self.providers
                    .get(provider)
                    .map(|p| p.get(share_key).is_some())
                    .unwrap_or(false)
            })
            .count()
    }
}

fn share_key(content: &NodeId, index: usize) -> [u8; 32] {
    let mut buf = Vec::with_capacity(40);
    buf.extend_from_slice(&content.0);
    buf.extend_from_slice(&(index as u64).to_le_bytes());
    sha256(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> StorageNetwork {
        StorageNetwork::new(20, 3, 10)
    }

    #[test]
    fn upload_download_roundtrip() {
        let mut net = net();
        let data: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        let manifest = net.upload([1u8; 32], [2u8; 12], &data).expect("upload succeeds");
        assert_eq!(net.live_shares(&manifest), 10);
        let back = net.download(&manifest, [1u8; 32]).unwrap();
        assert_eq!(back, data);
    }

    /// A 2 MiB upload splits its keystream and hashes beside the erasure
    /// code; its content id is still the hash of the ciphertext one
    /// serial keystream pass makes (here in 32 KiB pieces, below the
    /// split floor), and the download returns the plaintext.
    #[test]
    fn large_upload_matches_serial_encryption() {
        let mut net = net();
        let (key, nonce) = ([9u8; 32], [4u8; 12]);
        let data: Vec<u8> = (0..2 << 20).map(|i| (i * 13 % 251) as u8).collect();
        let manifest = net.upload(key, nonce, &data).expect("upload succeeds");
        let mut serial = data.clone();
        let cipher = ChaCha20::new(key, nonce);
        for (piece, bytes) in serial.chunks_mut(32 << 10).enumerate() {
            cipher.apply_keystream(1 + 512 * piece as u32, bytes);
        }
        assert_eq!(manifest.content_id, NodeId::from_content(&serial));
        assert!(net.download(&manifest, key).unwrap() == data);
    }

    #[test]
    fn wrong_key_garbles_plaintext() {
        let mut net = net();
        let data = b"secret archive".to_vec();
        let manifest = net.upload([1u8; 32], [0u8; 12], &data).expect("upload succeeds");
        let wrong = net.download(&manifest, [9u8; 32]).unwrap();
        assert_ne!(wrong, data);
    }

    #[test]
    fn survives_n_minus_k_losses() {
        let mut net = net();
        let data = vec![0x5au8; 3000];
        let manifest = net.upload([3u8; 32], [4u8; 12], &data).expect("upload succeeds");
        // kill 7 of 10 shares (k = 3 survive)
        for (_, provider, share_key) in manifest.placements.iter().take(7) {
            assert!(net.provider_mut(provider).unwrap().drop_share(share_key));
        }
        assert_eq!(net.live_shares(&manifest), 3);
        assert_eq!(net.download(&manifest, [3u8; 32]).unwrap(), data);
    }

    #[test]
    fn too_many_losses_fail() {
        let mut net = net();
        let data = vec![1u8; 100];
        let manifest = net.upload([3u8; 32], [4u8; 12], &data).expect("upload succeeds");
        for (_, provider, share_key) in manifest.placements.iter().take(8) {
            net.provider_mut(provider).unwrap().drop_share(share_key);
        }
        assert!(net.download(&manifest, [3u8; 32]).is_err());
    }

    #[test]
    fn repair_restores_redundancy() {
        let mut net = net();
        let data = vec![7u8; 2222];
        let mut manifest = net.upload([8u8; 32], [9u8; 12], &data).expect("upload succeeds");
        let dropped: Vec<(usize, NodeId)> = manifest
            .placements
            .iter()
            .take(6)
            .map(|(i, p, k)| {
                assert!(net.provider_mut(p).unwrap().drop_share(k));
                (*i, *p)
            })
            .collect();
        assert_eq!(net.live_shares(&manifest), 4);
        let repaired = net.repair(&mut manifest, &[]).unwrap();
        assert_eq!(repaired.len(), 6);
        assert_eq!(net.live_shares(&manifest), 10);
        assert_eq!(net.download(&manifest, [8u8; 32]).unwrap(), data);
        // restored shares moved off the slots that lost them
        for ((idx, new_provider), (old_idx, old_provider)) in repaired.iter().zip(&dropped) {
            assert_eq!(idx, old_idx);
            assert_ne!(new_provider, old_provider, "share {idx} re-placed on the failed slot");
        }
    }

    #[test]
    fn repair_places_by_dht_proximity_and_reclaims_corrupt_blobs() {
        let mut net = StorageNetwork::new(30, 3, 6);
        let data: Vec<u8> = (0..1500).map(|i| (i % 239) as u8).collect();
        let mut manifest = net.upload([4u8; 32], [5u8; 12], &data).expect("upload succeeds");
        // the audit layer found share 2 corrupt (the blob itself is
        // intact here; erasure coding cannot tell, only the tags can)
        let (bad_index, bad_provider, bad_key) = manifest.placements[2];
        let repaired = net.repair(&mut manifest, &[bad_index]).unwrap();
        assert_eq!(repaired.len(), 1);
        let (idx, new_provider) = repaired[0];
        assert_eq!(idx, bad_index);
        assert_ne!(new_provider, bad_provider);
        // the corrupt blob was reclaimed from the failed slot
        assert!(net.provider(&bad_provider).unwrap().get(&bad_key).is_none());
        // the target is the nearest live node (by XOR distance to the
        // content id) that holds none of the file's shares
        let holders: Vec<NodeId> = manifest
            .placements
            .iter()
            .filter(|(i, _, _)| *i != bad_index)
            .map(|(_, p, _)| *p)
            .collect();
        let expected = net
            .dht
            .providers_for(&manifest.content_id, net.dht.len())
            .into_iter()
            .find(|c| *c != bad_provider && !holders.contains(c))
            .unwrap();
        assert_eq!(new_provider, expected);
        assert_eq!(net.download(&manifest, [4u8; 32]).unwrap(), data);
    }

    #[test]
    fn repair_recovers_from_provider_churn() {
        let mut net = StorageNetwork::new(25, 3, 8);
        let data = vec![0x42u8; 900];
        let mut manifest = net.upload([6u8; 32], [7u8; 12], &data).expect("upload succeeds");
        // two share holders crash, one leaves gracefully without migration
        let crashed: Vec<NodeId> = manifest.placements[..2].iter().map(|(_, p, _)| *p).collect();
        for id in &crashed {
            assert!(net.remove_provider(id, false).is_some());
        }
        let left = manifest.placements[2].1;
        net.remove_provider(&left, true);
        assert_eq!(net.live_shares(&manifest), 5);
        let repaired = net.repair(&mut manifest, &[]).unwrap();
        assert_eq!(repaired.len(), 3);
        assert_eq!(net.live_shares(&manifest), 8);
        for (_, provider) in &repaired {
            assert!(!crashed.contains(provider) && *provider != left);
        }
        assert_eq!(net.download(&manifest, [6u8; 32]).unwrap(), data);
    }

    /// Every loss pattern the code tolerates, parity-only survivors
    /// included: repair must put back, under each lost index, exactly
    /// the bytes `encode(ciphertext)` holds there — it rebuilds rows
    /// from survivors without ever seeing the ciphertext.
    #[test]
    fn repair_places_encoded_bytes_for_every_loss_pattern() {
        for (k, n) in [(3usize, 6usize), (5, 10)] {
            let data: Vec<u8> = (0..257u32).map(|i| (i * 7 % 253) as u8).collect();
            let (key, nonce) = ([k as u8; 32], [n as u8; 12]);
            let mut ciphertext = data.clone();
            ChaCha20::new(key, nonce).encrypt(&mut ciphertext);
            let expected = ErasureCode::new(k, n).encode(&ciphertext);
            for pattern in 1u32..1 << n {
                if pattern.count_ones() as usize > n - k {
                    continue;
                }
                let mut net = StorageNetwork::new(2 * n, k, n);
                let mut manifest = net.upload(key, nonce, &data).expect("upload succeeds");
                let mut lost = Vec::new();
                for (index, provider, share_key) in &manifest.placements {
                    if pattern >> index & 1 == 1 {
                        assert!(net.provider_mut(provider).unwrap().drop_share(share_key));
                        lost.push(*index);
                    }
                }
                let repaired = net.repair(&mut manifest, &[]).unwrap();
                let moved: Vec<usize> = repaired.iter().map(|(index, _)| *index).collect();
                assert_eq!(moved, lost, "{k}-of-{n} pattern {pattern:#b}");
                for (index, provider, share_key) in &manifest.placements {
                    assert_eq!(
                        net.provider(provider).unwrap().get(share_key),
                        Some(&expected[*index].data),
                        "{k}-of-{n} pattern {pattern:#b} share {index}"
                    );
                }
            }
        }
    }

    #[test]
    fn ciphertext_on_providers_not_plaintext() {
        // the mandatory owner-side encryption of §III-A: no provider
        // ever sees plaintext bytes
        let mut net = net();
        let data = b"plaintext must never leave the owner".to_vec();
        let manifest = net.upload([5u8; 32], [6u8; 12], &data).expect("upload succeeds");
        // systematic share 0 holds the first ciphertext bytes
        let (_, provider, share_key) = &manifest.placements[0];
        let stored = net.providers[provider].get(share_key).unwrap();
        assert!(!stored
            .windows(8)
            .any(|w| data.windows(8).any(|d| d == w)));
    }
}
