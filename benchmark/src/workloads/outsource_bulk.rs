//! `outsource_bulk`: the write path beside the audit (read) path.
//!
//! Fresh 2 MiB plaintexts go through `StorageNetwork::upload` (ChaCha20,
//! 3-of-6 erasure coding, DHT placement over 16 providers); the six
//! shares are tagged with `DataOwner::outsource_shares` at `s = 50`;
//! each bundle's key and authenticators cross the `Codec` wire and are
//! validated by `StorageProvider::ingest`; then one share is dropped,
//! repaired, and the file downloaded and compared byte for byte.
//! Fixed-base and `mul_each` MSM, the tag-validation pairings, `storage`
//! erasure/DHT and `crypto` ChaCha20 dominate while prove/verify do
//! nothing, so a kernel change that helps audits but costs tagging
//! shows here.

use std::time::Instant;

use dsaudit_algebra::g1::G1Affine;
use dsaudit_core::{AuditParams, Codec, DataOwner, Outsourcing, PublicKey, StorageProvider};
use dsaudit_storage::StorageNetwork;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::harness::{random_bytes, sub_seed, Budget, Ctx, Outcome};

/// Plaintext bytes per file.
const FILE_BYTES: usize = 2 << 20;
/// Plaintext bytes of the untimed warm-up file.
const WARM_UP_BYTES: usize = 256 << 10;
/// Storage providers in the network.
const PROVIDERS: usize = 16;
/// Erasure code: any 3 of 6 shares rebuild a file.
const ERASURE: (usize, usize) = (3, 6);
/// Files per budgeted second (the issue: 40 in 20 s).
const FILES_PER_SECOND: f64 = 2.4;

/// Bytes moved by one file's trip, for the throughput figures.
#[derive(Default)]
struct Volume {
    plaintext: usize,
    shares: usize,
}

/// One file from plaintext to verified download. Returns whether the
/// dropped share was found and rebuilt.
fn outsource_file(
    ctx: &mut Ctx,
    rng: &mut StdRng,
    owner: &DataOwner,
    net: &mut StorageNetwork,
    plaintext: &[u8],
    drop_slot: usize,
    volume: &mut Volume,
) -> bool {
    let mut key = [0u8; 32];
    let mut nonce = [0u8; 12];
    rng.fill_bytes(&mut key);
    rng.fill_bytes(&mut nonce);
    let t = &mut ctx.tracer;

    let uploaded = t.timed("storage.upload", || net.upload(key, nonce, plaintext));
    ctx.checks.check(
        "upload_places_every_share",
        uploaded
            .as_ref()
            .is_ok_and(|m| m.placements.len() == ERASURE.1),
    );
    let Ok(mut manifest) = uploaded else {
        return false;
    };

    let bundles = t.timed("core.outsource_shares", || {
        let shares = manifest
            .placements
            .iter()
            .filter_map(|(_, provider, share_key)| {
                net.provider(provider)
                    .and_then(|node| node.get(share_key))
                    .map(Vec::as_slice)
            });
        owner.outsource_shares(&manifest.content_id.0, shares)
    });
    ctx.checks
        .check("every_share_is_tagged", bundles.len() == ERASURE.1);
    volume.plaintext += plaintext.len();
    for bundle in bundles {
        volume.shares += bundle.file.byte_len;
        // The key and the authenticators are what travels through the
        // canonical codec; the encoded blocks are the share itself.
        let carried = t.timed("core.bundle_codec", || {
            let pk = PublicKey::decode(&bundle.pk.encode());
            let tags = Vec::<G1Affine>::decode(&bundle.tags.encode());
            pk.and_then(|pk| tags.map(|tags| (pk, tags)))
        });
        ctx.checks.check(
            "bundle_wire_round_trip",
            carried
                .as_ref()
                .is_ok_and(|(pk, tags)| *pk == bundle.pk && *tags == bundle.tags),
        );
        let Ok((pk, tags)) = carried else { continue };
        let received = Outsourcing {
            pk,
            file: bundle.file,
            tags,
        };
        let ingested = t.timed("core.ingest_share", || {
            StorageProvider::ingest(rng, received)
        });
        ctx.checks
            .check("ingest_accepts_honest_share", ingested.is_ok());
    }

    let (lost_index, holder, share_key) =
        manifest.placements[drop_slot % manifest.placements.len()];
    let dropped = net
        .provider_mut(&holder)
        .is_some_and(|node| node.drop_share(&share_key));
    ctx.checks.check(
        "share_was_dropped",
        dropped && net.live_shares(&manifest) == ERASURE.1 - 1,
    );
    let repaired = t.timed("storage.repair", || net.repair(&mut manifest, &[]));
    let rebuilt = repaired
        .is_ok_and(|moved| moved.len() == 1 && moved[0].0 == lost_index && moved[0].1 != holder);
    ctx.checks.check(
        "repair_restores_full_redundancy",
        rebuilt && net.live_shares(&manifest) == ERASURE.1,
    );

    let downloaded = t.timed("storage.download", || net.download(&manifest, key));
    ctx.checks.check(
        "download_equals_plaintext",
        downloaded.is_ok_and(|bytes| bytes == plaintext),
    );
    rebuilt
}

/// Runs the workload for `seed`.
pub fn drive(seed: u64, budget: Budget, ctx: &mut Ctx) -> Outcome {
    let files = budget.count_for(FILES_PER_SECOND, 1);
    let mut out = Outcome::default();
    let mut volume = Volume::default();
    let mut stored_per_user_byte = 0.0;

    for rep in 0..budget.reps {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, rep as u64));
        let setup_start = Instant::now();
        let owner = ctx.tracer.timed("core.keygen", || {
            DataOwner::generate(&mut rng, AuditParams::default())
        });
        let mut net = ctx.tracer.timed("storage.network_new", || {
            StorageNetwork::new(PROVIDERS, ERASURE.0, ERASURE.1)
        });
        let warm_up = random_bytes(&mut rng, WARM_UP_BYTES);
        outsource_file(
            ctx,
            &mut rng,
            &owner,
            &mut net,
            &warm_up,
            0,
            &mut Volume::default(),
        );
        out.setup_s.push(setup_start.elapsed().as_secs_f64());

        let mut user_bytes = WARM_UP_BYTES;
        for i in 0..files {
            let plaintext = random_bytes(&mut rng, FILE_BYTES);
            let clock = ctx.tracer.begin_round(true);
            let rebuilt =
                outsource_file(ctx, &mut rng, &owner, &mut net, &plaintext, i, &mut volume);
            let ms = ctx.tracer.end_round(clock);
            out.round_ms.push(ms);
            out.rounds += 1;
            out.measured_s += ms / 1e3;
            out.injected += 1;
            out.detected += u64::from(rebuilt);
            user_bytes += FILE_BYTES;
        }
        let stored: usize = net
            .dht
            .node_ids()
            .iter()
            .filter_map(|id| net.provider(id))
            .map(|node| node.stored_bytes())
            .sum();
        stored_per_user_byte = stored as f64 / user_bytes as f64;
    }

    if ctx.tracer.is_on() {
        let t = &ctx.tracer;
        let secs = |name: &str| t.measured_ms(name).iter().sum::<f64>() / 1e3;
        let plain_mb = volume.plaintext as f64 / 1e6;
        let share_mb = volume.shares as f64 / 1e6;
        let layer = &mut out.layer;
        layer.insert(
            "core.preprocess_mb_s",
            share_mb / secs("core.outsource_shares"),
        );
        layer.insert("core.ingest_mb_s", share_mb / secs("core.ingest_share"));
        layer.insert("storage.upload_mb_s", plain_mb / secs("storage.upload"));
        layer.insert("storage.download_mb_s", plain_mb / secs("storage.download"));
        layer.insert(
            "storage.repair_ms",
            crate::harness::median(&t.measured_ms("storage.repair")),
        );
        layer.insert("storage.stored_bytes_per_user_byte", stored_per_user_byte);
    }
    out
}
