//! Trial-shaped `emerge-crypto` probes.
//!
//! The sizes come from one real `share_40x5` package build: every header
//! and column segment the package build seals, at its plaintext length, and
//! the thresholds of its Shamir splits. `crypto.seal_share_of_build`
//! then says what share of `package.build_us` the AEAD seal volume
//! explains at the measured seal rate.

use std::time::Instant;

use emerge_core::config::SchemeParams;
use emerge_core::package::{
    build_share_packages, decode_segment, open_segment, take_sealed_byte_count, KeySchedule,
    SharePackage,
};
use emerge_core::path::construct_paths;
use emerge_crypto::aead;
use emerge_crypto::chacha20::ChaCha20;
use emerge_crypto::hkdf::Hkdf;
use emerge_crypto::keys::SymmetricKey;
use emerge_crypto::shamir;
use emerge_dht::analytic::AnalyticSubstrate;
use emerge_obs::collector::{self, Collector};
use emerge_sim::rng::SeedSource;

use crate::protocol::{share_spec, world_config};

/// How long each probe samples, seconds.
const PROBE_SECONDS: f64 = 0.2;

/// The seal shape of one `share_40x5` package build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareShape {
    /// Plaintext length of every sealed header, all columns.
    pub headers: Vec<usize>,
    /// Plaintext length of every sealed column segment (columns 1..l).
    pub segments: Vec<usize>,
    /// AEAD plaintext bytes the build reported (`take_sealed_byte_count`).
    pub sealed_bytes: u64,
    /// Rows `n`.
    pub rows: usize,
    /// Split thresholds `m`, one per sealed column.
    pub thresholds: Vec<usize>,
}

impl ShareShape {
    /// Total plaintext bytes the shape seals.
    pub fn volume(&self) -> usize {
        self.headers.iter().chain(&self.segments).sum()
    }
}

/// Builds one real `share_40x5` package on a `seed` world and reads its
/// seal shape back out of the package.
///
/// # Errors
///
/// A failing layer call.
pub fn share_shape(seed: u64) -> Result<ShareShape, String> {
    let spec = share_spec();
    let SchemeParams::Share { n, l, m, .. } = &spec.params else {
        return Err("share_40x5 is a share cell".to_string());
    };
    let world = AnalyticSubstrate::build(world_config(), seed);
    let sender = SymmetricKey::generate(&mut SeedSource::new(seed).stream("crypto-probe"));
    let plan = construct_paths(&world, &spec.params, &sender).map_err(|e| e.to_string())?;
    let schedule = KeySchedule::new(sender.clone());
    let secret = sender.derive(b"message-secret-key");

    let previous = collector::install(Collector::new());
    let built = build_share_packages(&plan, &spec.params, &schedule, secret.as_bytes());
    let sealed_bytes = take_sealed_byte_count();
    collector::take();
    if let Some(previous) = previous {
        collector::install(previous);
    }
    let packages = built.map_err(|e| e.to_string())?;

    let package = SharePackage::from_bytes(&packages.package).map_err(|e| e.to_string())?;
    let mut shape = ShareShape {
        headers: Vec::new(),
        segments: Vec::new(),
        sealed_bytes,
        rows: *n,
        thresholds: m.clone(),
    };
    for (col, segment) in package.segments.iter().enumerate().take(*l) {
        let headers = if col == 0 {
            decode_segment(segment)
        } else {
            shape.segments.push(segment.len() - aead::OVERHEAD);
            open_segment(&schedule.bundle_key(col - 1), segment)
        }
        .map_err(|e| e.to_string())?;
        shape
            .headers
            .extend(headers.iter().map(|h| h.len() - aead::OVERHEAD));
    }
    Ok(shape)
}

/// Probe results.
#[derive(Debug, Clone, Copy, Default)]
pub struct CryptoProbe {
    /// AEAD seal rate over the shape's sizes, MB/s (10^6 bytes).
    pub aead_seal_mbps: f64,
    /// ChaCha20 keystream rate over the same sizes, MB/s.
    pub chacha20_mbps: f64,
    /// One slab split of `n` 32-byte row keys, microseconds.
    pub shamir_split_many_us: f64,
    /// One 32-byte HKDF expand, microseconds.
    pub hkdf_expand_us: f64,
}

/// Runs `pass` until the probe window is over; returns `(passes, secs)`.
fn sample(mut pass: impl FnMut()) -> (f64, f64) {
    pass();
    let start = Instant::now();
    let mut passes = 0u64;
    while start.elapsed().as_secs_f64() < PROBE_SECONDS {
        pass();
        passes += 1;
    }
    (passes as f64, start.elapsed().as_secs_f64())
}

/// Measures the primitives at `shape`.
///
/// # Errors
///
/// A Shamir split the shape's parameters reject.
pub fn probe(shape: &ShareShape) -> Result<CryptoProbe, String> {
    let key = SymmetricKey::from_bytes([0x42; 32]);
    let nonce = [7u8; 12];
    let sizes: Vec<usize> = shape
        .headers
        .iter()
        .chain(&shape.segments)
        .copied()
        .collect();
    let volume = shape.volume() as f64;
    let mut bufs: Vec<Vec<u8>> = sizes
        .iter()
        .map(|&len| {
            let mut b = Vec::with_capacity(len + aead::OVERHEAD);
            b.resize(len, 0x5a);
            b
        })
        .collect();

    let (passes, secs) = sample(|| {
        for buf in &mut bufs {
            let len = buf.len();
            aead::seal_in_place(&key, &nonce, buf, b"probe");
            buf.truncate(len);
        }
        std::hint::black_box(&bufs);
    });
    let aead_seal_mbps = passes * volume / secs / 1e6;

    let (passes, secs) = sample(|| {
        for buf in &mut bufs {
            ChaCha20::new(key.as_bytes(), &nonce, 1).apply_keystream(buf);
        }
        std::hint::black_box(&bufs);
    });
    let chacha20_mbps = passes * volume / secs / 1e6;

    let row_keys: Vec<[u8; 32]> = (0..shape.rows).map(|r| [r as u8 ^ 0x3c; 32]).collect();
    let views: Vec<&[u8]> = row_keys.iter().map(|k| k.as_slice()).collect();
    let mut rng = SeedSource::new(0x5eed).stream("shamir-probe");
    let mut split_err = None;
    let (passes, secs) = sample(|| {
        for &m in &shape.thresholds {
            match shamir::split_many(&views, m, shape.rows, &mut rng) {
                Ok(shares) => {
                    std::hint::black_box(shares);
                }
                Err(e) => split_err = Some(e.to_string()),
            }
        }
    });
    if let Some(e) = split_err {
        return Err(format!("shamir probe: {e}"));
    }
    let shamir_split_many_us = secs * 1e6 / (passes * shape.thresholds.len() as f64);

    let hk = Hkdf::from_prk([0x17; 32]);
    const LABELS: usize = 64;
    let (passes, secs) = sample(|| {
        for i in 0..LABELS {
            std::hint::black_box(hk.expand_key(&[b'r', b'/', i as u8, b'/', 3]));
        }
    });
    let hkdf_expand_us = secs * 1e6 / (passes * LABELS as f64);

    Ok(CryptoProbe {
        aead_seal_mbps,
        chacha20_mbps,
        shamir_split_many_us,
        hkdf_expand_us,
    })
}
