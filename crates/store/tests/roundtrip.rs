//! Round-trip property suite over chain/star/clique-shaped corpora, the
//! committed golden store, and corruption fuzz.
//!
//! The corpora mirror the three topologies the optimizer's own tests lean
//! on: a chain's connected subsets are the contiguous ranges, a star's are
//! the center-containing sets (plus singletons), and a clique's are every
//! nonempty subset. Entries carry memo tables shaped exactly like a DPccp
//! export over those rank spaces, so the suite exercises the same section
//! layouts the CLI writes — without depending on the optimizer crates.
//!
//! Regenerate the golden after a deliberate format change with
//! `MJOIN_UPDATE_GOLDEN=1 cargo test -p mjoin-store --test roundtrip`.

use std::path::PathBuf;

use mjoin_guard::MjoinError;
use mjoin_store::{fingerprint128, serialize, LoadedStore, StoreEntry, NO_SPLIT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Connected subsets of a chain R0–R1–…–R(n-1): the contiguous ranges.
fn chain_subsets(n: u32) -> Vec<u64> {
    let mut out = Vec::new();
    for i in 0..n {
        for j in i..n {
            let mask = ((1u64 << (j - i + 1)) - 1) << i;
            out.push(mask);
        }
    }
    out.sort_unstable();
    out
}

/// Connected subsets of a star centered on R0: singletons and every set
/// containing the center.
fn star_subsets(n: u32) -> Vec<u64> {
    let mut out: Vec<u64> = (1u64..(1 << n))
        .filter(|s| s & 1 == 1 || s.count_ones() == 1)
        .collect();
    out.sort_unstable();
    out
}

/// Connected subsets of a clique: every nonempty subset.
fn clique_subsets(n: u32) -> Vec<u64> {
    (1u64..(1 << n)).collect()
}

/// Builds a DPccp-shaped entry over `subsets`: solved ranks get a cost and
/// (for non-singletons) an in-range split; a left-deep plan's steps; a
/// response whose length is deliberately not 8-aligned.
fn entry_for(tag: &str, n: u32, subsets: Vec<u64>, rng: &mut StdRng) -> StoreEntry {
    let ranks = subsets.len();
    let mut costs = Vec::with_capacity(ranks);
    let mut splits = Vec::with_capacity(ranks);
    for (r, &s) in subsets.iter().enumerate() {
        if rng.gen_range(0..5) == 0 {
            // Unsolved rank: budget ran out before the memo reached it.
            costs.push(u64::MAX);
            splits.push(NO_SPLIT);
        } else {
            costs.push(rng.gen_range(0..1_000_000));
            if s.count_ones() < 2 {
                splits.push(NO_SPLIT);
            } else {
                let a = rng.gen_range(0..r.max(1)) as u32;
                let b = rng.gen_range(0..r.max(1)) as u32;
                splits.push((a, b));
            }
        }
    }
    let cards = if rng.gen_range(0..2) == 0 {
        Vec::new()
    } else {
        (0..ranks)
            .map(|_| {
                if rng.gen_range(0..4) == 0 {
                    u64::MAX // "not cached" sentinel
                } else {
                    rng.gen_range(0..10_000)
                }
            })
            .collect()
    };
    // Left-deep plan over all n relations, pre-order.
    let full = (1u64 << n) - 1;
    let steps: Vec<(u64, u64, u64)> = (1..n)
        .rev()
        .map(|k| {
            let set = (1u64 << (k + 1)) - 1;
            (set, set ^ (1u64 << k), 1u64 << k)
        })
        .collect();
    let response = format!(
        "plan over {tag}({n}): τ = {} (not 8-aligned on purpose)\n",
        rng.gen_range(0..99)
    );
    StoreEntry {
        fingerprint: fingerprint128(&format!("{tag}|{n}|{}", rng.gen_range(0..u64::MAX))),
        within: full,
        plan_cost: rng.gen_range(0..1_000_000),
        subsets,
        costs,
        splits,
        cards,
        steps,
        response,
    }
}

fn corpus_sized(seed: u64, chain_n: u32, star_n: u32, clique_n: u32) -> Vec<StoreEntry> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        entry_for("chain", chain_n, chain_subsets(chain_n), &mut rng),
        entry_for("star", star_n, star_subsets(star_n), &mut rng),
        entry_for("clique", clique_n, clique_subsets(clique_n), &mut rng),
        // Degenerate shapes ride along: a serve-snapshot entry with empty
        // sections, and a single-relation store.
        StoreEntry::response_only(fingerprint128("snapshot"), u64::MAX, "cached\n".to_string()),
        entry_for("chain", 1, chain_subsets(1), &mut rng),
    ]
}

fn corpus(seed: u64) -> Vec<StoreEntry> {
    corpus_sized(seed, 14, 10, 8)
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mjoin-store-roundtrip-{}-{tag}.store",
        std::process::id()
    ))
}

/// Serialize → load returns the identical entries, for every corpus
/// topology, via the owned path and both on-disk paths (mmap and
/// buffered), across many seeds.
#[test]
fn corpora_round_trip_over_every_load_path() {
    for seed in 0..8u64 {
        let entries = corpus(seed);
        let bytes = serialize(&entries).expect("serialize corpus");
        let owned = LoadedStore::from_bytes(bytes.clone()).expect("owned load");
        assert_eq!(owned.len(), entries.len());
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(&owned.entry_at(i).to_entry(), e, "seed {seed} entry {i}");
        }

        let path = temp_path(&format!("prop-{seed}"));
        mjoin_store::save(&path, &entries).expect("save corpus");
        assert_eq!(
            std::fs::read(&path).expect("reread"),
            bytes,
            "save must write serialize()'s bytes"
        );
        let mapped = LoadedStore::open(&path).expect("mmap load");
        let buffered = LoadedStore::open_buffered(&path).expect("buffered load");
        assert!(!buffered.via_mmap());
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(
                &mapped.entry_at(i).to_entry(),
                e,
                "mmap seed {seed} entry {i}"
            );
            assert_eq!(
                &buffered.entry_at(i).to_entry(),
                e,
                "buffered seed {seed} entry {i}"
            );
        }
        // Fingerprint lookup agrees across paths.
        for e in &entries {
            assert_eq!(
                mapped
                    .entry(&e.fingerprint)
                    .map(|v| v.response().to_string()),
                Some(e.response.clone())
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// The committed golden store: serialization is byte-stable across
/// releases, and the checked-in bytes load identically through mmap and
/// the buffered fallback. A diff here means the format changed — bump
/// [`mjoin_store::VERSION`] instead of blessing silently.
#[test]
fn golden_store_is_byte_identical_and_loads_on_both_paths() {
    let entries = corpus(0xD1CE);
    let bytes = serialize(&entries).expect("serialize golden corpus");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/v1.store");
    if std::env::var("MJOIN_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &bytes).expect("write golden");
    }
    let committed = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden store {} ({e}); run with MJOIN_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        committed, bytes,
        "golden store drifted; a format change must bump VERSION \
         (then regenerate with MJOIN_UPDATE_GOLDEN=1)"
    );
    for store in [
        LoadedStore::open(&path).expect("mmap the golden"),
        LoadedStore::open_buffered(&path).expect("buffer the golden"),
    ] {
        assert_eq!(store.len(), entries.len());
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(&store.entry_at(i).to_entry(), e, "golden entry {i}");
        }
    }
}

/// Corruption fuzz over a full corpus store: every truncation length and a
/// rotating single-bit flip at every byte yields the typed corruption
/// error — never a panic, never a silently-wrong load.
#[test]
fn truncations_and_bitflips_are_typed_errors() {
    // Mid-size corpus: every byte still gets a flip, but the quadratic
    // flip×revalidate loop stays fast in debug builds.
    let bytes = serialize(&corpus_sized(7, 8, 6, 5)).expect("serialize corpus");
    for cut in 0..bytes.len() {
        match LoadedStore::from_bytes(bytes[..cut].to_vec()) {
            Err(MjoinError::CorruptStore(_)) => {}
            other => panic!("truncation to {cut} bytes: expected CorruptStore, got {other:?}"),
        }
    }
    for i in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[i] ^= 1 << (i % 8);
        match LoadedStore::from_bytes(mutated) {
            Err(MjoinError::CorruptStore(_)) => {}
            Ok(_) => panic!("bit flip at byte {i} went undetected"),
            Err(other) => panic!("bit flip at byte {i}: expected CorruptStore, got {other:?}"),
        }
    }
}
