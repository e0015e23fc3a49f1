//! Persistence round-trip guarantees:
//!
//! * publish → persist → rehydrate reproduces the serving artifact
//!   **bit-identically** — arena slab, shortcut tables, shortcut structure,
//!   and every answer (marginal and evidence-conditioned), on fixtures
//!   and on random networks;
//! * rehydrated answers also agree with a single-threaded VE oracle;
//! * corrupted, truncated, or wrong-version files, and files whose table
//!   spans point outside the table slab, fail loudly with the typed
//!   [`PgmError`] variants — never UB, never a silent wrong answer;
//! * the owned (non-mmap) backing behaves identically to the mapping.

use peanut_core::{
    FlatMaterialization, Materialization, OfflineContext, OnlineEngine, Peanut, PeanutConfig,
    Workload,
};
use peanut_junction::{build_junction_tree, JunctionTree, QueryEngine};
use peanut_pgm::generate::{generate_network, DagConfig};
use peanut_pgm::{fixtures, BayesianNetwork, PgmError, Potential, Scope, Var};
use peanut_store::{rehydrate_engine, save, StoreConfig, StoredEpoch, VERSION};
use peanut_ve::ve_answer;
use peanut_workload::{uniform_queries, with_evidence, QuerySpec};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("peanut-roundtrip-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Opens `path` expecting a failure; returns the typed error.
fn open_err(path: &Path, verify: bool) -> PgmError {
    match StoredEpoch::open(path, verify) {
        Ok(_) => panic!("expected {} to fail validation", path.display()),
        Err(e) => e,
    }
}

/// Oracle: `P(targets | evidence)` via single-threaded VE.
fn ve_conditional(bn: &BayesianNetwork, targets: &Scope, evidence: &[(Var, u32)]) -> Potential {
    let ev_scope = Scope::from_iter(evidence.iter().map(|&(v, _)| v));
    let q = targets.union(&ev_scope);
    let (mut joint, _) = ve_answer(bn, &q).unwrap();
    for &(v, val) in evidence {
        joint = joint.restrict(v, val).unwrap();
    }
    joint.normalize();
    joint
}

/// Selects a PEANUT+ materialization for a uniform workload over `bn`.
fn select_mat(
    bn: &BayesianNetwork,
    tree: &JunctionTree,
    engine: &QueryEngine<'_>,
    budget: u64,
    seed: u64,
) -> Materialization {
    let spec = QuerySpec {
        min_vars: 1,
        max_vars: 3,
    };
    let scopes = uniform_queries(bn.domain(), 24, spec, seed);
    let ctx = OfflineContext::new(tree, &Workload::from_queries(scopes)).unwrap();
    Peanut::offline_numeric(
        &ctx,
        &PeanutConfig::plus(budget).with_epsilon(1.0),
        engine.numeric_state().unwrap(),
    )
    .unwrap()
    .0
}

/// Asserts two materializations are bit-identical: shortcut structure,
/// ratios, benefits, epoch and every table value.
fn assert_same_materialization(a: &Materialization, b: &Materialization) {
    assert_eq!(a.epoch, b.epoch);
    assert_eq!(a.overlapping, b.overlapping);
    assert_eq!(a.shortcuts.len(), b.shortcuts.len());
    for (i, (x, y)) in a.shortcuts.iter().zip(&b.shortcuts).enumerate() {
        assert_eq!(x.shortcut.nodes(), y.shortcut.nodes(), "shortcut {i}");
        assert_eq!(x.ratio.to_bits(), y.ratio.to_bits(), "shortcut {i}");
        assert_eq!(x.benefit.to_bits(), y.benefit.to_bits(), "shortcut {i}");
        let bits = |p: &Option<Potential>| {
            p.as_ref()
                .map(|p| p.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(bits(&x.potential), bits(&y.potential), "shortcut {i} table");
    }
}

/// Saves `(mat, pack, slab)` and asserts the reopened file reproduces the
/// artifact and its answers bit for bit.
fn assert_round_trip(
    bn: &BayesianNetwork,
    tree: &JunctionTree,
    engine: &QueryEngine<'_>,
    mat: &Materialization,
    path: &Path,
    seed: u64,
) {
    let flat = FlatMaterialization::pack(mat);
    let slab = engine.numeric_state().unwrap().arena().slab();
    save(path, mat, &flat, slab).unwrap();

    let stored = StoredEpoch::open(path, true).unwrap();
    assert_eq!(stored.epoch(), mat.epoch);
    assert_eq!(stored.overlapping(), mat.overlapping);
    assert_eq!(stored.n_shortcuts(), mat.shortcuts.len());
    // arena slab and table slab are bitwise identical to what was saved
    assert_eq!(stored.arena_slab().len(), slab.len());
    for (a, b) in stored.arena_slab().iter().zip(slab) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    for i in 0..flat.len() {
        assert_eq!(stored.ratio(i).to_bits(), mat.shortcuts[i].ratio.to_bits());
        assert_eq!(
            stored.benefit(i).to_bits(),
            mat.shortcuts[i].benefit.to_bits()
        );
        assert_eq!(
            stored.shortcut_nodes(i),
            mat.shortcuts[i]
                .shortcut
                .nodes()
                .iter()
                .map(|&u| u as u64)
                .collect::<Vec<_>>()
        );
    }

    // rehydrate and compare answers: bit-identical to the in-RAM engine,
    // within 1e-9 of the VE oracle
    let (rengine, rmat) = rehydrate_engine(tree, &stored).unwrap();
    assert_same_materialization(&rmat, mat);
    let fresh = OnlineEngine::new(engine, mat);
    let rehydrated = OnlineEngine::new(&rengine, &rmat);
    let spec = QuerySpec {
        min_vars: 1,
        max_vars: 3,
    };
    let scopes = uniform_queries(bn.domain(), 12, spec, seed ^ 0x5eed);
    for q in with_evidence(bn.domain(), &scopes, 0.4, seed ^ 0xf00d) {
        let (targets, evidence) = (q.targets, q.evidence);
        let (a, ca) = fresh.conditional(&targets, &evidence).unwrap();
        let (b, cb) = rehydrated.conditional(&targets, &evidence).unwrap();
        assert_eq!(ca.ops, cb.ops, "rehydrated plan must match");
        assert_eq!(a.values().len(), b.values().len());
        for (x, y) in a.values().iter().zip(b.values()) {
            assert_eq!(x.to_bits(), y.to_bits(), "query {targets}");
        }
        let oracle = ve_conditional(bn, &targets, &evidence);
        assert!(b.max_abs_diff(&oracle).unwrap() < 1e-9, "query {targets}");
    }
}

#[test]
fn fixture_epochs_round_trip_bit_identically() {
    let dir = temp_dir("fixtures");
    for (i, bn) in [fixtures::figure1(), fixtures::asia(), fixtures::sprinkler()]
        .into_iter()
        .enumerate()
    {
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let mat = select_mat(&bn, &tree, &engine, 512, 7 + i as u64).with_epoch(3 + i as u64);
        let path = dir.join(format!("fixture{i}.pnut"));
        assert_round_trip(&bn, &tree, &engine, &mat, &path, 11 * i as u64);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_materialization_round_trips() {
    let dir = temp_dir("empty");
    let bn = fixtures::sprinkler();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let mat = Materialization::default().with_epoch(1);
    let path = dir.join("empty.pnut");
    assert_round_trip(&bn, &tree, &engine, &mat, &path, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn owned_backing_matches_mapping() {
    let dir = temp_dir("owned");
    let bn = fixtures::asia();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let mat = select_mat(&bn, &tree, &engine, 256, 3).with_epoch(9);
    let flat = FlatMaterialization::pack(&mat);
    let slab = engine.numeric_state().unwrap().arena().slab();
    let path = dir.join("epoch.pnut");
    save(&path, &mat, &flat, slab).unwrap();

    let mapped = StoredEpoch::open(&path, true).unwrap();
    let owned = StoredEpoch::open_owned(&path, true).unwrap();
    assert!(!owned.is_mapped());
    assert_eq!(mapped.epoch(), owned.epoch());
    assert_eq!(mapped.arena_slab().len(), owned.arena_slab().len());
    for (a, b) in mapped.arena_slab().iter().zip(owned.arena_slab()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    for i in 0..mapped.n_shortcuts() {
        assert_eq!(mapped.shortcut_nodes(i), owned.shortcut_nodes(i));
    }
    let rooted = engine.rooted();
    let from_mapped = mapped.rebuild_materialization(&tree, rooted).unwrap();
    let from_owned = owned.rebuild_materialization(&tree, rooted).unwrap();
    assert_same_materialization(&from_mapped, &from_owned);
    assert_same_materialization(&from_owned, &mat);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_config_tracks_the_latest_epoch() {
    let dir = temp_dir("latest");
    let cfg = StoreConfig::new(&dir);
    assert!(cfg.latest_epoch(4).is_none());
    let bn = fixtures::sprinkler();
    let tree = build_junction_tree(&bn).unwrap();
    let engine = QueryEngine::numeric(&tree, &bn).unwrap();
    let slab = engine.numeric_state().unwrap().arena().slab();
    for epoch in [1u64, 5, 3] {
        let mat = Materialization::default().with_epoch(epoch);
        let flat = FlatMaterialization::pack(&mat);
        cfg.save_epoch(4, &mat, &flat, slab).unwrap();
    }
    let (epoch, path) = cfg.latest_epoch(4).unwrap();
    assert_eq!(epoch, 5);
    assert_eq!(path, cfg.epoch_path(4, 5));
    // other tenants are untouched
    assert!(cfg.latest_epoch(5).is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// A saved store file (for corruption tests): its path, raw bytes, the
/// materialization it holds and the arena slab length.
struct SavedFile {
    path: PathBuf,
    bytes: Vec<u8>,
    mat: Materialization,
    arena_len: usize,
}

/// Selects and saves an epoch of `bn` under `budget` as `dir/name`.
fn save_file(dir: &Path, name: &str, bn: &BayesianNetwork, budget: u64) -> SavedFile {
    let tree = build_junction_tree(bn).unwrap();
    let engine = QueryEngine::numeric(&tree, bn).unwrap();
    let mat = select_mat(bn, &tree, &engine, budget, 1).with_epoch(2);
    let slab = engine.numeric_state().unwrap().arena().slab();
    let path = dir.join(name);
    save(&path, &mat, &FlatMaterialization::pack(&mat), slab).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    SavedFile {
        path,
        bytes,
        mat,
        arena_len: slab.len(),
    }
}

/// Writes a valid store file for a small fixture and returns its path
/// together with its raw bytes (for corruption tests).
fn valid_file(dir: &Path) -> (PathBuf, Vec<u8>) {
    let saved = save_file(dir, "valid.pnut", &fixtures::sprinkler(), 128);
    (saved.path, saved.bytes)
}

#[test]
fn corrupted_files_fail_loudly() {
    let dir = temp_dir("corrupt");
    let (path, bytes) = valid_file(&dir);
    let write = |name: &str, content: &[u8]| {
        let p = dir.join(name);
        std::fs::write(&p, content).unwrap();
        p
    };

    // truncation: cut anywhere — header comparison rejects it, with or
    // without checksum verification
    for cut in [0, 8, 79, 80, bytes.len() / 2, bytes.len() - 8] {
        let p = write("trunc.pnut", &bytes[..cut]);
        for verify in [true, false] {
            let err = open_err(&p, verify);
            assert!(
                matches!(err, PgmError::CorruptStore { .. }),
                "cut at {cut}: {err}"
            );
        }
    }
    // ragged length (not a multiple of 8)
    let p = write("ragged.pnut", &bytes[..bytes.len() - 3]);
    assert!(matches!(open_err(&p, false), PgmError::CorruptStore { .. }));

    // bad magic
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    let p = write("magic.pnut", &bad);
    assert!(matches!(open_err(&p, true), PgmError::CorruptStore { .. }));

    // unsupported version is its own typed error
    let mut bad = bytes.clone();
    bad[8..16].copy_from_slice(&(VERSION + 1).to_ne_bytes());
    let p = write("version.pnut", &bad);
    assert_eq!(
        open_err(&p, true),
        PgmError::StoreVersion {
            found: VERSION + 1,
            expected: VERSION
        }
    );

    // a flipped payload byte fails the checksum
    let mut bad = bytes.clone();
    let mid = 80 + (bad.len() - 80) / 2;
    bad[mid] ^= 0x10;
    let p = write("bitrot.pnut", &bad);
    let err = open_err(&p, true);
    assert!(matches!(err, PgmError::CorruptStore { .. }), "{err}");
    assert!(err.to_string().contains("checksum"));

    // oversized: extra trailing bytes are rejected too
    let mut bad = bytes.clone();
    bad.extend_from_slice(&[0u8; 16]);
    let p = write("oversized.pnut", &bad);
    assert!(matches!(open_err(&p, false), PgmError::CorruptStore { .. }));

    // The structural checks below patch words of a valid file holding a
    // dense table and re-stamp its checksum, so only the check under
    // test can object.
    let SavedFile {
        path: dense_path,
        bytes,
        mat,
        arena_len,
    } = save_file(&dir, "dense.pnut", &fixtures::asia(), 256);
    let dense = mat
        .shortcuts
        .iter()
        .position(|s| s.potential.is_some())
        .expect("the fixture selection materializes a table");
    let patched = |name: &str, words: &[(usize, u64)]| {
        let mut bad = bytes.clone();
        for &(at, w) in words {
            bad[at * 8..at * 8 + 8].copy_from_slice(&w.to_ne_bytes());
        }
        let checksum = peanut_store::fnv1a64(&bad[24..]);
        bad[16..24].copy_from_slice(&checksum.to_ne_bytes());
        write(name, &bad)
    };
    let n = mat.shortcuts.len();
    let nodes_len: usize = mat.shortcuts.iter().map(|s| s.shortcut.nodes().len()).sum();

    // a corrupt CSR (node_first not monotone) is rejected at open
    let node_first_at = 10 + arena_len;
    let p = patched("csr.pnut", &[(node_first_at, u64::MAX)]);
    let err = open_err(&p, true);
    assert!(matches!(err, PgmError::CorruptStore { .. }), "{err}");

    // a dense span reaching past the table slab, and an offset whose
    // offset + len overflows, are rejected at open with or without
    // checksum verification
    let slab_len = FlatMaterialization::pack(&mat).packed_entries();
    let span_off_at = node_first_at + (n + 1) + nodes_len + 2 * n + dense;
    let span_len_at = span_off_at + n;
    for (name, off, len) in [
        ("past-slab.pnut", 1, slab_len),
        ("overflow.pnut", u64::MAX - 1, 4),
    ] {
        let p = patched(name, &[(span_off_at, off), (span_len_at, len)]);
        for verify in [true, false] {
            let err = open_err(&p, verify);
            assert!(
                matches!(err, PgmError::CorruptStore { .. }),
                "{name}: {err}"
            );
            assert!(err.to_string().contains("span"), "{name}: {err}");
        }
    }

    // the intact originals still open fine after all of the above
    assert!(StoredEpoch::open(&path, true).is_ok());
    assert!(StoredEpoch::open(&dense_path, true).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rehydration_validates_against_the_tree() {
    let dir = temp_dir("wrong-tree");
    let (path, _) = valid_file(&dir);
    let stored = StoredEpoch::open(&path, true).unwrap();
    // a different network: the arena slab length cannot match
    let other_bn = fixtures::figure1();
    let other_tree = build_junction_tree(&other_bn).unwrap();
    let Err(err) = rehydrate_engine(&other_tree, &stored) else {
        panic!("rehydration against the wrong tree must fail");
    };
    assert!(matches!(err, PgmError::CorruptStore { .. }), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random networks, random budgets: persist → rehydrate → serve is
    /// bit-identical to the in-RAM epoch and matches the VE oracle.
    #[test]
    fn random_epochs_round_trip(seed in 0u64..500, n in 5usize..9, budget in 64u64..2048) {
        let cfg = DagConfig {
            n_nodes: n,
            n_edges: n - 1 + n / 3,
            max_in_degree: 3,
            window: 3,
            cardinalities: vec![2, 3],
        };
        let Ok(bn) = generate_network(&cfg, seed) else { return Ok(()) };
        let tree = build_junction_tree(&bn).unwrap();
        let engine = QueryEngine::numeric(&tree, &bn).unwrap();
        let mat = select_mat(&bn, &tree, &engine, budget, seed).with_epoch(seed + 1);
        let dir = temp_dir(&format!("prop-{seed}-{n}-{budget}"));
        let path = dir.join("epoch.pnut");
        assert_round_trip(&bn, &tree, &engine, &mat, &path, seed);
        std::fs::remove_dir_all(&dir).ok();
    }
}
