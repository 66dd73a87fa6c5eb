//! The two corpus CLIs driven as binaries over real MRT files: the
//! derived day anchor equals an explicit `--epoch` of that midnight,
//! `kcc-corpus` refuses an empty directory, and `kcc-watch` reads a
//! directory as one rotated feed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use kcc_bgp_types::{Asn, Community, CommunitySet, PathAttributes, RouteUpdate};
use kcc_collector::{SessionKey, UpdateArchive};

/// Midnight UTC, 2020-03-15.
const MIDNIGHT: u32 = 1_584_230_400;

/// A fresh, empty directory unique to this test process.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kcc_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `<collector>.mrt`: two peers announcing one prefix with a
/// changing community, starting `offset_s` seconds after 01:00 UTC.
fn write_dump(dir: &Path, collector: &str, offset_s: u32) {
    let mut day = UpdateArchive::new(MIDNIGHT + 3_600 + offset_s);
    for peer in 0..2u8 {
        let key = SessionKey::new(
            collector,
            Asn(64_500 + u32::from(peer)),
            format!("192.0.2.{}", peer + 1).parse().unwrap(),
        );
        for i in 0..6u16 {
            let attrs = PathAttributes {
                as_path: format!("{} 3356 12654", 64_500 + u32::from(peer)).parse().unwrap(),
                communities: CommunitySet::from_classic([Community::from_parts(3356, i % 3)]),
                ..Default::default()
            };
            let time_us = u64::from(i) * 60_000_000;
            day.record(
                &key,
                RouteUpdate::announce(time_us, "84.205.64.0/24".parse().unwrap(), attrs),
            );
        }
    }
    let mut bytes = Vec::new();
    day.write_mrt(&mut bytes).unwrap();
    std::fs::write(dir.join(format!("{collector}.mrt")), bytes).unwrap();
}

fn run(bin: &str, args: &[&str], dir: &Path) -> Output {
    Command::new(bin).args(args).arg(dir).output().unwrap()
}

fn assert_success(out: &Output) {
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn derived_epoch_equals_explicit_midnight() {
    let dir = temp_dir("epoch");
    write_dump(&dir, "rrc00", 0);
    write_dump(&dir, "rrc01", 17);
    let midnight = MIDNIGHT.to_string();
    for bin in [env!("CARGO_BIN_EXE_kcc-corpus"), env!("CARGO_BIN_EXE_kcc-watch")] {
        let derived = run(bin, &[], &dir);
        let explicit = run(bin, &["--epoch", &midnight], &dir);
        assert_success(&derived);
        assert_success(&explicit);
        assert!(!derived.stdout.is_empty(), "{bin} printed nothing");
        assert_eq!(
            String::from_utf8_lossy(&derived.stdout),
            String::from_utf8_lossy(&explicit.stdout),
            "{bin}: derived epoch != --epoch {midnight}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kcc_corpus_rejects_an_empty_directory() {
    let dir = temp_dir("empty");
    std::fs::write(dir.join("notes.txt"), "not a dump").unwrap();
    let out = run(env!("CARGO_BIN_EXE_kcc-corpus"), &[], &dir);
    assert!(!out.status.success(), "an empty directory must fail kcc-corpus");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no *.mrt files in"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kcc_watch_reads_a_directory_as_one_feed() {
    let dir = temp_dir("feed");
    write_dump(&dir, "updates.00000", 0);
    write_dump(&dir, "updates.00001", 600);
    let out = run(env!("CARGO_BIN_EXE_kcc-watch"), &[], &dir);
    assert_success(&out);
    assert!(String::from_utf8_lossy(&out.stdout).contains("watch: 24 updates"));
    let _ = std::fs::remove_dir_all(&dir);
}
