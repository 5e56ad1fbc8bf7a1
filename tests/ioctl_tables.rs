//! The flat interface's fixed tables, checked against layouts pinned
//! here rather than read back from the declarations: the `PIOC*`
//! request table (number ↔ variant ↔ name) and the wire image of each
//! of the six counter families answered by a `PIOC*STATS` request.
//!
//! Every family image is a run of little-endian `u64`s, one per
//! counter. The field lists below are the published order; a counter
//! that is reordered, dropped, added or left out of the rendered view
//! fails its family's walk.

use ksim::kfault::KFaultStats;
use ksim::{MigStats, RecStats};
use procfs::ioctl::{self, Ioctl, IoctlPayload, StatsReport};
use procfs::{PrCacheStats, PrXStats};
use std::collections::HashSet;
use vfs::remote::WireStats;
use vfs::Errno;

/// Reads the little-endian word at `word` of an image.
fn word(image: &[u8], word: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&image[word * 8..word * 8 + 8]);
    u64::from_le_bytes(w)
}

/// One field-walk test per family. `$len` is the pinned image length
/// and the bracketed list the pinned field order; the walk checks that
///
/// * field *i*, set alone, lands at byte offset `8·i` and nowhere else,
///   and the sparse image round-trips;
/// * a fully populated image round-trips, every shorter image and one a
///   byte too long are rejected;
/// * the family's request decodes the image into the same report;
/// * `counters()` and `render()` carry exactly one entry per field, in
///   order, under the family's name.
macro_rules! field_walk {
    ($test:ident: $ty:ident via $ioc:ident as $variant:ident, $family:literal, $len:literal,
     [$($field:ident),+ $(,)?]) => {
        #[test]
        fn $test() {
            let names = [$(stringify!($field)),+];
            assert_eq!($ty::WIRE_LEN, $len, "{} wire length", $family);
            assert_eq!(names.len() * 8, $len, "pinned list disagrees with pinned length");
            let value = |i: usize| (($len as u64) << 32) | (i as u64 + 1);

            let mut all = $ty::default();
            let mut i = 0;
            $(
                let mut one = $ty::default();
                one.$field = value(i);
                let image = one.to_bytes();
                assert_eq!(image.len(), $len);
                for j in 0..names.len() {
                    let want = if j == i { value(i) } else { 0 };
                    assert_eq!(word(&image, j), want, "{}.{} in word {j}", $family, names[i]);
                }
                assert_eq!($ty::from_bytes(&image), Some(one));
                all.$field = value(i);
                i += 1;
            )+
            assert_eq!(i, names.len());

            let image = all.to_bytes();
            assert_eq!($ty::from_bytes(&image), Some(all));
            for keep in 0..$len {
                assert_eq!($ty::from_bytes(&image[..keep]), None, "{keep}-byte image accepted");
            }
            let mut long = image.clone();
            long.push(0);
            assert_eq!($ty::from_bytes(&long), None, "one-byte-long image accepted");

            let report = StatsReport::$variant(all);
            assert_eq!(
                Ioctl::$ioc.decode_reply(&image),
                Ok(IoctlPayload::Stats(report.clone()))
            );
            assert_eq!(Ioctl::$ioc.decode_reply(&image[..$len - 1]), Err(Errno::EIO));

            assert_eq!(report.family(), $family);
            let want: Vec<(&str, u64)> =
                names.iter().enumerate().map(|(i, n)| (*n, value(i))).collect();
            assert_eq!(report.counters(), want);
            let lines: String =
                want.iter().map(|(n, v)| format!("{}.{n} {v}\n", $family)).collect();
            assert_eq!(report.render(), lines);
        }
    };
}

field_walk!(cache_family_walk: PrCacheStats via CacheStats as Cache, "cache", 32, [
    hits, misses, invalidations, entries,
]);

field_walk!(exec_family_walk: PrXStats via XStats as Exec, "exec", 144, [
    enabled,
    tlb_hits,
    tlb_misses,
    tlb_invalidations,
    icache_hits,
    icache_misses,
    icache_invalidations,
    insns,
    tlb_frame_hits,
    page_epoch_bumps,
    sblock_built,
    sblock_dispatched,
    sblock_insns,
    sblock_exit_end,
    sblock_exit_side,
    sblock_exit_trap,
    sblock_exit_budget,
    sblock_stale,
]);

field_walk!(kfault_family_walk: KFaultStats via KFaultStats as KernelFaults, "kfault", 64, [
    enomem_vm,
    eagain_fork,
    eagain_spawn,
    eintr_wait,
    spurious_wakeups,
    deaths,
    deaths_mid_op,
    controller_deaths,
]);

field_walk!(recorder_family_walk: RecStats via RecStats as Recorder, "recorder", 96, [
    inputs,
    steps,
    bytes_logged,
    snapshots,
    replays,
    divergences,
    restores,
    ckpts,
    file_saves,
    file_loads,
    file_bytes,
    file_errors,
]);

field_walk!(migrate_family_walk: MigStats via MigStats as Migrate, "migrate", 64, [
    begins, chunks, bytes, dup_chunks, commits, aborts, digest_mismatches, resumes,
]);

field_walk!(wire_family_walk: WireStats via WireCounters as Wire, "wire", 192, [
    ops,
    bytes_sent,
    bytes_received,
    unsupported_ioctls,
    frames_sent,
    drops,
    truncations,
    bitflips,
    duplicates,
    delays,
    checksum_rejects,
    retries,
    dedup_hits,
    timeouts,
    sessions_opened,
    sessions_evicted,
    frames_shed,
    in_queue_hwm,
    out_queue_hwm,
    churn_events,
    resync_bytes,
    stale_replays,
    eagain_rejected,
    floods,
]);

/// `(identifier, number)` for each listed `PIOC*` constant.
macro_rules! pinned {
    ($($c:ident),+ $(,)?) => {
        [$((stringify!($c), ioctl::$c)),+]
    };
}

#[test]
fn every_request_round_trips_under_its_constant_name() {
    let pinned = pinned![
        PIOCSTATUS,
        PIOCSTOP,
        PIOCWSTOP,
        PIOCRUN,
        PIOCSTRACE,
        PIOCGTRACE,
        PIOCSFAULT,
        PIOCGFAULT,
        PIOCSENTRY,
        PIOCGENTRY,
        PIOCSEXIT,
        PIOCGEXIT,
        PIOCGREG,
        PIOCSREG,
        PIOCGFPREG,
        PIOCSFPREG,
        PIOCNMAP,
        PIOCMAP,
        PIOCOPENM,
        PIOCCRED,
        PIOCGROUPS,
        PIOCGETPR,
        PIOCGETU,
        PIOCPSINFO,
        PIOCKILL,
        PIOCUNKILL,
        PIOCSSIG,
        PIOCSHOLD,
        PIOCGHOLD,
        PIOCSFORK,
        PIOCRFORK,
        PIOCSRLC,
        PIOCRRLC,
        PIOCSWATCH,
        PIOCGWATCH,
        PIOCUSAGE,
        PIOCNICE,
        PIOCCACHESTATS,
        PIOCKFAULTSTATS,
        PIOCXSTATS,
        PIOCWIRESTATS,
        PIOCRECSTATS,
        PIOCCKPT,
        PIOCRESTORE,
        PIOCMIGRATE,
        PIOCMIGSTATS,
    ];
    assert_eq!(Ioctl::ALL.len(), pinned.len(), "request count");

    let variants: HashSet<Ioctl> = Ioctl::ALL.iter().copied().collect();
    assert_eq!(variants.len(), Ioctl::ALL.len(), "a variant is listed twice");
    let numbers: HashSet<u32> = Ioctl::ALL.iter().map(|i| i.req()).collect();
    assert_eq!(numbers.len(), Ioctl::ALL.len(), "two requests share a number");

    for &ioc in Ioctl::ALL {
        assert_eq!(Ioctl::from_req(ioc.req()), Some(ioc), "{ioc:?} does not round-trip");
    }
    for (name, req) in pinned {
        let ioc = Ioctl::from_req(req).unwrap_or_else(|| panic!("{name} unresolved"));
        assert_eq!(ioc.req(), req, "{name}");
        assert_eq!(ioc.name(), name, "{req:#x}");
        assert_eq!(ioctl::req_name(req), name);
    }
    assert_eq!(Ioctl::from_req(0x5000), None);
    assert_eq!(ioctl::req_name(0x5000), "PIOC???");
}
