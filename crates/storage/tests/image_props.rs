//! Property test: a [`MemoryImage`] capture summarises a domain's logical
//! memory exactly, whatever machine frames back it.
//!
//! Each case maps a random P2M layout (PFN holes, machine frames
//! fragmented by interleaved allocations) and builds its contents from
//! pattern fills, explicit writes, scrubs and corruptions. Fills draw from
//! a few salts and sometimes continue a neighbour's base, so adjacent runs
//! that may merge (and ones that must not) are common. Then:
//!
//! * the capture's digest equals `logical_digest`, which equals the
//!   per-page reference `logical_digest_paged`;
//! * a restore onto freshly fragmented frames at the same PFNs
//!   re-captures equal, and leaves the source untouched;
//! * corrupting, scrubbing or refilling any one mapped frame changes both
//!   the capture and the digest (a scrub of a frame that holds nothing
//!   changes neither).

use rh_memory::contents::FrameContents;
use rh_memory::frame::{FrameRange, Mfn, Pfn};
use rh_memory::machine::MachineMemory;
use rh_memory::p2m::P2mTable;
use rh_sim::testkit::{check, Config, Gen};
use rh_sim::{prop_ensure, prop_ensure_eq};
use rh_storage::image::{logical_digest, logical_digest_paged, MemoryImage};

/// Fill salts are drawn from `0..SALTS`: few, so neighbours often share one.
const SALTS: u64 = 3;
/// The salt a single-frame refill uses; no other fill uses it.
const REFILL_SALT: u64 = SALTS;

/// A random layout: 1–5 PFN extents `(start, count)`, separated by holes
/// (or by none, so PFN-adjacent extents occur too).
fn random_layout(g: &mut Gen) -> Vec<(u64, u64)> {
    let mut pfn = g.u64_in(0, 16);
    let mut layout = Vec::new();
    for _ in 0..g.usize_in(1, 6) {
        let count = g.u64_in(1, 200);
        layout.push((pfn, count));
        pfn += count + if g.any_bool() { 0 } else { g.u64_in(1, 40) };
    }
    layout
}

/// Maps `layout` onto frames from `ram`, each extent in random pieces with
/// a throwaway allocation before every piece. The throwaways are released
/// at the end, so the next mapping lands in the gaps they leave.
fn map_layout(
    g: &mut Gen,
    ram: &mut MachineMemory,
    layout: &[(u64, u64)],
) -> Result<P2mTable, String> {
    let mut p2m = P2mTable::new();
    let mut shims = Vec::new();
    for &(start, count) in layout {
        let mut mapped = 0;
        while mapped < count {
            shims.extend(ram.allocate(g.u64_in(1, 8)).map_err(|e| e.to_string())?);
            let piece = g.u64_in(1, count - mapped + 1);
            let frames = ram.allocate(piece).map_err(|e| e.to_string())?;
            p2m.map_contiguous(Pfn(start + mapped), &frames)
                .map_err(|e| e.to_string())?;
            mapped += piece;
        }
    }
    ram.release(&shims).map_err(|e| e.to_string())?;
    Ok(p2m)
}

/// A random mapped span `[pfn, pfn + len)` inside one extent.
fn random_span(g: &mut Gen, layout: &[(u64, u64)]) -> (u64, u64) {
    let (start, count) = layout[g.usize_in(0, layout.len())];
    let at = g.u64_in(0, count);
    (start + at, g.u64_in(1, count - at + 1))
}

/// The machine frame behind mapped `pfn`.
fn mfn_of(p2m: &P2mTable, pfn: u64) -> Result<Mfn, String> {
    p2m.lookup(Pfn(pfn))
        .ok_or_else(|| format!("pfn {pfn} is not mapped"))
}

/// Applies 0–30 random content operations to the domain's frames.
fn random_contents(
    g: &mut Gen,
    p2m: &P2mTable,
    layout: &[(u64, u64)],
    mem: &mut FrameContents,
) -> Result<(), String> {
    for _ in 0..g.usize_in(0, 30) {
        let (pfn, len) = random_span(g, layout);
        let ranges = p2m
            .resolve_range(Pfn(pfn), len)
            .ok_or_else(|| format!("span {pfn}+{len} is not mapped"))?;
        match g.u32_in(0, 5) {
            // Fill, continuing the logical base across machine pieces (as
            // a restore does) or restarting it per piece.
            0 | 1 => {
                let salt = g.u64_in(0, SALTS);
                let continuing = g.any_bool();
                let mut base = g.u64_in(0, 400);
                for r in ranges {
                    mem.fill_pattern_with_base(r, salt, base);
                    base = if continuing {
                        base + r.count
                    } else {
                        g.u64_in(0, 400)
                    };
                }
            }
            2 => mem.write(mfn_of(p2m, pfn)?, g.any_u64()),
            3 => {
                for r in ranges {
                    mem.scrub(r);
                }
            }
            _ => {
                mem.corrupt(mfn_of(p2m, pfn)?, g.any_u64());
            }
        }
    }
    Ok(())
}

#[test]
fn captures_match_digests_and_survive_relocation() {
    check(
        "captures_match_digests_and_survive_relocation",
        &Config::default(),
        |g: &mut Gen| {
            let mut ram = MachineMemory::new(1 << 14);
            let mut mem = FrameContents::new();
            let layout = random_layout(g);
            let p2m = map_layout(g, &mut ram, &layout)?;
            random_contents(g, &p2m, &layout, &mut mem)?;

            let image = MemoryImage::capture(&p2m, &mem);
            let digest = logical_digest(&p2m, &mem);
            prop_ensure_eq!(image.digest(), digest, "capture digest");
            prop_ensure_eq!(logical_digest_paged(&p2m, &mem), digest, "paged digest");
            prop_ensure_eq!(image.pages(), p2m.total_pages());

            // Restore onto new, differently fragmented frames at the same
            // PFNs, pre-filled with garbage the restore must scrub.
            let target = map_layout(g, &mut ram, &layout)?;
            prop_ensure!(
                target.machine_ranges() != p2m.machine_ranges(),
                "target reuses the source frames"
            );
            for r in target.machine_ranges() {
                mem.fill_pattern(r, 0xBAD);
            }
            image
                .restore(&target, &mut mem)
                .map_err(|e| format!("restore failed: {e}"))?;
            prop_ensure_eq!(
                MemoryImage::capture(&target, &mem),
                image,
                "restored capture"
            );
            prop_ensure_eq!(logical_digest(&target, &mem), digest, "restored digest");
            prop_ensure_eq!(
                MemoryImage::capture(&p2m, &mem),
                image,
                "source after restore"
            );

            // Any one frame changed changes the capture and the digest.
            let (pfn, _) = random_span(g, &layout);
            let mfn = mfn_of(&p2m, pfn)?;
            let holds_value = mem.read(mfn).is_some();
            let mut corrupted = mem.clone();
            corrupted.corrupt(mfn, g.any_u64());
            let mut scrubbed = mem.clone();
            scrubbed.scrub(FrameRange::new(mfn, 1));
            let mut refilled = mem.clone();
            refilled.fill_pattern_with_base(FrameRange::new(mfn, 1), REFILL_SALT, g.any_u64());
            for (what, changed, must_differ) in [
                ("corrupt", &corrupted, true),
                ("scrub", &scrubbed, holds_value),
                ("refill", &refilled, true),
            ] {
                let after = MemoryImage::capture(&p2m, changed);
                let after_digest = logical_digest(&p2m, changed);
                prop_ensure_eq!(after.digest(), after_digest, "{what} of pfn {pfn}: digest");
                prop_ensure_eq!(
                    after != image,
                    must_differ,
                    "{what} of pfn {pfn}: capture changed"
                );
                prop_ensure_eq!(
                    after_digest != digest,
                    must_differ,
                    "{what} of pfn {pfn}: digest changed"
                );
            }
            Ok(())
        },
    );
}
