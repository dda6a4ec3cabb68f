//! Byte accounting of the counting allocator: live bytes and the peak.
//!
//! `LIVE_BYTES` and `PEAK_BYTES` are process-wide, so these checks
//! cannot share a process with concurrently running tests: another
//! thread freeing memory mid-check moves the counter under it. This
//! binary runs without the libtest harness (`harness = false`), one
//! check after the other on the main thread, so nothing else allocates
//! while a check measures. It prints libtest-style result lines.

use ema_bench::alloc::{live_bytes, peak_bytes, reset_peak_bytes};

fn peak_bytes_tracks_a_regions_high_water_mark() {
    reset_peak_bytes();
    let base = peak_bytes();
    let v: Vec<u8> = vec![0; 1 << 20];
    std::hint::black_box(&v);
    let with_buf = peak_bytes();
    assert!(
        with_buf >= base + (1 << 20),
        "peak {with_buf} did not cover the 1 MiB buffer over base {base}"
    );
    drop(v);
    // Peak is a high-water mark: freeing must not lower it.
    assert!(peak_bytes() >= with_buf);
    // Rebasing returns it to the (now lower) live footprint.
    reset_peak_bytes();
    assert!(peak_bytes() < with_buf);
}

fn live_bytes_falls_after_free() {
    let before = live_bytes();
    let v: Vec<u8> = vec![0; 1 << 16];
    std::hint::black_box(&v);
    assert!(live_bytes() >= before + (1 << 16));
    drop(v);
    assert!(live_bytes() < before + (1 << 16));
}

fn main() {
    let checks: [(&str, fn()); 2] = [
        (
            "peak_bytes_tracks_a_regions_high_water_mark",
            peak_bytes_tracks_a_regions_high_water_mark,
        ),
        ("live_bytes_falls_after_free", live_bytes_falls_after_free),
    ];
    // Name filters as libtest takes them: any non-flag argument.
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let selected: Vec<_> = checks
        .iter()
        .filter(|(name, _)| filters.is_empty() || filters.iter().any(|f| name.contains(f.as_str())))
        .collect();
    println!("\nrunning {} tests", selected.len());
    for (name, check) in &selected {
        check();
        println!("test {name} ... ok");
    }
    println!(
        "\ntest result: ok. {} passed; 0 failed; 0 ignored; 0 measured; {} filtered out\n",
        selected.len(),
        checks.len() - selected.len()
    );
}
