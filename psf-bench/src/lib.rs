//! psf-bench: the sign-on / publish benchmark of the PSF reproduction.
//! See `README.md` for what is measured and why; `main.rs` for the
//! command line.

pub mod client;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod procfs;
pub mod run;
pub mod server;
pub mod stream;
pub mod trace;
pub mod world;

/// The median of `values` (the mean of the middle two when their count
/// is even; 0 when there are none).
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}
