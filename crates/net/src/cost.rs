//! Device compute profiles for running-time modeling.
//!
//! The paper's Fig. 12 compares wall-clock training time of centralized PLOS
//! on a 3.4 GHz server against distributed PLOS on Nexus 5 phones. This
//! reproduction executes both algorithms on the same host, measures real
//! wall-clock, and rescales each side by a device profile: the ratio of the
//! reference machine's effective FLOP rate to the target device's. That
//! preserves exactly what the figure shows — *how the two curves scale with
//! the number of users* — without the physical testbed.

use std::time::Duration;

/// Effective compute capability of a device class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable device name.
    pub name: &'static str,
    /// Sustained effective FLOP rate (double precision, single thread).
    pub flops_per_sec: f64,
}

impl DeviceProfile {
    /// The paper's server: Intel Core 3.4 GHz, 16 GB RAM. Effective scalar
    /// double-precision throughput of such a core is a few GFLOP/s.
    pub fn server() -> Self {
        DeviceProfile { name: "server-3.4GHz", flops_per_sec: 4.0e9 }
    }

    /// The paper's client device: LG Nexus 5 (Snapdragon 800). Sustained
    /// scalar FP throughput is roughly an order of magnitude below the
    /// server core.
    pub fn nexus5() -> Self {
        DeviceProfile { name: "nexus5", flops_per_sec: 4.0e8 }
    }

    /// The machine the benchmarks actually run on; used as the reference
    /// for rescaling. Treated as equivalent to the paper's server.
    pub fn reference() -> Self {
        DeviceProfile { name: "reference-host", flops_per_sec: 4.0e9 }
    }

    /// Rescales a duration measured on `measured_on` into the equivalent
    /// duration on `self`.
    ///
    /// # Panics
    ///
    /// Panics if either FLOP rate is not positive.
    pub fn rescale_from(&self, measured: Duration, measured_on: &DeviceProfile) -> Duration {
        assert!(self.flops_per_sec > 0.0, "target FLOP rate must be positive");
        assert!(measured_on.flops_per_sec > 0.0, "source FLOP rate must be positive");
        let factor = measured_on.flops_per_sec / self.flops_per_sec;
        Duration::from_secs_f64(measured.as_secs_f64() * factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phone_is_slower_than_server() {
        assert!(DeviceProfile::nexus5().flops_per_sec < DeviceProfile::server().flops_per_sec);
    }

    #[test]
    fn rescaling_identity() {
        let server = DeviceProfile::server();
        let d = Duration::from_millis(150);
        assert_eq!(server.rescale_from(d, &server), d);
    }

    #[test]
    fn rescaling_to_slower_device_inflates_time() {
        let server = DeviceProfile::server();
        let phone = DeviceProfile::nexus5();
        let d = Duration::from_millis(100);
        let on_phone = phone.rescale_from(d, &server);
        let ratio = on_phone.as_secs_f64() / d.as_secs_f64();
        assert!((ratio - 10.0).abs() < 1e-9, "ratio={ratio}");
    }

    #[test]
    fn rescaling_round_trips() {
        let server = DeviceProfile::server();
        let phone = DeviceProfile::nexus5();
        let d = Duration::from_secs_f64(1.25);
        let there = phone.rescale_from(d, &server);
        let back = server.rescale_from(there, &phone);
        assert!((back.as_secs_f64() - d.as_secs_f64()).abs() < 1e-12);
    }
}
